"""Strict JSON experiment configuration.

Unknown keys are rejected everywhere (reproducibility over leniency), and
every validation failure names the offending field by its dotted path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .forcing import Constant, FastScaled, Forcing, Heteroclinic, Patchwork, Periodic, Quasiperiodic
from .model import (
    EPS_MAX,
    CouplingMatrices,
    Field,
    Nonlinearity,
    SpatialGrid,
    cubic_nonlinearity,
    linear_nonlinearity,
    sine_field,
    zero_nonlinearity,
)

KINDS = (
    "solve-elliptic",
    "solve-parabolic",
    "equilibria",
    "converge",
    "attractor",
    "average",
    "regularity-probe",
)

# experiment variants accepted per kind; "params" keys are checked against
# _PARAM_KEYS and tolerances against _TOL_KEYS for the chosen variant
EXPERIMENTS = {
    "solve-elliptic": ("solve", "modal-decay", "frechet"),
    "solve-parabolic": ("solve", "lyapunov"),
    "equilibria": ("census",),
    "converge": ("delegation-gap", "trajectory-rate", "periodic-orbit", "synthetic-power-law"),
    "attractor": ("structure", "distance-sweep"),
    "average": ("attractor-mean",),
    "regularity-probe": ("solution-ratios", "symbol-bounds"),
}

_PARAM_KEYS = {
    "solve": {"eps", "t_len", "m_steps", "u0"},
    "modal-decay": {"t_len", "m_steps", "u0", "t_check"},
    "frechet": {"eps", "t_len", "m_steps", "u0", "xi", "deltas", "newton_tol"},
    "lyapunov": {"n_trajectories", "t_end", "dt", "amplitude"},
    "census": {"seed_count", "sweep_lambda"},
    "delegation-gap": {"t_end", "stride", "u0"},
    "trajectory-rate": {"t_end", "stride", "u0"},
    "periodic-orbit": {"t_track"},
    "synthetic-power-law": {"eps", "distances"},
    "structure": {"radius", "t_grow", "stride", "n_rays"},
    "distance-sweep": {"radius", "t_grow", "stride", "n_rays", "discard"},
    "attractor-mean": {"radius", "t_grow", "stride", "n_rays", "discard", "window0", "mean_tol"},
    "solution-ratios": {"u0"},
    "symbol-bounds": {"pairs", "eps_grid", "xi_points", "xi_range"},
}

_TOL_KEYS = {
    "solve": set(),
    "modal-decay": {"rel_err"},
    "frechet": {"ratio_lo", "ratio_hi"},
    "lyapunov": {"max_increase"},
    "census": {"expected_counts", "expected_indices"},
    "delegation-gap": {"rel_gap"},
    "trajectory-rate": {"slope_min", "residual_max"},
    "periodic-orbit": {"residual_max"},
    "synthetic-power-law": {"slope", "slope_tol"},
    "structure": {"endpoint_tol"},
    "distance-sweep": {"final_dist"},
    "attractor-mean": {},
    "solution-ratios": {"spread"},
    "symbol-bounds": {"ratio_lo", "ratio_hi"},
}

# scalar params: the minimum of each integer, the sign rule of each real
# (synthetic-power-law reads its eps as a list and checks it on its own)
_INTEGER_PARAMS = {"m_steps": 2, "n_trajectories": 0, "seed_count": 1, "n_rays": 1, "xi_points": 1}
_POSITIVE = {"positive": True}
_NONNEGATIVE = {"nonnegative": True}
_REAL_PARAMS = {
    "eps": _NONNEGATIVE,
    "t_len": _POSITIVE,
    "t_check": _NONNEGATIVE,
    "newton_tol": _POSITIVE,
    "t_end": _POSITIVE,
    "dt": _POSITIVE,
    "amplitude": {},
    "t_track": _POSITIVE,
    "radius": _POSITIVE,
    "t_grow": _POSITIVE,
    "stride": _POSITIVE,
    "discard": _NONNEGATIVE,
    "window0": _POSITIVE,
    "mean_tol": _POSITIVE,
}

# list params: the shortest list and the sign rule of each entry ("pairs"
# holds [alpha, beta] pairs and is checked on its own)
_LIST_PARAMS = {
    "deltas": (2, _POSITIVE),
    "sweep_lambda": (1, {}),
    "eps_grid": (1, _NONNEGATIVE),
    "xi_range": (2, {}),
}

# defaults of the params that take part in a rule across two keys; the
# experiments read the same values
MODAL_DECAY_DEFAULTS = {"t_len": 2.0, "t_check": 1.0}
STRIDE_DEFAULTS = {
    "delegation-gap": 0.25, "trajectory-rate": 0.125,
    "structure": 0.25, "distance-sweep": 0.25, "attractor-mean": 0.25,
}

# experiments whose truncated cylinders read the far-boundary margin
_MARGIN_EXPERIMENTS = {
    "trajectory-rate", "periodic-orbit", "distance-sweep", "attractor-mean", "solution-ratios",
}


@dataclass(frozen=True)
class ProblemSpec:
    length: float
    n_interior: int
    k: int
    a: np.ndarray
    gamma: np.ndarray
    nl_id: str
    nl_param: float

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.length, self.n_interior)

    def matrices(self) -> CouplingMatrices:
        return CouplingMatrices(self.k, self.a, self.gamma)

    def nonlinearity(self) -> Nonlinearity:
        if self.nl_id == "zero":
            return zero_nonlinearity(self.k)
        if self.nl_id == "linear":
            return linear_nonlinearity(self.nl_param, self.k)
        return cubic_nonlinearity(self.nl_param, self.k)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    experiment: str
    problem: ProblemSpec
    forcing: dict | None
    eps_list: tuple
    params: dict
    tolerances: dict
    out_dir: str
    seed: int
    margin: float | None
    raw: dict = field(repr=False)


def _fail(path: str, msg: str):
    raise ValidationError(f"{path}: {msg}")


def _require_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in obj:
            _fail(f"{path}.{key}" if path else key, "missing required key")


def _number(obj, path: str, positive=False, nonnegative=False) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(path, "expected a number")
    v = float(obj)
    if not math.isfinite(v):
        _fail(path, "must be finite")
    if positive and v <= 0:
        _fail(path, "must be > 0")
    if nonnegative and v < 0:
        _fail(path, "must be >= 0")
    return v


def _numbers(obj, path: str, min_len: int, **sign) -> list[float]:
    if not isinstance(obj, list) or len(obj) < min_len:
        _fail(path, f"expected a list of at least {min_len} numbers" if min_len > 1 else
              "expected a nonempty list of numbers")
    return [_number(v, f"{path}[{i}]", **sign) for i, v in enumerate(obj)]


def _integer(obj, path: str, minimum=None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, "expected an integer")
    if minimum is not None and obj < minimum:
        _fail(path, f"must be >= {minimum}")
    return obj


def _matrix(obj, path: str, k: int) -> np.ndarray:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return float(obj) * np.eye(k)
    if not isinstance(obj, list) or len(obj) != k:
        _fail(path, f"expected a scalar or a {k}x{k} matrix")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != k:
            _fail(f"{path}[{i}]", f"expected a row of {k} numbers")
        rows.append([_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows)


def _parse_problem(obj, path: str) -> ProblemSpec:
    _require_keys(obj, path, {"length", "n_interior", "nonlinearity"}, {"k", "a", "gamma"})
    k = _integer(obj.get("k", 1), f"{path}.k", minimum=1)
    length = _number(obj["length"], f"{path}.length", positive=True)
    n = _integer(obj["n_interior"], f"{path}.n_interior", minimum=2)
    a = _matrix(obj.get("a", 1.0), f"{path}.a", k)
    gamma = _matrix(obj.get("gamma", 1.0), f"{path}.gamma", k)
    nl = obj["nonlinearity"]
    npath = f"{path}.nonlinearity"
    _require_keys(nl, npath, {"id"}, {"lam", "c"})
    nl_id = nl["id"]
    if nl_id not in ("zero", "linear", "cubic"):
        _fail(f"{npath}.id", f"unknown nonlinearity {nl_id!r}")
    param = 0.0
    if nl_id == "cubic":
        if "lam" not in nl:
            _fail(f"{npath}.lam", "missing required key")
        param = _number(nl["lam"], f"{npath}.lam")
    elif nl_id == "linear":
        if "c" not in nl:
            _fail(f"{npath}.c", "missing required key")
        param = _number(nl["c"], f"{npath}.c")
    elif set(nl) - {"id"}:
        _fail(npath, "zero nonlinearity takes no parameters")
    try:
        spec = ProblemSpec(length, n, k, a, gamma, nl_id, param)
        spec.matrices()
    except Exception as exc:
        _fail(path, str(exc))
    return spec


_PROFILE_KINDS = {"sine", "uniform", "zero"}


def parse_profile(obj, grid: SpatialGrid, k: int, path: str = "profile") -> Field:
    """Field builder used inside forcing and initial-data specs."""
    _require_keys(obj, path, {"kind"}, {"coeffs", "value"})
    kind = obj.get("kind")
    if kind not in _PROFILE_KINDS:
        _fail(f"{path}.kind", f"unknown profile kind {kind!r}")
    if kind == "zero":
        if set(obj) - {"kind"}:
            _fail(path, "zero profile takes no parameters")
        return Field(grid, np.zeros((grid.n_interior, k)))
    if kind == "uniform":
        if "value" not in obj:
            _fail(f"{path}.value", "missing required key")
        val = obj["value"]
        vals = [val] if not isinstance(val, list) else val
        if len(vals) != k:
            _fail(f"{path}.value", f"expected {k} components")
        row = [_number(v, f"{path}.value[{i}]") for i, v in enumerate(vals)]
        return Field(grid, np.tile(row, (grid.n_interior, 1)))
    if "coeffs" not in obj:
        _fail(f"{path}.coeffs", "missing required key")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        _fail(f"{path}.coeffs", "expected a nonempty list")
    rows = []
    for i, c in enumerate(coeffs):
        if isinstance(c, list):
            if len(c) != k:
                _fail(f"{path}.coeffs[{i}]", f"expected {k} components")
            rows.append([_number(v, f"{path}.coeffs[{i}][{j}]") for j, v in enumerate(c)])
        else:
            if k != 1:
                _fail(f"{path}.coeffs[{i}]", f"expected {k} components")
            rows.append([_number(c, f"{path}.coeffs[{i}]")])
    return sine_field(grid, np.array(rows), k=k)


_FORCING_KEYS = {
    "constant": ({"type", "mean"}, set()),
    "periodic": ({"type", "mean", "osc", "omega"}, set()),
    "quasiperiodic": ({"type", "mean", "osc1", "omega1", "osc2", "omega2"}, set()),
    "heteroclinic": ({"type", "minus", "plus"}, {"scale"}),
    "patchwork": ({"type", "g1", "g2"}, set()),
    "fast-scaled": ({"type", "inner", "eps"}, set()),
}


def validate_forcing(obj, path: str = "forcing"):
    """Structural check without a grid; full parse happens in parse_forcing."""
    if not isinstance(obj, dict) or "type" not in obj:
        _fail(path, "expected an object with a 'type' key")
    ftype = obj["type"]
    if ftype not in _FORCING_KEYS:
        _fail(f"{path}.type", f"unknown forcing type {ftype!r}")
    required, optional = _FORCING_KEYS[ftype]
    _require_keys(obj, path, required, optional)
    for key in ("g1", "g2", "inner"):
        if key in obj:
            validate_forcing(obj[key], f"{path}.{key}")


def parse_forcing(obj, grid: SpatialGrid, k: int, path: str = "forcing") -> Forcing:
    ftype = obj["type"]
    if ftype == "constant":
        return Constant(parse_profile(obj["mean"], grid, k, f"{path}.mean"))
    if ftype == "periodic":
        return Periodic(
            parse_profile(obj["mean"], grid, k, f"{path}.mean"),
            parse_profile(obj["osc"], grid, k, f"{path}.osc"),
            _number(obj["omega"], f"{path}.omega", positive=True),
        )
    if ftype == "quasiperiodic":
        return Quasiperiodic(
            parse_profile(obj["mean"], grid, k, f"{path}.mean"),
            parse_profile(obj["osc1"], grid, k, f"{path}.osc1"),
            _number(obj["omega1"], f"{path}.omega1", positive=True),
            parse_profile(obj["osc2"], grid, k, f"{path}.osc2"),
            _number(obj["omega2"], f"{path}.omega2", positive=True),
        )
    if ftype == "heteroclinic":
        return Heteroclinic(
            parse_profile(obj["minus"], grid, k, f"{path}.minus"),
            parse_profile(obj["plus"], grid, k, f"{path}.plus"),
            _number(obj.get("scale", 1.0), f"{path}.scale", positive=True),
        )
    if ftype == "patchwork":
        return Patchwork(
            parse_forcing(obj["g1"], grid, k, f"{path}.g1"),
            parse_forcing(obj["g2"], grid, k, f"{path}.g2"),
        )
    return FastScaled(
        parse_forcing(obj["inner"], grid, k, f"{path}.inner"),
        _number(obj["eps"], f"{path}.eps", positive=True),
    )


def _validate_params(experiment: str, params: dict, tolerances: dict, problem: ProblemSpec):
    allowed = _PARAM_KEYS[experiment]
    for key, value in params.items():
        path = f"params.{key}"
        if key not in allowed:
            _fail(path, f"unknown key for experiment {experiment!r}")
        if key in _INTEGER_PARAMS:
            _integer(value, path, minimum=_INTEGER_PARAMS[key])
        elif key in _REAL_PARAMS and experiment != "synthetic-power-law":
            v = _number(value, path, **_REAL_PARAMS[key])
            if key == "stride" and abs(1.0 / v - round(1.0 / v)) > 1e-9:
                _fail(path, "must divide one time unit")
            if key == "eps" and v > EPS_MAX:
                _fail(path, f"exceeds the anisotropy cap {EPS_MAX}")
        elif key in _LIST_PARAMS:
            vals = _numbers(value, path, _LIST_PARAMS[key][0], **_LIST_PARAMS[key][1])
            if key == "xi_range" and (len(vals) != 2 or vals[0] >= vals[1]):
                _fail(path, "expected [lo, hi] with lo < hi")
        elif key == "pairs":
            if not isinstance(value, list) or not value:
                _fail(path, "expected a nonempty list of [alpha, beta] pairs")
            for i, pair in enumerate(value):
                if not isinstance(pair, list) or len(pair) != 2:
                    _fail(f"{path}[{i}]", "expected an [alpha, beta] pair")
                _number(pair[0], f"{path}[{i}][0]", positive=True)
                _number(pair[1], f"{path}[{i}][1]")
        elif key in ("u0", "xi"):
            parse_profile(value, problem.grid(), problem.k, path)
    if experiment == "synthetic-power-law":
        eps, dists = (_numbers(params.get(key), f"params.{key}", 3, positive=True)
                      for key in ("eps", "distances"))
        if len(eps) != len(dists):
            _fail("params.distances", f"expected {len(eps)} distances, one per eps")
    if experiment in STRIDE_DEFAULTS:
        stride = params.get("stride", STRIDE_DEFAULTS[experiment])
        # an absent span key defaults to whole time units, which every
        # stride that divides one time unit divides as well
        for key in ("t_end", "t_grow"):
            if key in params and abs(params[key] / stride - round(params[key] / stride)) > 1e-9:
                _fail(f"params.{key}", f"must be a multiple of stride {stride:g}")
    if experiment == "modal-decay":
        t_len = params.get("t_len", MODAL_DECAY_DEFAULTS["t_len"])
        if params.get("t_check", MODAL_DECAY_DEFAULTS["t_check"]) > t_len:
            _fail("params.t_check", f"must not exceed t_len {t_len:g}")
    allowed_tol = _TOL_KEYS[experiment]
    for key in tolerances:
        if key not in allowed_tol:
            _fail(f"tolerances.{key}", f"unknown key for experiment {experiment!r}")


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", 0, 0) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc

    top_required = {"version", "kind", "problem", "experiment"}
    top_optional = {"forcing", "eps_list", "params", "tolerances", "out_dir", "seed", "margin"}
    _require_keys(raw, "", top_required, top_optional)
    if raw["version"] != 1:
        _fail("version", f"unsupported config version {raw['version']!r}")
    kind = raw["kind"]
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r}")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS[kind]:
        _fail("experiment", f"kind {kind!r} supports {EXPERIMENTS[kind]}, got {experiment!r}")

    problem = _parse_problem(raw["problem"], "problem")

    eps_list = ()
    if "eps_list" in raw:
        seq = raw["eps_list"]
        if not isinstance(seq, list) or not seq:
            _fail("eps_list", "expected a nonempty list")
        vals = [_number(v, f"eps_list[{i}]", nonnegative=True) for i, v in enumerate(seq)]
        for i, v in enumerate(vals):
            if v > EPS_MAX:
                _fail(f"eps_list[{i}]", f"exceeds the anisotropy cap {EPS_MAX}")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            _fail("eps_list", "must be sorted in strictly descending order")
        eps_list = tuple(vals)

    if "forcing" in raw:
        validate_forcing(raw["forcing"])
        # constructs every profile once so bad shapes fail at load time
        parse_forcing(raw["forcing"], problem.grid(), problem.k)

    params = raw.get("params", {})
    tolerances = raw.get("tolerances", {})
    if not isinstance(params, dict):
        _fail("params", "expected an object")
    if not isinstance(tolerances, dict):
        _fail("tolerances", "expected an object")
    _validate_params(experiment, params, tolerances, problem)

    out_dir = raw.get("out_dir", "lab-out")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("out_dir", "expected a nonempty string")
    seed = _integer(raw.get("seed", 0), "seed", minimum=0)
    margin = None  # the solver sizes the far margin itself
    if "margin" in raw:
        margin = _number(raw["margin"], "margin", positive=True)
        if experiment not in _MARGIN_EXPERIMENTS:
            _fail("margin", f"not used by experiment {experiment!r}")

    return ExperimentConfig(
        kind=kind,
        experiment=experiment,
        problem=problem,
        forcing=raw.get("forcing"),
        eps_list=eps_list,
        params=dict(params),
        tolerances=dict(tolerances),
        out_dir=out_dir,
        seed=seed,
        margin=margin,
        raw=raw,
    )
