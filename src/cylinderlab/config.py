"""Strict JSON experiment configuration.

Unknown keys are rejected everywhere (reproducibility over leniency), and
every validation failure names the offending field by its dotted path.
load_config resolves every key an experiment reads through one table,
SCHEMAS, so the experiments get typed values, parsed profiles and one
parsed forcing, with the defaults filled in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import RECURRENCE_LAG, TRACK_STRIDE, CloudParams
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
    symmetric,
    zero_nonlinearity,
)

# experiment variants accepted per kind; SCHEMAS says what each one reads
EXPERIMENTS = {
    "solve-elliptic": ("solve", "modal-decay", "frechet"),
    "solve-parabolic": ("solve", "lyapunov"),
    "equilibria": ("census",),
    "converge": ("delegation-gap", "trajectory-rate", "periodic-orbit"),
    "attractor": ("structure", "distance-sweep"),
    "average": ("attractor-mean",),
    "regularity-probe": ("solution-ratios", "symbol-bounds"),
}
KINDS = tuple(EXPERIMENTS)


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
    """A loaded config: params and tolerances hold every key the experiment
    reads, resolved; raw is the JSON as written, which the report echoes."""

    kind: str
    experiment: str
    problem: ProblemSpec
    forcing: Forcing
    eps_list: tuple
    params: dict
    tolerances: dict
    out_dir: str
    seed: int
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


def _list(obj, path: str, min_len: int, what: str) -> list:
    if not isinstance(obj, list) or len(obj) < min_len:
        size = {0: "a list of", 1: "a nonempty list of"}.get(min_len)
        _fail(path, f"expected {size or f'a list of at least {min_len}'} {what}")
    return obj


def _numbers(obj, path: str, min_len: int, **sign) -> list[float]:
    vals = _list(obj, path, min_len, "numbers")
    return [_number(v, f"{path}[{i}]", **sign) for i, v in enumerate(vals)]


def _integer(obj, path: str, minimum=None) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(path, "expected an integer")
    if minimum is not None and obj < minimum:
        _fail(path, f"must be >= {minimum}")
    return obj


def _eps(obj, path: str, problem=None, positive=False) -> float:
    v = _number(obj, path, positive=positive, nonnegative=True)
    if v > EPS_MAX:
        _fail(path, f"exceeds the anisotropy cap {EPS_MAX}")
    return v


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
    if nl_id == "zero":
        if set(nl) - {"id"}:
            _fail(npath, "zero nonlinearity takes no parameters")
    else:
        # each nonlinearity takes its own parameter and no other
        key = "lam" if nl_id == "cubic" else "c"
        _require_keys(nl, npath, {"id", key})
        param = _number(nl[key], f"{npath}.{key}")
    try:
        spec = ProblemSpec(length, n, k, a, gamma, nl_id, param)
        spec.matrices()
    except Exception as exc:
        _fail(path, str(exc))
    return spec


_PROFILE_KINDS = ("sine", "uniform", "zero")


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
    # each kind takes its own parameter and no other
    _require_keys(obj, path, {"kind", "value" if kind == "uniform" else "coeffs"})
    if kind == "uniform":
        val = obj["value"]
        vals = [val] if not isinstance(val, list) else val
        if len(vals) != k:
            _fail(f"{path}.value", f"expected {k} components")
        row = [_number(v, f"{path}.value[{i}]") for i, v in enumerate(vals)]
        return Field(grid, np.tile(row, (grid.n_interior, 1)))
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


def parse_forcing(obj, grid: SpatialGrid, k: int, path: str = "forcing") -> Forcing:
    if not isinstance(obj, dict) or "type" not in obj:
        _fail(path, "expected an object with a 'type' key")
    ftype = obj["type"]
    if not isinstance(ftype, str) or ftype not in _FORCING_KEYS:
        _fail(f"{path}.type", f"unknown forcing type {ftype!r}")
    _require_keys(obj, path, *_FORCING_KEYS[ftype])
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


# ---------------------------------------------------------------------------
# the experiment table: each check maps (value, dotted path, problem) to the
# resolved value, or fails naming the path


def _real(**sign):
    return lambda v, path, problem: _number(v, path, **sign)


def _int(minimum: int):
    return lambda v, path, problem: _integer(v, path, minimum)


def _reals(min_len: int, **sign):
    return lambda v, path, problem: _numbers(v, path, min_len, **sign)


_POS, _NONNEG = _real(positive=True), _real(nonnegative=True)


def _stride(v, path, problem) -> float:
    v = _number(v, path, positive=True)
    if abs(1.0 / v - round(1.0 / v)) > 1e-9:
        _fail(path, "must divide one time unit")
    return v


def _profile(v, path, problem) -> Field:
    return parse_profile(v, problem.grid(), problem.k, path)


def _sine(amplitude: float):
    """Default profile: amplitude times the first sine mode in every component."""
    return lambda k: {"kind": "sine", "coeffs": [[amplitude] * k]}


def _pairs(v, path, problem) -> list[list[float]]:
    pairs = []
    for i, pair in enumerate(_list(v, path, 1, "[alpha, beta] pairs")):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{path}[{i}]", "expected an [alpha, beta] pair")
        pairs.append([_number(pair[0], f"{path}[{i}][0]", positive=True),
                      _number(pair[1], f"{path}[{i}][1]")])
    return pairs


def _xi_range(v, path, problem) -> list[float]:
    vals = _numbers(v, path, 2)
    if len(vals) != 2 or vals[0] >= vals[1]:
        _fail(path, "expected [lo, hi] with lo < hi")
    return vals


def _counts(v, path, problem, min_len=1) -> list[int]:
    vals = _list(v, path, min_len, "integers")
    return [_integer(c, f"{path}[{i}]", 0) for i, c in enumerate(vals)]


def _index_lists(v, path, problem) -> list[list[int]]:
    rows = _list(v, path, 1, "lists of integers")
    return [_counts(row, f"{path}[{i}]", problem, min_len=0) for i, row in enumerate(rows)]


# rules across keys, checked on the resolved params and tolerances and on
# the parsed problem and forcing
def _t_check_within_t_len(p, tol, problem, forcing):
    if p["t_check"] > p["t_len"]:
        _fail("params.t_check", f"must not exceed t_len {p['t_len']:g}")


def _off_grid(span: float, stride: float) -> bool:
    return abs(span / stride - round(span / stride)) > 1e-9


def _spans_fit_stride(p, tol, problem, forcing):
    for key in ("t_end", "t_grow"):
        if key in p and _off_grid(p[key], p["stride"]):
            _fail(f"params.{key}", f"must be a multiple of stride {p['stride']:g}")


def _t_track_fits_stride(p, tol, problem, forcing):
    if _off_grid(p["t_track"], TRACK_STRIDE):
        _fail("params.t_track", f"must be a multiple of the tracking stride {TRACK_STRIDE:g}")
    if forcing.period is None and p["t_track"] < RECURRENCE_LAG - 1e-9:
        _fail("params.t_track", f"must be at least {RECURRENCE_LAG:g} for forcing without a "
              "finite period (the recurrence gap)")


def _a_symmetric(p, tol, problem, forcing):
    # the energy behind lyapunov_value exists only for a symmetric a
    if not symmetric(problem.a):
        _fail("problem.a", "must be symmetric for the energy (Lyapunov function) to exist")


def _sweep_needs_cubic(p, tol, problem, forcing):
    # each sweep cell runs the cubic at its lam, whatever problem.nonlinearity says
    if p["sweep_lambda"] is not None and problem.nl_id != "cubic":
        _fail("params.sweep_lambda", f"sweeps the cubic's lam, not a {problem.nl_id} nonlinearity")


def _one_expectation_per_cell(p, tol, problem, forcing):
    cells = 1 if p["sweep_lambda"] is None else len(p["sweep_lambda"])
    for key in ("expected_counts", "expected_indices"):
        if tol[key] is not None and len(tol[key]) != cells:
            _fail(f"tolerances.{key}", f"expected one entry per sweep cell ({cells})")


class Schema(NamedTuple):
    """What one experiment reads.  params and tolerances map each key to
    (check, default): an absent key takes default, written as in a config
    file (a function of k for a profile), and None leaves it None for the
    experiment or the library to size.  eps_list is the fewest entries the
    experiment needs (0 when it reads none), eps_positive whether each entry
    must be > 0 (the experiments that compare eps > 0 against the limit
    cannot run eps = 0)."""

    params: dict
    tolerances: dict
    eps_list: int = 0
    eps_positive: bool = False
    rules: tuple = ()


_CLOUD = CloudParams()
_CLOUD_KEYS = {
    "radius": (_POS, _CLOUD.radius), "t_grow": (_POS, _CLOUD.t_grow),
    "stride": (_stride, _CLOUD.stride), "n_rays": (_int(1), _CLOUD.n_rays),
}

SCHEMAS = {
    "solve": Schema(
        {"eps": (_eps, 0.1), "t_len": (_POS, 2.0), "m_steps": (_int(2), None),
         "u0": (_profile, _sine(0.5))},
        {},
    ),
    "modal-decay": Schema(
        {"t_len": (_POS, 2.0), "m_steps": (_int(2), 200), "u0": (_profile, _sine(1.0)),
         "t_check": (_NONNEG, 1.0)},
        {"rel_err": (_POS, 0.01)},
        eps_list=1, rules=(_t_check_within_t_len,),
    ),
    "frechet": Schema(
        {"eps": (_eps, 0.1), "t_len": (_POS, 2.0), "m_steps": (_int(2), 128),
         "u0": (_profile, _sine(0.5)), "xi": (_profile, _sine(1.0)),
         "deltas": (_reals(2, positive=True), [1e-3, 1e-4]), "newton_tol": (_POS, 1e-12)},
        {"ratio_lo": (_POS, 5.0), "ratio_hi": (_POS, 20.0)},
    ),
    "lyapunov": Schema(
        {"n_trajectories": (_int(1), 20), "t_end": (_POS, 2.0), "dt": (_POS, 1e-3),
         "amplitude": (_real(), 1.0)},
        {"max_increase": (_NONNEG, 1e-8)},
        rules=(_a_symmetric,),
    ),
    "census": Schema(
        {"seed_count": (_int(1), 12), "sweep_lambda": (_reals(1), None)},
        {"expected_counts": (_counts, None), "expected_indices": (_index_lists, None)},
        rules=(_sweep_needs_cubic, _one_expectation_per_cell),
    ),
    "delegation-gap": Schema(
        {"t_end": (_POS, 2.0), "stride": (_stride, 0.25), "u0": (_profile, _sine(0.5))},
        {"rel_gap": (_NONNEG, 1e-6)},
        rules=(_spans_fit_stride,),
    ),
    "trajectory-rate": Schema(  # rate_fit needs three eps
        {"t_end": (_POS, 3.0), "stride": (_stride, 0.125), "u0": (_profile, _sine(0.4))},
        {"slope_min": (_real(), 0.45), "residual_max": (_NONNEG, 0.3)},
        eps_list=3, eps_positive=True, rules=(_spans_fit_stride,),
    ),
    "periodic-orbit": Schema(
        {"t_track": (_POS, 40.0)}, {"residual_max": (_NONNEG, 1e-6)},
        eps_list=1, eps_positive=True, rules=(_t_track_fits_stride,),
    ),
    "structure": Schema(
        {"radius": (_POS, 2e-4), "t_grow": (_POS, 18.0), "stride": (_stride, 0.25),
         "n_rays": (_int(1), 16)},
        {"endpoint_tol": (_POS, 1e-3)},
        rules=(_spans_fit_stride, _a_symmetric),
    ),
    "distance-sweep": Schema(
        _CLOUD_KEYS, {"final_dist": (_NONNEG, 5e-2)},
        eps_list=1, eps_positive=True, rules=(_spans_fit_stride,),
    ),
    "attractor-mean": Schema(
        {**_CLOUD_KEYS, "window0": (_POS, 32.0), "mean_tol": (_POS, 1e-2)}, {},
        eps_list=1, eps_positive=True, rules=(_spans_fit_stride,),
    ),
    "solution-ratios": Schema({"u0": (_profile, _sine(1.0))}, {"spread": (_POS, 2.0)}, eps_list=1),
    "symbol-bounds": Schema(
        {"pairs": (_pairs, [[1.0, 0.0]]),
         "eps_grid": (_reals(1, nonnegative=True), [0.0, 0.01, 0.1, 1.0]),
         "xi_points": (_int(1), 100), "xi_range": (_xi_range, [-2.0, 3.0])},
        {"ratio_lo": (_POS, 0.2), "ratio_hi": (_POS, 5.0)},
    ),
}


def _resolve(obj, section: str, keys: dict, experiment: str, problem: ProblemSpec) -> dict:
    """Every key of keys, checked from obj or filled in from its default."""
    if not isinstance(obj, dict):
        _fail(section, "expected an object")
    for key in obj:
        if key not in keys:
            _fail(f"{section}.{key}", f"unknown key for experiment {experiment!r}")
    out = {}
    for key, (check, default) in keys.items():
        path = f"{section}.{key}"
        if key in obj:
            out[key] = check(obj[key], path, problem)
        elif default is None:
            out[key] = None
        else:
            out[key] = check(default(problem.k) if callable(default) else default, path, problem)
    return out


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
    top_optional = {"forcing", "eps_list", "params", "tolerances", "out_dir", "seed"}
    _require_keys(raw, "", top_required, top_optional)
    if raw["version"] != 1:
        _fail("version", f"unsupported config version {raw['version']!r}")
    kind = raw["kind"]
    if kind not in KINDS:
        _fail("kind", f"unknown kind {kind!r}")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS[kind]:
        _fail("experiment", f"kind {kind!r} supports {EXPERIMENTS[kind]}, got {experiment!r}")
    schema = SCHEMAS[experiment]

    problem = _parse_problem(raw["problem"], "problem")
    grid = problem.grid()
    if "forcing" in raw:
        forcing = parse_forcing(raw["forcing"], grid, problem.k)
    else:
        forcing = Constant(Field.zeros(grid, problem.k))

    params = _resolve(raw.get("params", {}), "params", schema.params, experiment, problem)
    tolerances = _resolve(raw.get("tolerances", {}), "tolerances", schema.tolerances,
                          experiment, problem)
    for rule in schema.rules:
        rule(params, tolerances, problem, forcing)

    eps_list = ()
    if "eps_list" in raw:
        if not schema.eps_list:
            _fail("eps_list", f"not used by experiment {experiment!r}")
        seq = _list(raw["eps_list"], "eps_list", schema.eps_list, "numbers")
        eps_list = tuple(
            _eps(v, f"eps_list[{i}]", positive=schema.eps_positive) for i, v in enumerate(seq)
        )
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            _fail("eps_list", "must be sorted in strictly descending order")
    elif schema.eps_list:
        _fail("eps_list", "missing required key")

    out_dir = raw.get("out_dir", "lab-out")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("out_dir", "expected a nonempty string")
    seed = _integer(raw.get("seed", 0), "seed", minimum=0)

    return ExperimentConfig(
        kind=kind,
        experiment=experiment,
        problem=problem,
        forcing=forcing,
        eps_list=eps_list,
        params=params,
        tolerances=tolerances,
        out_dir=out_dir,
        seed=seed,
        raw=raw,
    )
