import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylinderlab import ParseError, Report, ValidationError, load_config, rate_fit, run
from cylinderlab.cli import main as lab_main
from cylinderlab.config import EXPERIMENTS, SCHEMAS, parse_forcing, parse_profile
from cylinderlab.forcing import Forcing
from cylinderlab.model import Field, SpatialGrid


def minimal(**overrides):
    cfg = {
        "version": 1,
        "kind": "equilibria",
        "experiment": "census",
        "problem": {
            "length": math.pi,
            "n_interior": 16,
            "nonlinearity": {"id": "cubic", "lam": 2.0},
        },
    }
    cfg.update(overrides)
    return cfg


def write(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def fails_with(tmp_path, obj, fragment):
    with pytest.raises(ValidationError) as err:
        load_config(write(tmp_path, obj))
    assert fragment in str(err.value)


def test_minimal_roundtrip_and_defaults(tmp_path):
    cfg = load_config(write(tmp_path, minimal()))
    assert cfg.kind == "equilibria" and cfg.experiment == "census"
    assert cfg.eps_list == ()
    assert cfg.params == {"seed_count": 12, "sweep_lambda": None}
    assert cfg.tolerances == {"expected_counts": None, "expected_indices": None}
    assert cfg.out_dir == "lab-out"
    assert cfg.seed == 0
    # no forcing block: the zero forcing
    assert isinstance(cfg.forcing, Forcing) and cfg.forcing.period == 0.0
    assert not cfg.forcing.profiles.any()
    grid = cfg.problem.grid()
    assert isinstance(grid, SpatialGrid) and grid.n_interior == 16
    mats = cfg.problem.matrices()
    np.testing.assert_array_equal(mats.a, np.eye(1))
    np.testing.assert_array_equal(mats.gamma, np.eye(1))
    assert cfg.problem.nonlinearity().name == "cubic(lam=2.0)"


def test_full_config_roundtrip(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            minimal(
                kind="attractor",
                experiment="distance-sweep",
                eps_list=[0.5, 0.25, 0.125],
                forcing={
                    "type": "periodic",
                    "mean": {"kind": "zero"},
                    "osc": {"kind": "sine", "coeffs": [0.5]},
                    "omega": 1.0,
                },
                params={"radius": 0.25, "n_rays": 8},
                tolerances={"final_dist": 0.05},
                out_dir="out/sweep",
                seed=11,
            ),
        )
    )
    assert cfg.eps_list == (0.5, 0.25, 0.125)
    assert cfg.params["radius"] == 0.25
    assert cfg.tolerances["final_dist"] == 0.05
    assert cfg.out_dir == "out/sweep" and cfg.seed == 11
    g = cfg.forcing
    # omega 1.0: the period is 2 pi, and sin(omega t) reaches 1 at t = pi/2
    assert isinstance(g, Forcing) and g.period == 2.0 * math.pi
    np.testing.assert_array_equal(g.window([math.pi / 2])[0], g.profiles[0] + g.profiles[1])


def test_shipped_configs_load(configs_dir):
    paths = sorted(configs_dir.glob("*.json"))
    assert len(paths) >= 14
    for p in paths:
        cfg = load_config(str(p))
        assert cfg.raw["version"] == 1


SHIPPED = {p.stem: json.loads(p.read_text()) for p in sorted(
    (Path(__file__).resolve().parent.parent / "configs").glob("*.json")
)}
# no shipped config runs the synthetic-power-law fit; fuzz one as well
SHIPPED["synthetic"] = {
    "version": 1, "kind": "converge", "experiment": "synthetic-power-law",
    "problem": {"length": math.pi, "n_interior": 4, "nonlinearity": {"id": "zero"}},
    "params": {"eps": [0.4, 0.2, 0.1], "distances": [0.3, 0.2, 0.15]},
}
# what a mutated params, tolerances or eps_list value becomes; None drops
# the key
MUTANTS = (
    None, "abc", -1, -0.5, 0.5, [], [1], [[0.5, -1.0]], [[]], [0.3, 0.2, 0.1, 0.05],
    {"kind": "sine", "coeffs": "x"}, {"kind": "uniform", "value": [1.0, 2.0]}, {"kind": ["sine"]},
)

# the type each key resolves to: float unless named here, and a list stands
# for a list of its one entry's type
RESOLVED_TYPES = {
    "m_steps": int, "n_trajectories": int, "seed_count": int, "n_rays": int, "xi_points": int,
    "u0": Field, "xi": Field, "pairs": [[float]],
    "deltas": [float], "sweep_lambda": [float], "distances": [float], "eps_grid": [float],
    "xi_range": [float], "expected_counts": [int], "expected_indices": [[int]],
}


def has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(has_type(v, kind[0]) for v in value)
    return type(value) is kind


def assert_resolved(cfg):
    """Every key the experiment reads is present, with its resolved type."""
    schema = SCHEMAS[cfg.experiment]
    for section, keys in (("params", schema.params), ("tolerances", schema.tolerances)):
        resolved, written = getattr(cfg, section), cfg.raw.get(section, {})
        assert resolved.keys() == keys.keys()
        for key, value in resolved.items():
            if value is None:  # left for the experiment or the library to size
                assert key not in written and keys[key][1] is None
                continue
            kind = RESOLVED_TYPES.get(key, float)
            if cfg.experiment == "synthetic-power-law" and key == "eps":
                kind = [float]
            assert has_type(value, kind), (section, key, value)
    assert all(type(e) is float for e in cfg.eps_list)
    assert len(cfg.eps_list) >= schema.eps_list and (schema.eps_list or not cfg.eps_list)


def mutate(raw: dict, data) -> dict:
    """raw with one to three params, tolerances or eps_list values mutated."""
    schema = SCHEMAS[raw["experiment"]]
    targets = [("params", key) for key in schema.params]
    targets += [("tolerances", key) for key in schema.tolerances] + [(None, "eps_list")]
    for section, key in data.draw(st.lists(st.sampled_from(targets), min_size=1, max_size=3)):
        obj = raw if section is None else raw.setdefault(section, {})
        value = data.draw(st.sampled_from(MUTANTS))
        if value is None:
            obj.pop(key, None)
        else:
            obj[key] = value
    return raw


def load_or_none(raw: dict, tmp_path_factory):
    """The loaded config, or None where validation rejects it."""
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(raw))
    try:
        return load_config(str(path))
    except (ParseError, ValidationError):
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_params_fail_only_by_validation(tmp_path_factory, data):
    raw = json.loads(json.dumps(SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))]))
    cfg = load_or_none(mutate(raw, data), tmp_path_factory)
    if cfg is None:
        return
    # what loads, the experiments can read: every key resolved, and the
    # synthetic lists fit
    assert_resolved(cfg)
    if cfg.experiment == "synthetic-power-law":
        rate_fit(cfg.params["eps"], cfg.params["distances"])


# the keys that size a run, and the short value each takes in the run fuzz
SHORT = {
    "t_len": 1.0, "t_end": 1.0, "t_grow": 1.0, "t_track": 2.0, "window0": 2.0, "m_steps": 16,
    "n_rays": 2, "n_trajectories": 2, "seed_count": 2, "xi_points": 10,
}


def shorten(raw: dict) -> dict:
    """raw on at most 8 nodes, where each key of SHORT that its experiment
    reads and raw leaves out takes its short value."""
    raw["problem"]["n_interior"] = min(raw["problem"]["n_interior"], 8)
    params = raw.setdefault("params", {})
    for key, value in SHORT.items():
        if key in SCHEMAS[raw["experiment"]].params:
            params.setdefault(key, value)
    return raw


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_configs_run_to_a_verdict(tmp_path_factory, data):
    # the README's promise for whatever loads: a report with a verdict,
    # passed or failed, and never an exception out of run
    name = data.draw(st.sampled_from(sorted(SHIPPED)))
    raw = json.loads(json.dumps(SHIPPED[name]))
    for key in SHORT:  # the shipped sizes give way to the short ones
        raw.get("params", {}).pop(key, None)
    cfg = load_or_none(shorten(mutate(raw, data)), tmp_path_factory)
    if cfg is None:
        return
    report = run(cfg, fixed_clock=True)
    assert isinstance(report, Report) and report.verdicts
    json.dumps(report.to_dict())


def test_derived_solve_steps_meet_the_solver_minimum(tmp_path):
    # without m_steps, a horizon shorter than one default step still takes
    # each solver's minimum: 2 space-time steps, 1 backward-Euler step
    problem = {**minimal()["problem"], "n_interior": 16}
    for kind, params in (
        ("solve-elliptic", {"eps": 0.1, "t_len": 0.01}),
        ("solve-parabolic", {"t_len": 0.0004}),
    ):
        raw = minimal(kind=kind, experiment="solve", problem=problem, params=params)
        report = run(load_config(write(tmp_path, raw)), fixed_clock=True)
        assert {v.name: v.passed for v in report.verdicts} == {"solution-finite": True}, kind


@pytest.mark.parametrize("k", [1, 2])
def test_every_default_passes_its_check(tmp_path, k):
    # a config that writes no params or tolerances takes every default: each
    # passes its own check and the rules across keys (t_check <= t_len, spans
    # a multiple of stride), and resolves to the table's value
    for experiment, schema in SCHEMAS.items():
        kind = next(kind for kind, variants in EXPERIMENTS.items() if experiment in variants)
        obj = minimal(kind=kind, experiment=experiment)
        obj["problem"]["k"] = k
        if schema.eps_list:
            obj["eps_list"] = [0.4, 0.2, 0.1]
        if experiment == "synthetic-power-law":  # the only keys without a default
            obj["params"] = {"eps": [0.4, 0.2, 0.1], "distances": [0.3, 0.2, 0.15]}
        cfg = load_config(write(tmp_path, obj))
        assert_resolved(cfg)
        for section, keys in (("params", schema.params), ("tolerances", schema.tolerances)):
            for key, (_, default) in keys.items():
                got = getattr(cfg, section)[key]
                if callable(default):  # a profile
                    want = parse_profile(default(k), cfg.problem.grid(), k)
                    np.testing.assert_array_equal(got.values, want.values)
                elif key not in obj.get("params", {}):
                    assert got == default, (experiment, key)


def test_unknown_top_level_key(tmp_path):
    fails_with(tmp_path, minimal(epz_list=[0.5]), "epz_list: unknown key")


def test_missing_required_key(tmp_path):
    cfg = minimal()
    del cfg["problem"]
    fails_with(tmp_path, cfg, "problem: missing required key")


def test_version_gate(tmp_path):
    fails_with(tmp_path, minimal(version=2), "version: unsupported")


def test_unknown_kind_and_experiment_pairing(tmp_path):
    fails_with(tmp_path, minimal(kind="simulate"), "kind: unknown kind 'simulate'")
    fails_with(tmp_path, minimal(experiment="distance-sweep"), "experiment: kind 'equilibria'")


def test_eps_list_validation(tmp_path):
    modal = {"kind": "solve-elliptic", "experiment": "modal-decay"}
    fails_with(tmp_path, minimal(**modal, eps_list=[]), "eps_list: expected a nonempty list")
    fails_with(tmp_path, minimal(**modal, eps_list=[0.1, 0.2]), "strictly descending")
    fails_with(tmp_path, minimal(**modal, eps_list=[0.2, 0.2]), "strictly descending")
    fails_with(tmp_path, minimal(**modal, eps_list=[2.0, 0.5]),
               "eps_list[0]: exceeds the anisotropy cap 1.0")
    fails_with(tmp_path, minimal(**modal, eps_list=[0.2, -0.1]), "eps_list[1]: must be >= 0")
    fails_with(tmp_path, minimal(**modal, eps_list=[0.2, "x"]), "eps_list[1]: expected a number")
    # required by the experiments that read it, rejected by the others
    fails_with(tmp_path, minimal(**modal), "eps_list: missing required key")
    fails_with(tmp_path, minimal(eps_list=[0.5]), "eps_list: not used by experiment 'census'")
    # the trajectory rate fits a line through at least three points
    traj = minimal(kind="converge", experiment="trajectory-rate", eps_list=[0.4, 0.2])
    fails_with(tmp_path, traj, "eps_list: expected a list of at least 3 numbers")
    # the experiments that compare eps > 0 against the limit need every
    # entry > 0; modal-decay and solution-ratios run eps = 0 on purpose
    for kind, experiment in (
        ("converge", "trajectory-rate"), ("converge", "periodic-orbit"),
        ("attractor", "distance-sweep"), ("average", "attractor-mean"),
    ):
        zero = minimal(kind=kind, experiment=experiment, eps_list=[0.4, 0.2, 0.0])
        fails_with(tmp_path, zero, "eps_list[2]: must be > 0")
    ratios = {"kind": "regularity-probe", "experiment": "solution-ratios"}
    for base in (modal, ratios):
        cfg = load_config(write(tmp_path, minimal(**base, eps_list=[0.4, 0.2, 0.0])))
        assert cfg.eps_list == (0.4, 0.2, 0.0)
    assert load_config(write(tmp_path, minimal(**modal, eps_list=[1, 0.5]))).eps_list == (1.0, 0.5)


def test_problem_validation_paths(tmp_path):
    bad = minimal()
    bad["problem"]["n_interior"] = 1
    fails_with(tmp_path, bad, "problem.n_interior: must be >= 2")

    bad = minimal()
    bad["problem"]["length"] = True
    fails_with(tmp_path, bad, "problem.length: expected a number")

    bad = minimal()
    bad["problem"]["nonlinearity"] = {"id": "quartic"}
    fails_with(tmp_path, bad, "problem.nonlinearity.id: unknown nonlinearity 'quartic'")

    bad = minimal()
    bad["problem"]["nonlinearity"] = {"id": "cubic"}
    fails_with(tmp_path, bad, "problem.nonlinearity.lam: missing required key")

    bad = minimal()
    bad["problem"]["nonlinearity"] = {"id": "zero", "lam": 1.0}
    fails_with(tmp_path, bad, "zero nonlinearity takes no parameters")

    # the parameter of another nonlinearity is a stray key
    bad = minimal()
    bad["problem"]["nonlinearity"] = {"id": "cubic", "lam": 2, "c": 5}
    fails_with(tmp_path, bad, "problem.nonlinearity.c: unknown key")
    bad["problem"]["nonlinearity"] = {"id": "linear", "c": 1, "lam": 5}
    fails_with(tmp_path, bad, "problem.nonlinearity.lam: unknown key")

    # a may be asymmetric (only a + a^T is constrained), gamma may not
    ok = minimal()
    ok["problem"]["k"] = 2
    ok["problem"]["a"] = [[1.0, 0.5], [0.0, 1.0]]
    assert load_config(write(tmp_path, ok)).problem.k == 2

    bad = minimal()
    bad["problem"]["k"] = 2
    bad["problem"]["gamma"] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(ValidationError) as err:
        load_config(write(tmp_path, bad))
    assert str(err.value).startswith("problem: gamma must be symmetric")


def test_forcing_validation_paths(tmp_path):
    base = minimal()
    base["forcing"] = {"type": "oscillating"}
    fails_with(tmp_path, base, "forcing.type: unknown forcing type 'oscillating'")
    # an unhashable type or profile kind is a bad value too, not a TypeError
    base["forcing"] = {"type": ["constant"], "mean": {"kind": "zero"}}
    fails_with(tmp_path, base, "forcing.type: unknown forcing type ['constant']")
    base["forcing"] = {"type": "constant", "mean": {"kind": ["zero"]}}
    fails_with(tmp_path, base, "forcing.mean.kind: unknown profile kind ['zero']")

    base["forcing"] = {"type": "periodic", "mean": {"kind": "zero"}, "omega": 1.0}
    fails_with(tmp_path, base, "forcing.osc: missing required key")

    base["forcing"] = {
        "type": "periodic",
        "mean": {"kind": "zero"},
        "osc": {"kind": "sine", "coeffs": []},
        "omega": 1.0,
    }
    fails_with(tmp_path, base, "forcing.osc.coeffs: expected a nonempty list")

    base["forcing"] = {
        "type": "fast-scaled",
        "inner": {"type": "constant", "mean": {"kind": "zero", "value": 1}},
        "eps": 0.5,
    }
    fails_with(tmp_path, base, "forcing.inner.mean: zero profile takes no parameters")

    # the parameter of another profile kind is a stray key
    base["forcing"] = {"type": "constant", "mean": {"kind": "sine", "coeffs": [0.5], "value": 9}}
    fails_with(tmp_path, base, "forcing.mean.value: unknown key")
    base["forcing"] = {"type": "constant", "mean": {"kind": "uniform", "value": 0.5, "coeffs": [9]}}
    fails_with(tmp_path, base, "forcing.mean.coeffs: unknown key")

    base["forcing"] = {
        "type": "patchwork",
        "g1": {"type": "constant", "mean": {"kind": "zero"}},
        "g2": {"type": "wavelet"},
    }
    fails_with(tmp_path, base, "forcing.g2.type: unknown forcing type 'wavelet'")


def test_param_and_tolerance_keys_checked_per_experiment(tmp_path):
    fails_with(
        tmp_path,
        minimal(params={"radius": 0.25}),
        "params.radius: unknown key for experiment 'census'",
    )
    fails_with(
        tmp_path,
        minimal(tolerances={"final_dist": 0.1}),
        "tolerances.final_dist: unknown key for experiment 'census'",
    )
    # solution-ratios takes h from the forcing block, not from params
    fails_with(
        tmp_path,
        minimal(
            kind="regularity-probe",
            experiment="solution-ratios",
            params={"h_profile": {"kind": "zero"}},
        ),
        "params.h_profile: unknown key for experiment 'solution-ratios'",
    )
    cfg = load_config(write(tmp_path, minimal(params={"seed_count": 20})))
    assert cfg.params["seed_count"] == 20


def test_scalar_params_type_and_range(tmp_path):
    solve = {"kind": "solve-elliptic", "experiment": "solve"}
    traj = {"kind": "converge", "experiment": "trajectory-rate", "eps_list": [0.4, 0.2, 0.1]}
    for base, params, fragment in (
        (solve, {"m_steps": 1}, "params.m_steps: must be >= 2"),
        (solve, {"m_steps": 10.0}, "params.m_steps: expected an integer"),
        (solve, {"t_len": "two"}, "params.t_len: expected a number"),
        (solve, {"t_len": 0.0}, "params.t_len: must be > 0"),
        (solve, {"eps": -0.1}, "params.eps: must be >= 0"),
        (solve, {"eps": 2.0}, "params.eps: exceeds the anisotropy cap"),
        (traj, {"stride": 0.3}, "params.stride: must divide one time unit"),
        (traj, {"stride": True}, "params.stride: expected a number"),
        (traj, {"t_end": float("nan")}, "params.t_end: must be finite"),
        ({}, {"seed_count": 0}, "params.seed_count: must be >= 1"),
    ):
        fails_with(tmp_path, minimal(**base, params=params), fragment)
    ok = minimal(**traj, params={"stride": 0.125, "t_end": 3.0})
    assert load_config(write(tmp_path, ok)).params["stride"] == 0.125
    # the synthetic power law reads eps as a list, of at least three points
    # like its distances
    spl = minimal(
        kind="converge", experiment="synthetic-power-law",
        params={"eps": [0.4, 0.2, 0.1], "distances": [0.4, 0.3, 0.2]},
    )
    assert load_config(write(tmp_path, spl)).params["eps"] == [0.4, 0.2, 0.1]


def test_params_rules_across_keys(tmp_path, capsys):
    modal = {"kind": "solve-elliptic", "experiment": "modal-decay", "eps_list": [0.1]}
    traj = {"kind": "converge", "experiment": "trajectory-rate", "eps_list": [0.4, 0.2, 0.1]}
    sweep = {"kind": "attractor", "experiment": "distance-sweep", "eps_list": [0.1]}
    # quasiperiodic forcing has no period, so the track evolves t_track on
    # the fixed tracking stride
    sine = {"kind": "sine", "coeffs": [0.5]}
    orbit = {"kind": "converge", "experiment": "periodic-orbit", "eps_list": [0.2],
             "forcing": {"type": "quasiperiodic", "mean": sine, "osc1": sine, "omega1": 1.0,
                         "osc2": sine, "omega2": math.sqrt(2.0)}}
    periodic_orbit = {**orbit, "forcing": {"type": "periodic", "mean": sine, "osc": sine,
                                           "omega": 1.0}}
    lyap = {"kind": "solve-parabolic", "experiment": "lyapunov"}
    for base, params, fragment in (
        # t_check is read against the default t_len 2 when t_len is absent
        (modal, {"t_check": 5.0}, "params.t_check: must not exceed t_len 2"),
        (modal, {"t_len": 0.5}, "params.t_check: must not exceed t_len 0.5"),
        # t_end is read against the default stride 0.125 when stride is absent
        (traj, {"t_end": 2.1}, "params.t_end: must be a multiple of stride 0.125"),
        (traj, {"t_end": 2.1, "stride": 0.5}, "params.t_end: must be a multiple of stride 0.5"),
        (sweep, {"t_grow": 2.6}, "params.t_grow: must be a multiple of stride 0.25"),
        (orbit, {"t_track": 2.1},
         "params.t_track: must be a multiple of the tracking stride 0.25"),
        # the recurrence gap reads the slices one time unit before the end
        (orbit, {"t_track": 0.5},
         "params.t_track: must be at least 1 for forcing without a finite period"),
        (lyap, {"n_trajectories": 0}, "params.n_trajectories: must be >= 1"),
    ):
        fails_with(tmp_path, minimal(**base, params=params), fragment)
    for base, params, key in (
        (orbit, {"t_track": 2.1}, "params.t_track"),
        (orbit, {"t_track": 0.5}, "params.t_track"),
        (lyap, {"n_trajectories": 0}, "params.n_trajectories"),
    ):
        bad = minimal(**base, params=params)
        assert lab_main([bad["kind"], "--config", write(tmp_path, bad)]) == 2
        assert key in capsys.readouterr().err
    for base, params in (
        (modal, {"t_check": 2.0}),
        (modal, {"t_len": 5.0, "t_check": 4.5}),
        (traj, {"t_end": 2.125}),
        (sweep, {"t_grow": 2.5}),
        (orbit, {"t_track": 2.25}),
        (orbit, {"t_track": 1.0}),
        (periodic_orbit, {"t_track": 0.5}),  # a periodic track has no recurrence gap
        (lyap, {"n_trajectories": 1}),
    ):
        resolved = load_config(write(tmp_path, minimal(**base, params=params))).params
        assert {key: resolved[key] for key in params} == params
    # the shortest bounded track still reaches its recurrence gap
    report = run(load_config(write(tmp_path, minimal(**orbit, params={"t_track": 1.0}))),
                 fixed_clock=True)
    assert "completed" not in [v.name for v in report.verdicts]
    modes = [(row[2], row[4]) for row in report.tables[0].rows]
    assert modes and all(m == "bounded-tracking" and math.isfinite(r) for m, r in modes)


def test_energy_experiments_need_a_symmetric_a(tmp_path, capsys):
    # lyapunov and structure take the energy, which exists only for a
    # symmetric a; the census and the other experiments do not need it
    def coupled(a, **base):
        problem = {**minimal()["problem"], "k": 2, "a": a}
        return minimal(**base, problem=problem)

    lyap = {"kind": "solve-parabolic", "experiment": "lyapunov",
            "params": {"n_trajectories": 2, "t_end": 0.1}}
    structure = {"kind": "attractor", "experiment": "structure"}
    skew = [[1.0, 0.3], [0.0, 1.0]]
    for base in (lyap, structure):
        fails_with(tmp_path, coupled(skew, **base), "problem.a: must be symmetric")
        bad = coupled(skew, **base)
        assert lab_main([bad["kind"], "--config", write(tmp_path, bad)]) == 2
        assert "problem.a" in capsys.readouterr().err
        # the same 1e-12 test as lyapunov_value's: a symmetric coupled a
        # loads, and so does one within rounding of symmetric
        for a in ([[1.0, 0.3], [0.3, 1.0]], [[1.0, 0.3], [0.3 + 5e-13, 1.0]]):
            assert load_config(write(tmp_path, coupled(a, **base))).problem.k == 2
    np.testing.assert_array_equal(load_config(write(tmp_path, coupled(skew))).problem.a, skew)


def test_list_params_checked_at_load(tmp_path):
    frechet = {"kind": "solve-elliptic", "experiment": "frechet"}
    symbol = {"kind": "regularity-probe", "experiment": "symbol-bounds"}
    for base, params, fragment in (
        (frechet, {"deltas": [1e-3]}, "params.deltas: expected a list of at least 2 numbers"),
        (frechet, {"deltas": [1e-3, -1e-4]}, "params.deltas[1]: must be > 0"),
        ({}, {"sweep_lambda": []}, "params.sweep_lambda: expected a nonempty list of numbers"),
        ({}, {"sweep_lambda": [1.0, "two"]}, "params.sweep_lambda[1]: expected a number"),
        (symbol, {"pairs": []}, "params.pairs: expected a nonempty list of [alpha, beta] pairs"),
        (symbol, {"pairs": [[1.0, 0.0], [1.0]]}, "params.pairs[1]: expected an [alpha, beta] pair"),
        (symbol, {"pairs": [[0.0, 0.5]]}, "params.pairs[0][0]: must be > 0"),
        (symbol, {"pairs": [[1.0, "b"]]}, "params.pairs[0][1]: expected a number"),
        (symbol, {"eps_grid": "abc"}, "params.eps_grid: expected a nonempty list of numbers"),
        (symbol, {"eps_grid": [0.1, -0.1]}, "params.eps_grid[1]: must be >= 0"),
        (symbol, {"xi_range": [1.0]}, "params.xi_range: expected a list of at least 2 numbers"),
        (symbol, {"xi_range": [3.0, -2.0]}, "params.xi_range: expected [lo, hi] with lo < hi"),
        (symbol, {"xi_range": [-2.0, 1.0, 3.0]}, "params.xi_range: expected [lo, hi] with lo < hi"),
        (symbol, {"xi_range": [-2.0, float("inf")]}, "params.xi_range[1]: must be finite"),
    ):
        fails_with(tmp_path, minimal(**base, params=params), fragment)
    for base, params in (
        (frechet, {"deltas": [1e-3, 1e-4, 1e-5]}),
        ({}, {"sweep_lambda": [-1.0, 2.0]}),
        (symbol, {"pairs": [[0.5, -0.3]], "eps_grid": [0.0, 1.0], "xi_range": [-2, 3]}),
    ):
        resolved = load_config(write(tmp_path, minimal(**base, params=params))).params
        assert {key: resolved[key] for key in params} == params


def test_tolerances_checked_at_load(tmp_path):
    modal = {"kind": "solve-elliptic", "experiment": "modal-decay", "eps_list": [0.1]}
    sweep = {"params": {"sweep_lambda": [0.5, 2.0]}}
    for base, tolerances, fragment in (
        (modal, {"rel_err": "abc"}, "tolerances.rel_err: expected a number"),
        (modal, {"rel_err": 0.0}, "tolerances.rel_err: must be > 0"),
        (modal, {"rel_err": [0.01]}, "tolerances.rel_err: expected a number"),
        ({}, {"expected_counts": 3}, "tolerances.expected_counts: expected a nonempty list"),
        ({}, {"expected_counts": [1.5]}, "tolerances.expected_counts[0]: expected an integer"),
        ({}, {"expected_counts": [-1]}, "tolerances.expected_counts[0]: must be >= 0"),
        ({}, {"expected_indices": [0]}, "tolerances.expected_indices[0]: expected a list"),
        ({}, {"expected_indices": [[0, "1"]]}, "tolerances.expected_indices[0][1]: expected an"),
        # one entry per sweep cell: len(sweep_lambda), or the one cell without it
        ({}, {"expected_counts": [1, 3]}, "tolerances.expected_counts: expected one entry per"),
        (sweep, {"expected_counts": [1]}, "expected_counts: expected one entry per sweep cell (2)"),
        (sweep, {"expected_indices": [[0]]}, "tolerances.expected_indices: expected one entry"),
    ):
        fails_with(tmp_path, minimal(**base, tolerances=tolerances), fragment)
    ok = minimal(**sweep, tolerances={"expected_counts": [1, 3], "expected_indices": [[], [1, 0]]})
    assert load_config(write(tmp_path, ok)).tolerances["expected_indices"] == [[], [1, 0]]


def test_seed_out_dir_margin_rules(tmp_path, capsys):
    fails_with(tmp_path, minimal(seed=-1), "seed: must be >= 0")
    fails_with(tmp_path, minimal(seed=1.5), "seed: expected an integer")
    fails_with(tmp_path, minimal(out_dir=""), "out_dir: expected a nonempty string")
    # the solver sizes every far margin and the clouds keep every slice, so
    # neither margin nor discard is a config key
    sweep = {"kind": "attractor", "experiment": "distance-sweep", "eps_list": [0.1]}
    for obj, fragment in (
        (minimal(margin=1.0), "margin: unknown key"),
        (minimal(**sweep, margin=1.0), "margin: unknown key"),
        (minimal(**sweep, params={"discard": 0.0}),
         "params.discard: unknown key for experiment 'distance-sweep'"),
    ):
        fails_with(tmp_path, obj, fragment)
        assert lab_main([obj["kind"], "--config", write(tmp_path, obj)]) == 2
        assert fragment in capsys.readouterr().err


def test_parse_errors_carry_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "version": 1,,\n}\n')
    with pytest.raises(ParseError) as err:
        load_config(str(p))
    assert err.value.line == 2
    assert err.value.column is not None
    with pytest.raises(ParseError) as err:
        load_config(str(tmp_path / "missing.json"))
    assert "cannot read" in str(err.value)


def test_profile_builders(tmp_path):
    grid = SpatialGrid(math.pi, 8)
    f = parse_profile({"kind": "sine", "coeffs": [1.0, 0.5]}, grid, 1)
    expect = np.sin(grid.nodes) + 0.5 * np.sin(2 * grid.nodes)
    np.testing.assert_allclose(f.values[:, 0], expect, atol=1e-14)
    u = parse_profile({"kind": "uniform", "value": 3.0}, grid, 1)
    np.testing.assert_array_equal(u.values, np.full((8, 1), 3.0))
    z = parse_profile({"kind": "zero"}, grid, 1)
    assert not z.values.any()
    with pytest.raises(ValidationError):
        parse_profile({"kind": "sine", "coeffs": [1.0]}, grid, 2, "u0")
    g = parse_forcing(
        {"type": "fast-scaled", "inner": {"type": "constant", "mean": {"kind": "zero"}}, "eps": 0.25},
        grid, 1,
    )
    assert isinstance(g, Forcing) and g.period == 0.0
    # eps 0.25: a periodic inner forcing has its period scaled by a quarter
    inner = {
        "type": "periodic",
        "mean": {"kind": "zero"},
        "osc": {"kind": "sine", "coeffs": [1.0]},
        "omega": 1.0,
    }
    g = parse_forcing({"type": "fast-scaled", "inner": inner, "eps": 0.25}, grid, 1)
    assert g.period == 0.25 * 2.0 * math.pi
