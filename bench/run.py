"""cylinderlab benchmark: generated configs through runner.run, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --record-reference

Run from the repository root.  The seed makes the generated config: the
config's own seed, plus a small seeded perturbation of the forcing profile
in higher sine modes where the config has a forcing.  The library sees only
the config file.

--trace 0 measures with no instrumentation: set-up time (median of several
fresh processes that import the package and load the config), then one
worker process that runs the config repeatedly for --seconds and reports
the median wall time and its peak resident memory.

--trace 1 runs the config traced, untraced and traced again in one worker
(see tracer.py) and reports per-layer metrics, the tracing overhead, and
which trace counts differ between the two traced runs.

Every run checks every verdict; at the default seed it also compares every
report table with the reference recorded in bench/reference/.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
Details (machine record, samples, failed checks) are printed on the line
before it and kept in .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 4  # fresh set-up processes per run, besides the worker itself
DEADLINE_S = 170.0

_PROBLEM = {"length": math.pi, "n_interior": 64, "nonlinearity": {"id": "cubic", "lam": 2.0}}
_PERIODIC = {
    "type": "periodic",
    "mean": {"kind": "sine", "coeffs": [0.0]},
    "osc": {"kind": "sine", "coeffs": [0.5]},
    "omega": 1.0,
}

# Why each workload: attractor-sweep is what users wait on (SuperLU
# factorizations plus the eps = 0 backward-Euler reference cloud);
# lyapunov-ensemble is parabolic only and leaves the elliptic solver idle;
# periodic-track uses the elliptic solver as many warm-started solves on one
# grid and is the only one where the thread pool pays off.
WORKLOADS = {
    "attractor-sweep": {
        "threads": 1,
        "config": {
            "kind": "attractor",
            "experiment": "distance-sweep",
            "forcing": _PERIODIC,
            "eps_list": [0.2, 0.1, 0.05],
            "params": {"radius": 0.25, "n_rays": 4, "t_grow": 3.0},
            "tolerances": {"final_dist": 0.05},
        },
    },
    "lyapunov-ensemble": {
        "threads": 1,
        "config": {
            "kind": "solve-parabolic",
            "experiment": "lyapunov",
            "params": {"n_trajectories": 5, "t_end": 2.0, "dt": 0.001, "amplitude": 1.0},
            "tolerances": {"max_increase": 1e-8},
        },
    },
    "periodic-track": {
        "threads": 2,
        "config": {
            "kind": "converge",
            "experiment": "periodic-orbit",
            "forcing": _PERIODIC,
            "eps_list": [0.2, 0.1, 0.05, 0.025],
            "params": {"t_track": 40.0},
            "tolerances": {"residual_max": 1e-6},
        },
    },
}

# higher sine modes of the forcing perturbation and its size per mode
PERTURBED_MODES = (3, 4, 5, 6)
PERTURBATION = 0.02


def generated_config(workload: str, seed: int) -> dict:
    """The config a seed gives: same seed in, same config out."""
    spec = json.loads(json.dumps(WORKLOADS[workload]["config"]))
    config = {"version": 1, "problem": dict(_PROBLEM), **spec, "seed": seed}
    if "forcing" in config:
        rng = random.Random(seed)
        osc = config["forcing"]["osc"]["coeffs"]
        osc += [0.0] * (max(PERTURBED_MODES) - len(osc))
        for mode in PERTURBED_MODES:
            osc[mode - 1] += PERTURBATION * rng.gauss(0.0, 1.0) / mode
    return config


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run a worker to its end: (its set-up seconds, its result line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[0])["ready"] - start, json.loads(lines[-1])


def _env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["LAB_THREADS"] = str(threads)
    return env


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result, details) of one benchmark run."""
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cylinderlab" / "__init__.py").is_file():
        raise BenchError(f"no cylinderlab sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}"
    cfg_path = OUT / f"{stem}.json"
    cfg_path.write_text(json.dumps(generated_config(workload, seed), indent=1))
    env = _env(WORKLOADS[workload]["threads"])
    common = ["--config", str(cfg_path), "--reference", str(HERE / "reference" / f"{workload}.json")]

    if trace:
        spans = OUT / f"{stem}-spans.npz"
        _, res = _worker(["trace", *common, "--spans", str(spans)], env, deadline)
        metrics = res.pop("metrics")
        details = {**res, "spans_file": str(spans.relative_to(ROOT))}
    else:
        setups = [_worker(["setup", "--config", str(cfg_path)], env, deadline)[0]
                  for _ in range(SETUP_PROBES)]
        setup, res = _worker(["time", *common, "--seconds", str(seconds)], env, deadline)
        setups.append(setup)
        metrics = {
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        details = {**res, "setup_samples": setups}
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    details = {"workload": workload, "seed": seed, "trace": int(trace), **details}
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1)
    )
    return result, details


def record_reference(workload: str) -> None:
    OUT.mkdir(exist_ok=True)
    cfg_path = OUT / f"{workload}-seed{DEFAULT_SEED}.json"
    cfg_path.write_text(json.dumps(generated_config(workload, DEFAULT_SEED), indent=1))
    ref = HERE / "reference" / f"{workload}.json"
    ref.parent.mkdir(exist_ok=True)
    env = _env(WORKLOADS[workload]["threads"])
    _worker(["record", "--config", str(cfg_path), "--reference", str(ref)], env,
            time.monotonic() + 600.0)
    print(f"recorded {ref.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"record the reference tables at seed {DEFAULT_SEED}")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.record_reference:
            record_reference(args.workload)
            return 0
        result, details = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
