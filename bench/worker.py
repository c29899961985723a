"""One benchmark process: import cylinderlab, load a config, run it.

    python3 bench/worker.py setup  --config CFG
    python3 bench/worker.py time   --config CFG --seconds S --reference REF
    python3 bench/worker.py trace  --config CFG --reference REF --spans OUT
    python3 bench/worker.py record --config CFG --reference REF

Prints one JSON object as its last line of output.  The first thing it
prints in every mode is the monotonic clock reading taken right after the
imports and load_config, so the parent measures set-up time from the moment
it started this process.  The cylinderlab sources are found through
PYTHONPATH, which the parent sets.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import cylinderlab.cli  # noqa: F401  (what the lab command imports)
from cylinderlab import runner
from cylinderlab.config import load_config

# Tables must match the reference to |a - b| <= TOL * (1 + |b|).  The
# loosest solver tolerance these workloads use is the 1e-6 defect limit of
# the period-map fixed point (Newton solves stop at 1e-8 residual); TOL
# leaves a factor 10 above it for solvers that stop at a different iterate.
TOL = 1e-5


def _check(report: dict, reference: dict) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, problems) for one report.

    Each verdict is one check.  At the seed the reference was recorded at,
    the list of verdict names is one more check and each table one more.
    """
    problems = [
        f"verdict {v['name']} failed: {v['detail']}" for v in report["verdicts"] if not v["pass"]
    ]
    attempted = len(report["verdicts"])
    if report["experiment"]["seed"] == reference["seed"]:
        names = [v["name"] for v in report["verdicts"]]
        if names != reference["verdicts"]:
            problems.append(f"verdicts {names} differ from the reference {reference['verdicts']}")
        tables = {t["name"]: t for t in report["tables"]}
        for ref in reference["tables"]:
            msg = _table_mismatch(tables.get(ref["name"]), ref)
            if msg:
                problems.append(f"table {ref['name']}: {msg}")
        attempted += 1 + len(reference["tables"])
    return attempted, len(problems), problems


def _table_mismatch(table, ref) -> str | None:
    if table is None:
        return "missing"
    if table["columns"] != ref["columns"]:
        return f"columns {table['columns']} != {ref['columns']}"
    if len(table["rows"]) != len(ref["rows"]):
        return f"{len(table['rows'])} rows != {len(ref['rows'])}"
    cells = list(zip(sum(table["rows"], []), sum(ref["rows"], [])))
    cells += [(table.get("fit", {}).get(k), v) for k, v in ref.get("fit", {}).items()]
    for got, want in cells:
        if isinstance(want, float) and isinstance(got, (int, float)):
            if not abs(got - want) <= TOL * (1.0 + abs(want)):
                return f"{got!r} vs reference {want!r}"
        elif got != want:
            return f"{got!r} vs reference {want!r}"
    return None


def _run_once(config, reference):
    """(wall seconds, checks attempted, checks failed, problems) of one run.

    A run that raises fails every check it would have made.
    """
    start = time.perf_counter()
    try:
        report = runner.run(config).to_dict()
    except Exception as exc:  # noqa: BLE001  (any library failure is a failed run)
        wall = time.perf_counter() - start
        n = len(reference["verdicts"])
        if config.seed == reference["seed"]:
            n += 1 + len(reference["tables"])
        return wall, n, n, [f"run raised {type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start
    return (wall, *_check(report, reference))


def _machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the record is informative; never fail the run on it
        blas = f"unknown ({type(exc).__name__})"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "LAB_THREADS": os.environ.get("LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": os.getloadavg(),
    }


def _mode_time(config, reference, seconds):
    walls, attempted, failed, problems = [], 0, 0, []
    start = time.perf_counter()
    while True:
        wall, a, f, p = _run_once(config, reference)
        walls.append(wall)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        if a == f and any(msg.startswith("run raised") for msg in p):
            break  # repeating a raising run measures nothing more
        # stop when one more run would end nearer past the budget than this one ends before it
        if time.perf_counter() - start + statistics.median(walls) / 2 >= seconds:
            break
    return {
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }


def _traced_run(tracer, config, reference):
    """One run with the hooks installed: (wall, checks, spans, SpanStats)."""
    from layers import SpanStats

    tracer.install()
    try:
        cpu0 = time.process_time()
        wall, *checks = _run_once(config, reference)
        counters = tracer.counters()
        counters["runner.cpu_s"] = time.process_time() - cpu0
    finally:
        tracer.close()
    spans = tracer.spans()
    stats = SpanStats(spans, list(tracer.names), counters)
    tracer.clear()
    return wall, checks, spans, stats


def _mode_trace(config, reference, spans_path):
    import numpy as np
    from layers import layer_metrics
    from tracer import Tracer

    # traced, untraced, traced: the untraced run and the second traced run
    # both follow a complete run, so first-call costs stay out of the overhead
    tracer = Tracer()
    _, checks_a, _, stats_a = _traced_run(tracer, config, reference)
    untraced_wall, *checks_u = _run_once(config, reference)
    wall, checks_b, spans, stats = _traced_run(tracer, config, reference)
    attempted = checks_a[0] + checks_u[0] + checks_b[0]
    failed = checks_a[1] + checks_u[1] + checks_b[1]
    problems = checks_a[2] + checks_u[2] + checks_b[2]

    first = layer_metrics(stats_a, tracer.installed)
    metrics = layer_metrics(stats, tracer.installed)
    varying = {
        name: [first[name]["value"], m["value"]]
        for name, m in metrics.items()
        if m["unit"] in ("count", "ratio") and first.get(name, m)["value"] != m["value"]
    }
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - untraced_wall, "unit": "s"}
    metrics["trace.self_share"] = {"value": sum(stats.layer_self.values()) / wall, "unit": "ratio"}
    metrics["trace.varying_counts"] = {"value": float(len(varying)), "unit": "count"}
    metrics["trace.spans"] = {"value": float(spans["ids"].size), "unit": "count"}
    np.savez_compressed(spans_path, span_names=np.array(tracer.names), **spans)
    ranking = sorted(stats.ranking.items(), key=lambda kv: -kv[1])
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "untraced_wall_s": untraced_wall,
        "varying_counts": varying,
        "missing_hooks": tracer.missing,
        "ranking": [[name, round(value, 4)] for name, value in ranking[:8]],
        "factor_then_cloud": [r[0] for r in ranking[:2]] == ["elliptic.factor", "eps0_cloud"],
        "machine": _machine(),
    }


def _mode_record(config, path):
    report = runner.run(config).to_dict()
    failing = [v["name"] for v in report["verdicts"] if not v["pass"]]
    if failing:
        raise SystemExit(f"not recording a reference with failing verdicts: {failing}")
    ref = {
        "seed": config.seed,
        "verdicts": [v["name"] for v in report["verdicts"]],
        "tables": report["tables"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"recorded": path}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "time", "trace", "record"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    config = load_config(args.config)
    print(json.dumps({"ready": time.perf_counter()}), flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "record":
        result = _mode_record(config, args.reference)
    else:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)
        if args.mode == "time":
            result = _mode_time(config, reference, args.seconds)
        else:
            result = _mode_trace(config, reference, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
