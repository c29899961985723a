"""Per-layer metrics computed from the spans and counters of a traced run.

Self time of a span is its duration minus the part of that interval its
child spans cover (children of a thread-pool span run in other threads and
may overlap; their union is subtracted).  A metric whose hook target is
missing from the program is left out of the result.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from tracer import LAYERS

NEWTON_CALLERS = ("elliptic", "parabolic", "dynamics")


class SpanStats:
    """Counts, inclusive times and self times of a span set, by span name."""

    def __init__(self, spans: dict, names: list[str], counters: Counter):
        self.counters = counters
        ids, parents, nm = spans["ids"], spans["parents"], spans["names"]
        dur = spans["t1"] - spans["t0"]
        self_time = dur - _child_cover(spans)
        in_cloud = _in_cloud(ids, parents, nm, names)
        self.count, self.total, self.self_time = Counter(), Counter(), Counter()
        self.layer_self = Counter()
        self.ranking = Counter()  # self times, with the eps = 0 cloud as one entry
        for nid, name in enumerate(names):
            sel = nm == nid
            self.count[name] = int(np.count_nonzero(sel))
            self.total[name] = float(dur[sel].sum())
            self.self_time[name] = float(self_time[sel].sum())
            self.layer_self[name.split(".", 1)[0]] += self.self_time[name]
            self.ranking[name] = float(self_time[sel & ~in_cloud].sum())
        self.cloud_s = float(self_time[in_cloud].sum())
        self.ranking["eps0_cloud"] = self.cloud_s


def _child_cover(spans: dict) -> np.ndarray:
    """Length of each span's interval covered by the union of its children."""
    ids, parents, t0, t1 = spans["ids"], spans["parents"], spans["t0"], spans["t1"]
    cover = {}
    cur, lo, hi = None, 0.0, 0.0
    for i in np.lexsort((t0, parents)).tolist():
        p, a, b = int(parents[i]), float(t0[i]), float(t1[i])
        if p != cur or a > hi:
            if cur is not None:
                cover[cur] = cover.get(cur, 0.0) + (hi - lo)
            cur, lo, hi = p, a, b
        elif b > hi:
            hi = b
    if cur is not None:
        cover[cur] = cover.get(cur, 0.0) + (hi - lo)
    return np.array([cover.get(s, 0.0) for s in ids.tolist()])


def _in_cloud(ids, parents, nm, names) -> np.ndarray:
    """Spans inside an eps = 0 evolution sampled into an attractor cloud.

    Those are parabolic.evolve spans below a dynamics.sample span but not
    below an elliptic solve, and everything below them.  Span ids grow in
    start order, so a parent is always visited before its children.
    """
    def nid(name):
        return names.index(name) if name in names else -1

    sample, evolve, solve = nid("dynamics.sample"), nid("parabolic.evolve"), nid("elliptic.solve")
    state = {}  # span id -> 0 outside, 1 below a sample, 2 in a cloud evolution
    flags = np.zeros(ids.size, dtype=bool)
    for k, (sid, parent, name) in enumerate(zip(ids.tolist(), parents.tolist(), nm.tolist())):
        s = state.get(parent, 0)
        if name == solve and s < 2:
            s = 0
        elif name == sample and s == 0:
            s = 1
        elif name == evolve and s == 1:
            s = 2
        state[sid] = s
        flags[k] = s == 2
    return flags


def _count(span):
    return lambda s: s.count[span]


def _total(span):
    return lambda s: s.total[span]


def _counter(key):
    return lambda s: s.counters[key]


def _per_solve(s):
    solves = s.count["elliptic.solve"]
    return s.count["elliptic.factor"] / solves if solves else 0.0


C, S, LO, HI = "count", "s", "lower", "higher"

# (metric, unit, better, hooks the metric needs, value from SpanStats)
METRICS = [
    ("runner.cells", C, HI, ("runner.pmap",), _counter("runner.cells")),
    ("runner.pmap_s", S, LO, ("runner.pmap",), _total("runner.pmap")),
    ("runner.cpu_s", S, LO, ("runner.run",), _counter("runner.cpu_s")),
    ("elliptic.solves", C, LO, ("elliptic.solve",), _count("elliptic.solve")),
    ("elliptic.solve_s", S, LO, ("elliptic.solve",), _total("elliptic.solve")),
    ("elliptic.unknowns", C, LO, ("elliptic.solve",), _counter("elliptic.unknowns")),
    ("elliptic.assemble_calls", C, LO, ("elliptic.assemble",), _count("elliptic.assemble")),
    ("elliptic.assemble_s", S, LO, ("elliptic.assemble",), _total("elliptic.assemble")),
    ("elliptic.factorizations", C, LO, ("elliptic.factor",), _count("elliptic.factor")),
    ("elliptic.factor_s", S, LO, ("elliptic.factor",), _total("elliptic.factor")),
    ("elliptic.factor_nnz", C, LO, ("elliptic.factor",), _counter("elliptic.factor_nnz")),
    ("elliptic.trisolves", C, LO, ("elliptic.factor",), _count("elliptic.trisolve")),
    ("elliptic.trisolve_s", S, LO, ("elliptic.factor",), _total("elliptic.trisolve")),
    ("elliptic.residual_evals", C, LO, ("elliptic.residual",), _count("elliptic.residual")),
    ("elliptic.residual_s", S, LO, ("elliptic.residual",), _total("elliptic.residual")),
    ("elliptic.factorizations_per_solve", "ratio", LO,
     ("elliptic.factor", "elliptic.solve"), _per_solve),
    *[
        (f"newton.{caller}.{what}", C, LO, ("newton",),
         _count(f"newton.{caller}") if what == "calls" else _counter(f"newton.{caller}.{what}"))
        for caller in NEWTON_CALLERS
        for what in ("calls", "iterations", "halvings", "diverged")
    ],
    ("parabolic.evolves", C, LO, ("parabolic.evolve",), _count("parabolic.evolve")),
    ("parabolic.evolve_s", S, LO, ("parabolic.evolve",), _total("parabolic.evolve")),
    ("parabolic.steps", C, LO, ("parabolic.evolve",), _counter("parabolic.steps")),
    ("parabolic.cloud_s", S, LO, ("parabolic.evolve", "dynamics.sample"), lambda s: s.cloud_s),
    ("parabolic.residual_evals", C, LO, ("parabolic.residual",), _count("parabolic.residual")),
    ("parabolic.residual_s", S, LO, ("parabolic.residual",), _total("parabolic.residual")),
    ("parabolic.banded_solves", C, LO, ("parabolic.banded_solve",),
     _count("parabolic.banded_solve")),
    ("parabolic.banded_solve_s", S, LO, ("parabolic.banded_solve",),
     _total("parabolic.banded_solve")),
    ("parabolic.lyapunov_calls", C, LO, ("parabolic.lyapunov",), _count("parabolic.lyapunov")),
    ("parabolic.lyapunov_s", S, LO, ("parabolic.lyapunov",), _total("parabolic.lyapunov")),
    ("model.laplacian_calls", C, LO, ("model.laplacian",), _count("model.laplacian")),
    ("model.laplacian_s", S, LO, ("model.laplacian",), _total("model.laplacian")),
    ("forcing.evals", C, LO, ("forcing.eval",), _count("forcing.eval")),
    ("forcing.eval_s", S, LO, ("forcing.eval",), _total("forcing.eval")),
    ("dynamics.equilibria_s", S, LO, ("dynamics.equilibria",), _total("dynamics.equilibria")),
    ("dynamics.equilibria_found", C, HI, ("dynamics.equilibria",),
     _counter("dynamics.equilibria_found")),
    ("dynamics.eigensolves", C, LO, ("dynamics.eig",), _count("dynamics.eig")),
    ("dynamics.eig_s", S, LO, ("dynamics.eig",), _total("dynamics.eig")),
    ("dynamics.sample_s", S, LO, ("dynamics.sample",), _total("dynamics.sample")),
    ("dynamics.cloud_points", C, HI, ("dynamics.sample",), _counter("dynamics.cloud_points")),
    ("dynamics.cdist_s", S, LO, ("dynamics.cdist",), _total("dynamics.cdist")),
    ("dynamics.cdist_pairs", C, LO, ("dynamics.cdist",), _counter("dynamics.cdist_pairs")),
    ("dynamics.period_map_evals", C, LO, ("dynamics.fixed_point",),
     _counter("dynamics.period_map_evals")),
    ("dynamics.fixed_point_s", S, LO, ("dynamics.fixed_point",), _total("dynamics.fixed_point")),
    *[(f"self.{layer}_s", S, LO, (), (lambda n: lambda s: s.layer_self[n])(layer))
      for layer in LAYERS],
]


def layer_metrics(stats: SpanStats, installed: list[str]) -> dict:
    """{metric: {"value", "unit"}} for every metric whose hooks are installed."""
    out = {}
    for name, unit, _better, hooks, fn in METRICS:
        if all(h in installed for h in hooks):
            out[name] = {"value": float(fn(stats)), "unit": unit}
    return out
