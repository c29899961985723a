"""Span tracing of cylinderlab from outside the package.

Hooks replace, at run time, the functions and library calls each layer
uses (and every alias other cylinderlab modules imported them under) with
wrappers that record one span per call: name, parent span, start and end.
Spans stay in per-thread memory buffers until the traced run ends.  A hook
whose target no longer exists is reported as missing and its metrics are
left out; it never fails the run.

Layers are the package modules: runner, elliptic, newton, parabolic, model,
forcing, dynamics.  A span's layer is the first component of its name.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

PACKAGE = "cylinderlab"
LAYERS = ("runner", "elliptic", "newton", "parabolic", "model", "forcing", "dynamics")


@dataclass(frozen=True)
class Hook:
    span: str  # span name; per-caller hooks append the calling module
    module: str
    attr: str  # dotted path inside the module, e.g. "_SpaceTimeSystem.residual"
    kind: str = "plain"  # plain | pmap | splu | newton | krylov
    per_caller: bool = False
    tally: tuple | None = None  # (counter name, fn(result) -> int) for plain hooks


def _size(out):
    return int(out.values.size)


def _steps(out):
    return int(out.times.shape[0]) - 1


def _pairs(out):
    return int(out.size)


HOOKS = (
    Hook("runner.run", "cylinderlab.runner", "run"),
    Hook("runner.pmap", "cylinderlab.runner", "_pmap", kind="pmap"),
    Hook(
        "elliptic.solve", "cylinderlab.elliptic", "solve_truncated_bvp",
        tally=("elliptic.unknowns", _size),
    ),
    Hook("elliptic.assemble", "cylinderlab.elliptic", "_SpaceTimeSystem.__init__"),
    Hook("elliptic.residual", "cylinderlab.elliptic", "_SpaceTimeSystem.residual"),
    Hook("elliptic.factor", "cylinderlab.elliptic", "splu", kind="splu"),
    Hook("newton", "cylinderlab.newton", "damped_newton", kind="newton", per_caller=True),
    Hook(
        "parabolic.evolve", "cylinderlab.parabolic", "semigroup_evolve",
        tally=("parabolic.steps", _steps),
    ),
    Hook("parabolic.residual", "cylinderlab.parabolic", "_BandedStepper.residual"),
    Hook("parabolic.banded_solve", "cylinderlab.parabolic", "solve_banded"),
    Hook("parabolic.lyapunov", "cylinderlab.parabolic", "lyapunov_value"),
    Hook("model.laplacian", "cylinderlab.model", "laplacian"),
    Hook("forcing.eval", "cylinderlab.forcing", "eval_forcing"),
    Hook(
        "dynamics.equilibria", "cylinderlab.dynamics", "find_equilibria",
        tally=("dynamics.equilibria_found", len),
    ),
    Hook("dynamics.eig", "scipy.linalg", "eig"),
    Hook(
        "dynamics.sample", "cylinderlab.dynamics", "sample_attractor",
        tally=("dynamics.cloud_points", len),
    ),
    Hook("dynamics.cdist", "cylinderlab.dynamics", "cdist", tally=("dynamics.cdist_pairs", _pairs)),
    Hook("dynamics.fixed_point", "cylinderlab.dynamics", "newton_krylov", kind="krylov"),
)

class _ThreadState:
    """Span stack and span buffer of one thread."""

    def __init__(self):
        self.stack = []  # (span id, name id) of open spans
        self.root = 0  # parent for spans opened with an empty stack
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = Counter()


class Tracer:
    """Installs the hooks, records spans and counters, restores on close."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.installed: list[str] = []  # span names of hooks whose target exists
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _call(self, nid, fn, args, kwargs):
        """Run fn inside a span; a direct recursive call records no new span."""
        st = self._state()
        stack = st.stack
        if stack and stack[-1][1] == nid:
            return st, fn(*args, **kwargs)
        sid = self._next_id()
        parent = stack[-1][0] if stack else st.root
        stack.append((sid, nid))
        t0 = time.perf_counter()
        try:
            return st, fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            st.ids.append(sid)
            st.parents.append(parent)
            st.names.append(nid)
            st.t0.append(t0)
            st.t1.append(t1)

    def clear(self):
        """Drop recorded spans and counters; call with no span open."""
        with self._lock:
            self._local = threading.local()
            self._states = []

    # -- hook installation ---------------------------------------------

    def install(self):
        self.installed, self.missing = [], []
        for hook in HOOKS:
            target = _resolve(hook.module, hook.attr)
            if target is None:
                self.missing.append(hook.span)
                continue
            owner, attr, original = target
            sites = [] if hook.per_caller else [(owner, attr, hook.span)]
            if not isinstance(owner, type):  # a method is reached through its class only
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith(PACKAGE + "."):
                        continue
                    caller = mod_name.rsplit(".", 1)[-1]
                    span = f"{hook.span}.{caller}" if hook.per_caller else hook.span
                    sites += [(mod, name, span) for name, value in vars(mod).items()
                              if value is original]
            for obj, name, span in sites:
                self._patches.append((obj, name, original))
                setattr(obj, name, self._wrap(hook.kind, span, original, hook.tally))
            self.installed.append(hook.span)

    def close(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def _wrap(self, kind, span, fn, tally=None):
        nid = self.name_id(span)
        call = self._call
        tracer = self

        if kind == "plain":
            def wrapper(*args, **kwargs):
                st, out = call(nid, fn, args, kwargs)
                if tally:
                    st.counts[tally[0]] += tally[1](out)
                return out

        elif kind == "pmap":
            def wrapper(cell, arg_rows):
                arg_rows = list(arg_rows)

                def run_pmap(cell, rows):
                    parent = tracer._state().stack[-1][0]

                    def traced_cell(*args):
                        st = tracer._state()
                        saved, st.root = st.root, parent
                        try:
                            return cell(*args)
                        finally:
                            st.root = saved

                    return fn(traced_cell, rows)

                st, out = call(nid, run_pmap, (cell, arg_rows), {})
                st.counts["runner.cells"] += len(arg_rows)
                return out

        elif kind == "splu":
            solve_nid = self.name_id("elliptic.trisolve")

            def wrapper(*args, **kwargs):
                st, lu = call(nid, fn, args, kwargs)
                st.counts["elliptic.factor_nnz"] += int(lu.nnz)
                return _TimedLU(lu, call, solve_nid)

        elif kind == "newton":
            def wrapper(x0, residual, *args, **kwargs):
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return residual(x)

                st = tracer._state()
                try:
                    _, out = call(nid, fn, (x0, counted) + args, kwargs)
                except Exception as exc:
                    trace = getattr(exc, "trace", None)
                    _count_newton(st.counts, span, trace, evals[0], diverged=True)
                    raise
                _count_newton(st.counts, span, out[1], evals[0], diverged=False)
                return out

        elif kind == "krylov":
            def wrapper(F, *args, **kwargs):
                st = tracer._state()

                def counted(x):
                    st.counts["dynamics.period_map_evals"] += 1
                    return F(x)

                return call(nid, fn, (counted,) + args, kwargs)[1]

        else:
            raise ValueError(f"unknown hook kind {kind!r}")
        return wrapper

    # -- results ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as columns sorted by span id."""
        with self._lock:
            states = list(self._states)
        cols = {
            key: np.concatenate(
                [np.array(getattr(st, key), dtype=dtype) for st in states]
                or [np.zeros(0, dtype=dtype)]
            )
            for key, dtype in (
                ("ids", np.int64), ("parents", np.int64), ("names", np.int64),
                ("t0", np.float64), ("t1", np.float64),
            )
        }
        order = np.argsort(cols["ids"], kind="stable")
        return {key: col[order] for key, col in cols.items()}

    def counters(self) -> Counter:
        total = Counter()
        with self._lock:
            for st in self._states:
                total.update(st.counts)
        return total


class _TimedLU:
    """SuperLU proxy whose solve() is recorded as a triangular-solve span."""

    def __init__(self, lu, call, nid):
        self._lu, self._call, self._nid = lu, call, nid

    def solve(self, *args, **kwargs):
        return self._call(self._nid, self._lu.solve, args, kwargs)[1]

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _count_newton(counts, span, trace, evals, diverged):
    iters = max(0, len(trace) - 1) if trace else 0
    counts[f"{span}.iterations"] += iters
    counts[f"{span}.halvings"] += max(0, evals - 1 - iters)
    counts[f"{span}.diverged"] += int(diverged)


def _resolve(module: str, attr: str):
    """(owner, attribute name, current value), or None when it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None or not callable(value):
        return None
    return owner, parts[-1], value
