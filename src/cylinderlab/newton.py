"""Damped Newton iteration shared by the space-time and time-stepping solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NewtonDiverged

# residual tolerance used by default
DEFAULT_TOL_NONLINEAR = 1e-8

# halvings of a step before the line search counts as stalled
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class NewtonOptions:
    tol_residual: float = DEFAULT_TOL_NONLINEAR
    max_iters: int = 25

    def __post_init__(self):
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def damped_newton(x0, residual, solve_step, opts: NewtonOptions, batch: bool = False):
    """Run Newton with halving line search on the sup-norm of the residual.

    residual(x) -> array, solve_step(x, r) -> dx solving J(x) dx = -r.
    Returns (x, trace); raises NewtonDiverged with the residual trace.

    With batch=True, axis 0 of x indexes independent members that share one
    loop: each member has its own sup norm, line-search factor and
    convergence test, and iterates exactly as it would alone.  residual and
    solve_step then act on the whole stack; members that have converged or
    accepted their step are passed through unchanged.  The trace is one
    array of member norms per iteration, and a failing member raises with
    its own trace.
    """
    if batch:
        return _newton_members(x0, residual, solve_step, opts)
    x, history = _newton_members(
        np.asarray(x0, dtype=float)[None],
        lambda xs: residual(xs[0])[None],
        lambda xs, rs: solve_step(xs[0], rs[0])[None],
        opts,
    )
    return x[0], [float(rn[0]) for rn in history]


def _sup_norms(r: np.ndarray) -> np.ndarray:
    return np.abs(r).reshape(r.shape[0], -1).max(axis=1, initial=0.0)


def _newton_members(x0, residual, solve_step, opts: NewtonOptions):
    x = np.array(x0, dtype=float, copy=True)
    lead = (slice(None),) + (None,) * (x.ndim - 1)  # broadcasts a per-member value
    r = residual(x)
    rn = _sup_norms(r)
    history = [rn]

    def diverged(member, why):
        trace = [float(h[member]) for h in history]
        who = f"member {member}: " if x.shape[0] > 1 else ""
        # the tolerance is named: one below the residual's rounding floor
        # shows as a stall just above it
        return NewtonDiverged(
            f"{who}{why} {trace[-1]:.3e} (tolerance {opts.tol_residual:g})", trace
        )

    for _ in range(opts.max_iters):
        searching = ~(rn <= opts.tol_residual)
        if not searching.any():
            return x, history
        dx = solve_step(x, r)
        lam = np.ones(x.shape[0])
        for h in range(_MAX_HALVINGS + 1):
            trial = x + lam[lead] * dx if h else x + dx
            if not searching.all():
                trial = np.where(searching[lead], trial, x)
            r_trial = residual(trial)
            rn_trial = _sup_norms(r_trial)
            ok = searching & np.isfinite(rn_trial) & (rn_trial < rn)
            # accepted members take their step; the others keep searching
            if ok.all():
                x, r, rn = trial, r_trial, rn_trial
            elif ok.any():
                x = np.where(ok[lead], trial, x)
                r = np.where(ok[lead], r_trial, r)
                rn = np.where(ok, rn_trial, rn)
            searching = searching & ~ok
            if not searching.any():
                break
            lam[searching] *= 0.5
        else:
            raise diverged(int(np.argmax(searching)), "line search stalled at residual")
        history.append(rn)
    failing = ~(rn <= opts.tol_residual)
    if failing.any():
        raise diverged(
            int(np.argmax(failing)), f"no convergence in {opts.max_iters} iterations, residual"
        )
    return x, history
