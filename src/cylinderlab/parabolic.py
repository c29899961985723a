"""Limit parabolic reaction-diffusion dynamics.

Integrates gamma u_t = a u_xx - f(u) + g(t) with backward Euler; the
time-dependent forcing is sampled at the right endpoint of each step.
Each step's Newton solve starts from the linear extrapolation
2 u_j - u_{j-1} of the last two states (the first step from u_0), which
is O(dt^2) off the new state, so one iteration per step is usually enough.
A state whose start already met the tolerance is at rest, and its next
step starts from the state itself, so a settled state stays put instead
of drifting along its last move.
An ensemble of initial states steps together, with one linear solve per
Newton iteration for all of its members: a LAPACK tridiagonal solve (gtsv)
for scalar problems (k = 1), a banded solve for coupled ones (k > 1).
Each member extrapolates from its own history only.
The implicit step is the gradient flow of the discrete energy behind
lyapunov_value, so for autonomous forcing the energy is non-increasing
whenever dt <= 2 lambda_min(gamma) / k_mono, up to the Newton residual
tolerance: each step is solved to that tolerance, not exactly, and where
in the tolerance ball it lands depends on the Newton start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs, solve_banded

from .errors import AsymmetricA, DegenerateData, MissingPotential, ShapeMismatch
from .forcing import Forcing
from .model import (
    CouplingMatrices,
    Ensemble,
    Field,
    Nonlinearity,
    SpatialGrid,
    Trajectory,
    grad_cells,
    laplacian,
    symmetric,
)
from .newton import NewtonOptions, damped_newton

# the routine scipy's solve_banded calls for a (1, 1) band, called directly
(_GTSV,) = get_lapack_funcs(("gtsv",), dtype=np.float64)


@dataclass(frozen=True)
class StepOptions:
    dt: float = 1e-3
    newton: NewtonOptions = NewtonOptions()

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")


class _BandedStepper:
    """Banded residual/Jacobian of one backward-Euler step for a stack of states.

    States are (n, k) or (R, n, k); the Jacobian of R members is one banded
    system of R n k rows whose blocks are decoupled, so one LAPACK call
    solves every member exactly as it would be solved alone.  For k = 1 the
    system is tridiagonal and goes to gtsv directly, which is the call
    solve_banded makes for it, without solve_banded's checks.
    """

    def __init__(self, sgrid: SpatialGrid, mats: CouplingMatrices, nl: Nonlinearity, dt: float):
        if mats.k != nl.k:
            raise ShapeMismatch(f"matrix k={mats.k} vs nonlinearity k={nl.k}")
        self.sgrid = sgrid
        self.mats = mats
        self.nl = nl
        self.dt = dt
        self.n = sgrid.n_interior
        self.k = mats.k
        self.hb = 2 * self.k - 1  # half bandwidth of the block-tridiagonal system
        n, k, hb = self.n, self.k, self.hb
        h2 = sgrid.h**2
        # constant part of one member's band: gamma/dt + 2a/h^2 on the node
        # blocks, -a/h^2 on the neighbor blocks; f'(v) is added per solve
        self._diag = mats.gamma / dt + 2.0 * mats.a / h2
        band = np.zeros((2 * hb + 1, n * k))
        for c in range(k):
            for cp in range(k):
                off = mats.a[c, cp] / h2
                band[hb + (c - cp) - k, np.arange(1, n) * k + cp] += -off  # j = i+1
                band[hb + (c - cp) + k, np.arange(0, n - 1) * k + cp] += -off  # j = i-1
        band.setflags(write=False)
        self._band = band
        # block-diagonal band of the most members solved so far; fewer
        # members take its leading columns, so a shrinking stack (the
        # equilibrium census) builds it once
        self._stacked = band

    def residual(self, v: np.ndarray, u: np.ndarray, gval: np.ndarray) -> np.ndarray:
        lap = laplacian(v, self.sgrid.h)
        if self.k == 1:
            gamma, a = self.mats.gamma[0, 0], self.mats.a[0, 0]
            return gamma * (v - u) / self.dt - a * lap + self.nl.f(v) - gval
        return (
            np.einsum("cd,...d->...c", self.mats.gamma, v - u) / self.dt
            - np.einsum("cd,...d->...c", self.mats.a, lap)
            + self.nl.f(v)
            - gval
        )

    def solve(self, v: np.ndarray, r: np.ndarray) -> np.ndarray:
        k, hb = self.k, self.hb
        cols = r.size
        if cols > self._stacked.shape[1]:
            stacked = np.tile(self._band, cols // self._band.shape[1])
            stacked.setflags(write=False)
            self._stacked = stacked
        band = self._stacked[:, :cols]
        jac = self.nl.jac_f(v).reshape(-1, k, k)  # (members * n, k, k)
        # a non-finite r or f' yields a non-finite step, which the Newton
        # line search rejects as a NewtonDiverged; no separate check needed
        if k == 1 and r.size > 1:
            # gtsv copies the read-only off-diagonals, which are zero across
            # member boundaries, and overwrites only d and b; it needs two
            # rows, and solve_banded solves a 1 x 1 system by a division
            d = self._diag[0, 0] + jac[:, 0, 0]
            *_, dx, info = _GTSV(
                band[2, :-1], d, band[0, 1:], -r.ravel(), overwrite_d=1, overwrite_b=1
            )
            if info > 0:
                raise LinAlgError("singular matrix")
            if info < 0:
                raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
            return dx.reshape(r.shape)
        ab = band.copy()
        for c in range(k):
            for cp in range(k):
                ab[hb + (c - cp), cp::k] = self._diag[c, cp] + jac[:, c, cp]
        dx = solve_banded((hb, hb), ab, -r.ravel(), overwrite_ab=True, check_finite=False)
        return dx.reshape(r.shape)


def _initial_stack(u0) -> tuple[SpatialGrid, np.ndarray]:
    """(grid, (R, n, k) values) of a Field or of a sequence of Fields."""
    fields = [u0] if isinstance(u0, Field) else list(u0)
    if not fields:
        raise DegenerateData("an ensemble needs at least one initial state")
    grid, k = fields[0].grid, fields[0].k
    if any(f.grid != grid or f.k != k for f in fields):
        raise ShapeMismatch("initial states live on different grids")
    return grid, np.stack([f.values for f in fields])


# steps whose forcing values one window call evaluates ahead
_FORCING_CHUNK = 256


def _schedule(
    u0: Field | Sequence[Field], t_end: float, opts: StepOptions
) -> tuple[SpatialGrid, np.ndarray, int, float]:
    """(grid, (R, n, k) start, step count, step) of a march over t_end, by
    the step rule semigroup_evolve states."""
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    grid, cur = _initial_stack(u0)
    if t_end == 0:
        return grid, cur, 0, 0.0
    steps = max(1, int(math.ceil(t_end / opts.dt * (1.0 - 1e-9))))
    return grid, cur, steps, t_end / steps


def _march(
    grid: SpatialGrid, cur: np.ndarray, steps: int, dt: float, opts: StepOptions,
    mats: CouplingMatrices, nl: Nonlinearity, g: Forcing, tau: float = 0.0,
):
    """Yield the (R, n, k) states at steps 0, 1, ..., steps of dt from cur at tau.

    Step j's Newton solve starts from 2 u_j - u_{j-1}, step 0's from u_0;
    a member whose last start already met the Newton tolerance is at rest
    and starts from u_j.  Each Newton iteration is one linear solve for all
    R members, each member extrapolates from its own last two states, and
    each member's path is the one it would follow alone.  No yielded array
    is written again, so a caller may keep any of them; the march itself
    holds only the last two states and one chunk of forcing values.
    """
    yield cur
    if not steps:
        return
    stepper = _BandedStepper(grid, mats, nl, dt)
    prev = cur  # u_{j-1}; the first step starts from u_0 itself
    for j in range(steps):
        if j % _FORCING_CHUNK == 0:
            # the forcing at the right endpoints of the next chunk of steps
            ahead = np.arange(j + 1, min(j + _FORCING_CHUNK, steps) + 1)
            gblock = g.window(tau + dt * ahead)
        gval = gblock[j % _FORCING_CHUNK]
        nxt, trace = damped_newton(
            2.0 * cur - prev,  # each member's own linear extrapolation
            lambda v, _c=cur, _g=gval: stepper.residual(v, _c, _g),
            stepper.solve,
            opts.newton,
            batch=True,
        )
        # a member whose start met the tolerance moved by extrapolation
        # alone, and extrapolating again would keep it drifting at that
        # speed; it is at rest, so its next start is its state
        rested = trace[0] <= opts.newton.tol_residual
        prev = np.where(rested[:, None, None], nxt, cur)
        cur = nxt
        yield cur


def semigroup_evolve(
    u0: Field | Sequence[Field],
    t_end: float,
    opts: StepOptions,
    mats: CouplingMatrices,
    nl: Nonlinearity,
    g: Forcing,
    tau: float = 0.0,
    every: int = 1,
) -> Trajectory | Ensemble:
    """March from tau to tau + t_end, returning steps 0, every, 2 every, ...

    The step is t_end over the fewest whole steps of at most opts.dt, where
    a ratio t_end / opts.dt within 1e-9 relative above a whole number counts
    as that number, so a step that divides t_end up to rounding is kept.
    every must divide that step count (ValueError otherwise).  The states
    are those _march yields, and only the kept ones are stored, each the
    state every = 1 returns at that step.  A Field gives its Trajectory.  A
    sequence of Fields is stepped as one ensemble and gives an Ensemble,
    each member on the path it would follow alone.
    """
    grid, cur, steps, dt = _schedule(u0, t_end, opts)
    if every < 1 or steps % every:
        raise ValueError(f"every={every} does not divide the {steps} steps")
    vals = np.empty((cur.shape[0], steps // every + 1) + cur.shape[1:])
    for j, state in enumerate(_march(grid, cur, steps, dt, opts, mats, nl, g, tau)):
        if j % every == 0:
            vals[:, j // every] = state
    times = tau + dt * np.arange(0, steps + 1, every)
    if isinstance(u0, Field):
        return Trajectory(grid, times, vals[0])
    return Ensemble(grid, times, vals)


def variational_evolve(
    base: Trajectory,
    xi: Field,
    opts: StepOptions,
    mats: CouplingMatrices,
    nl: Nonlinearity,
) -> Trajectory:
    """Exact tangent of the discrete backward-Euler flow along a base trajectory.

    Each step solves (gamma/dt - a Delta + f'(base_{j+1})) w' = gamma w / dt,
    the linearization at the new base point, so divided differences of the
    nonlinear flow converge to this at rate O(delta).
    """
    if base.grid != xi.grid or base.k != xi.k:
        raise ShapeMismatch("xi does not match the base trajectory")
    steps = base.times.shape[0] - 1
    vals = np.empty_like(base.values)
    vals[0] = xi.values
    if steps:
        stepper = _BandedStepper(base.grid, mats, nl, float(base.times[1] - base.times[0]))
        w = xi.values
        for j in range(steps):
            rhs = np.einsum("cd,nd->nc", mats.gamma, w) / stepper.dt
            # J(base_{j+1}) w' = rhs, one direct banded solve
            w = stepper.solve(base.values[j + 1], -rhs)
            vals[j + 1] = w
    return Trajectory(base.grid, base.times.copy(), vals)


def lyapunov_value(
    u: Field | Trajectory | Ensemble, mats: CouplingMatrices, nl: Nonlinearity, gbar: Field
) -> float | np.ndarray:
    """Energy integral a grad u . grad u + 2 F(u) + 2 gbar . u over omega.

    Gradient term by the cell midpoint rule, the rest by trapezoid; this is
    exactly twice the discrete energy whose gradient flow the implicit step
    gamma u_t = a u_xx - f(u) - gbar integrates, so a flow forced by +g
    takes gbar = -g.  A Trajectory gives the energy of every slice, (nt,),
    and an Ensemble that of every slice of every member, (R, nt); each
    entry is the energy of that slice alone, to the bit.
    """
    if nl.potential_F is None:
        raise MissingPotential(f"nonlinearity {nl.name} has no potential")
    if not symmetric(mats.a):
        raise AsymmetricA("a must be symmetric for the energy to exist")
    v = u.values
    if u.grid != gbar.grid or v.shape[-1] != gbar.k:
        raise ShapeMismatch("gbar does not match u")
    h = u.grid.h
    d = grad_cells(v, h)
    grad_term = np.einsum("...nc,cd,...nd->...", d, mats.a, d) * h
    zero = np.zeros((1, gbar.k))
    f_interior = np.sum(nl.potential_F(v), axis=-1)
    f_boundary = float(nl.potential_F(zero)[0])  # both endpoints at half weight
    pot_term = 2.0 * h * (f_interior + f_boundary)
    force_term = 2.0 * h * np.sum(gbar.values * v, axis=(-2, -1))
    energy = grad_term + pot_term + force_term
    return float(energy) if isinstance(u, Field) else energy
