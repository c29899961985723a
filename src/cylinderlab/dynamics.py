"""Equilibria, spectra, unstable manifolds, attractor clouds, and the
eps-convergence experiments built on the two solvers.

Sign conventions: equilibria solve a z_xx - f(z) + gbar = 0 where gbar is
the forcing of the limit parabolic equation.  Experiments that compare the
perturbed process against the limit flow receive the forcing in the
elliptic convention (right-hand side g); the limit flow is the
ProcessContext at eps = 0, which flips the sign itself, so both sides
integrate the same equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .elliptic import ProcessContext, _window_grid, solve_periodic_bvp
from .errors import (
    AverageNotConverged,
    EigenFailure,
    EmptyCloud,
    FixedPointDiverged,
    LabError,
    NewtonDiverged,
    NonHyperbolicLimit,
    NonPositiveData,
    NotHyperbolic,
    ShapeMismatch,
    SingularJacobian,
)
from .forcing import Constant, FastScaled, Forcing, forcing_mean, time_average
from .model import CouplingMatrices, CylinderGrid, Field, Nonlinearity, Trajectory, sine_field
from .newton import NewtonOptions, damped_newton
from .parabolic import _BandedStepper

# hyperbolicity threshold on the discrete spectrum: the continuum-degenerate
# Chafee-Infante cases discretize their zero eigenvalue to ~5e-5 at 128
# nodes, so the gate sits above that and below every regular gap used here
NU_MIN = 1e-4
DEDUP_TOL = 1e-4
# window doublings averaging_experiment tries before the mean counts as unsettled
_MAX_DOUBLINGS = 8


@dataclass(frozen=True)
class EquilibriumRecord:
    z: Field
    eigenvalues: np.ndarray  # complex, sorted by descending real part
    index: int
    gap_nu: float
    hyperbolic: bool


@dataclass(frozen=True)
class SpectralSplit:
    """Unstable invariant subspace, columns orthonormal in discrete L2."""

    v_plus: np.ndarray  # (n_interior * k, index)

    @property
    def dim(self) -> int:
        return self.v_plus.shape[1]


@dataclass(frozen=True)
class PointCloud:
    points: tuple
    meta: dict

    def __post_init__(self):
        for p in self.points:
            if p.grid != self.points[0].grid or p.k != self.points[0].k:
                raise ShapeMismatch("cloud points live on different grids")

    def __len__(self) -> int:
        return len(self.points)

    def stack(self) -> np.ndarray:
        return np.stack([p.values for p in self.points])


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    max_residual: float


@dataclass(frozen=True)
class HeteroclinicReport:
    alpha_limit: int | None  # index into the equilibria list, None = unresolved
    omega_limit: int | None
    distinct: bool


# ---------------------------------------------------------------------------
# equilibria


def _equilibrium_stepper(grid, mats, nl) -> _BandedStepper:
    # dt = inf collapses the backward-Euler step to the steady-state equation
    return _BandedStepper(grid, mats, nl, math.inf)


def find_equilibria(
    mats: CouplingMatrices,
    nl: Nonlinearity,
    gbar: Field,
    seed_count: int = 12,
    deflation: bool = True,
    rng=None,
) -> list[EquilibriumRecord]:
    """All roots of a z_xx - f(z) + gbar = 0 reachable from the seed net.

    Structured seeds cover low sine modes at several amplitudes; seed_count
    random smooth fields are added on top.  With deflation on, residuals
    are multiplied by prod(1 + 1/||z - z_i||^2) over found roots so Newton
    is repelled from them; every candidate is re-polished undeflated.

    Newton runs on the stack of all seeds at once (_deflated_newton), and
    the candidates are taken in seed order.  The first seed whose candidate
    adds a root ends that run; with deflation on, the seeds after it start
    again from their seeds against the larger root set.  So each seed meets
    exactly the roots of the seeds before it, as if the seeds ran one by one.
    """
    grid = gbar.grid
    if gbar.k != mats.k:
        raise ShapeMismatch(f"gbar has k={gbar.k}, matrices k={mats.k}")
    stepper = _equilibrium_stepper(grid, mats, nl)
    gvals = gbar.values
    h = grid.h

    def res(v):
        return stepper.residual(v, v, gvals)

    todo = _census_seeds(grid, mats.k, seed_count, rng)
    roots: list[np.ndarray] = []
    while len(todo):
        taken = 0
        for cand in _deflated_newton(todo, res, stepper, roots if deflation else [], h):
            taken += 1
            if cand is None:
                continue
            try:
                cand, _ = damped_newton(
                    cand, res, stepper.solve, NewtonOptions(tol_residual=1e-11, max_iters=12)
                )
            except LabError:
                continue
            if float(np.max(np.abs(res(cand)))) > 1e-10:
                continue
            if any(_l2_gap(cand, z, h) <= DEDUP_TOL for z in roots):
                continue
            roots.append(cand)
            if deflation:
                break
        todo = todo[taken:]

    records = [spectral_analyze(Field(grid, z), mats, nl) for z in roots]
    records.sort(key=lambda r: (-r.index, r.z.l2(), -float(np.sum(r.z.values))))
    return records


def _census_seeds(grid, k: int, seed_count: int, rng) -> np.ndarray:
    """(S, n, k) stack of Newton seeds: zero, +-amp sin(jx) for j <= 3 at four
    amplitudes, then seed_count random smooth fields drawn from rng."""
    rng = np.random.default_rng(rng)
    seeds = [np.zeros((grid.n_interior, k))]
    for amp in (0.5, 1.0, 1.5, 2.5):
        for j in (1, 2, 3):
            prof = sine_field(grid, [0.0] * (j - 1) + [amp], k=1).values
            prof = np.repeat(prof, k, axis=1)
            seeds.append(prof)
            seeds.append(-prof)
    for _ in range(seed_count):
        coeffs = rng.standard_normal((4, k)) / np.arange(1, 5)[:, None]
        seeds.append(sine_field(grid, coeffs, k=k).values)
    return np.stack(seeds)


def _l2_gap(a: np.ndarray, b: np.ndarray, h: float) -> float:
    return math.sqrt(h * float(np.sum((a - b) ** 2)))


def _deflated_newton(seeds, res, stepper, roots, h, max_iters=80):
    """Plain Newton with multiplicative deflation against roots, run on the
    (S, n, k) stack of seeds at once.

    Yields one candidate per seed (None where Newton fails), in seed order,
    as soon as that seed and every seed before it are decided; a caller may
    stop early.  Every iteration is one residual and one linear solve for
    all live members, and a member leaves the stack once it converges,
    blows up, lands on a root, meets a tiny deflated denominator or runs
    out of iterations.  The members' solves are decoupled and each of the
    per-member reductions sums in the order a lone seed would, so every
    member takes exactly the steps it would take alone.
    """
    zs = np.array(roots)
    cands: list[np.ndarray | None] = [None] * len(seeds)
    decided = np.zeros(len(seeds), dtype=bool)
    live = np.arange(len(seeds))  # seed number of each stack member
    v = seeds
    first = 0  # the first seed not yet yielded

    def each(a):  # per-member flat view, for sums in a lone member's order
        return a.reshape(a.shape[0], -1)

    for _ in range(max_iters):
        if not live.size:
            break
        r = res(v)
        rn = np.max(each(np.abs(r)), axis=1)
        failed = ~np.isfinite(rn) | (np.max(each(np.abs(v)), axis=1) > 1e3)
        converged = ~failed & (rn <= 1e-8)
        for i in np.flatnonzero(converged):
            cands[live[i]] = v[i].copy()
        out = failed | converged
        decided[live[out]] = True
        while first < len(seeds) and decided[first]:
            yield cands[first]
            first += 1
        v, r, live = v[~out], r[~out], live[~out]
        if not live.size:
            break
        p = -stepper.solve(v, r)  # p = J^{-1} F, the undeflated decrement
        if not len(zs):
            v = v - p
            continue
        diffs = v[:, None] - zs  # (members, roots, n, k)
        d2 = h * np.sum(diffs.reshape(*diffs.shape[:2], -1) ** 2, axis=2)
        out = np.any(d2 < 1e-14, axis=1)  # on a root already
        decided[live[out]] = True
        v, p, diffs, d2, live = v[~out], p[~out], diffs[~out], d2[~out], live[~out]
        m = np.ones(len(v))
        grad = np.zeros_like(v)
        for j in range(len(zs)):
            mi = 1.0 + 1.0 / d2[:, j]
            m *= mi
            grad += (-2.0 * h / (d2[:, j] * d2[:, j] * mi))[:, None, None] * diffs[:, j]
        grad *= m[:, None, None]
        denom = m + np.sum(each(grad * p), axis=1)
        out = np.abs(denom) < 1e-12 * np.maximum(m, 1.0)  # a tiny denominator
        decided[live[out]] = True
        v = v[~out] - (m[~out] / denom[~out])[:, None, None] * p[~out]
        live = live[~out]
    yield from cands[first:]


def _linearization(z: Field, mats: CouplingMatrices, nl: Nonlinearity) -> np.ndarray:
    """Dense matrix of gamma^{-1} (a Lap - f'(z)) in (node, component) order."""
    n, k, h = z.grid.n_interior, z.k, z.grid.h
    lap = (
        np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    ) / h**2
    op = np.kron(lap, mats.a)
    jac = nl.jac_f(z.values)
    for i in range(n):
        op[i * k : (i + 1) * k, i * k : (i + 1) * k] -= jac[i]
    gam_inv = np.linalg.inv(mats.gamma)
    return np.kron(np.eye(n), gam_inv) @ op


def spectral_analyze(z: Field, mats: CouplingMatrices, nl: Nonlinearity) -> EquilibriumRecord:
    """Dense spectrum of the linearization at z; z must already be a root."""
    op = _linearization(z, mats, nl)
    try:
        w = scipy.linalg.eig(op, right=False)
    except scipy.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    order = np.lexsort((-w.imag, -w.real))
    w = w[order]
    index = int(np.sum(w.real > 0.0))
    gap_nu = float(np.min(np.abs(w.real)))
    return EquilibriumRecord(z, w, index, gap_nu, gap_nu > NU_MIN)


def spectral_split(
    record: EquilibriumRecord, mats: CouplingMatrices, nl: Nonlinearity
) -> SpectralSplit:
    """Orthonormal basis (discrete L2) of the unstable invariant subspace."""
    if not record.hyperbolic:
        raise NotHyperbolic(f"gap {record.gap_nu:.3e} below nu_min {NU_MIN:.0e}")
    n, k, h = record.z.grid.n_interior, record.z.k, record.z.grid.h
    if record.index == 0:
        return SpectralSplit(np.zeros((n * k, 0)))
    op = _linearization(record.z, mats, nl)
    try:
        w, vecs = scipy.linalg.eig(op)
    except scipy.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    order = np.lexsort((-w.imag, -w.real))
    w, vecs = w[order], vecs[:, order]
    cols = []
    used = np.zeros(w.shape[0], dtype=bool)
    for i in range(w.shape[0]):
        if used[i] or not w[i].real > 0.0:
            continue
        used[i] = True
        if abs(w[i].imag) <= 1e-10 * (1.0 + abs(w[i])):
            cols.append(vecs[:, i].real)
        else:
            cols.append(vecs[:, i].real)
            cols.append(vecs[:, i].imag)
            for j in range(i + 1, w.shape[0]):
                if not used[j] and abs(w[j] - w[i].conjugate()) <= 1e-8 * (1.0 + abs(w[i])):
                    used[j] = True
                    break
    basis = np.column_stack(cols)
    if basis.shape[1] != record.index:
        raise EigenFailure(
            f"unstable basis dimension {basis.shape[1]} != index {record.index}"
        )
    q, _ = np.linalg.qr(math.sqrt(h) * basis)
    return SpectralSplit(q / math.sqrt(h))


# ---------------------------------------------------------------------------
# manifolds and clouds


@dataclass(frozen=True)
class CloudParams:
    radius: float | None = None  # default 1e-3 ||z|| + 1e-3 per equilibrium
    n_rays: int = 16
    t_grow: float = 20.0
    stride: float = 0.25


def _ray_starts(
    record: EquilibriumRecord, split: SpectralSplit, radius: float, n_rays: int, stride: float
) -> list[Field]:
    """Initial states on the unstable eigenrays of record (none if it is stable).

    Seed radii are staggered log-uniformly across one stride e-fold
    (factor exp(nu stride s / S)), so after any number of strides the
    slice trains of neighbouring rays interleave; effective parameter
    resolution along the manifold is stride / S rather than stride.
    """
    z = record.z
    grid, k = z.grid, z.k
    if split.dim == 0:
        return []
    nu = float(record.eigenvalues[0].real)
    if split.dim == 1:
        v = split.v_plus[:, 0].reshape(grid.n_interior, k)
        per_side = max(1, n_rays // 2)
        seeds = []
        for s in range(per_side):
            r = radius * math.exp(nu * stride * s / per_side)
            seeds.append(r * v)
            seeds.append(-r * v)
    else:
        dirs = _sphere_directions(split.dim, n_rays)
        seeds = []
        for i, d in enumerate(dirs):
            r = radius * math.exp(nu * stride * i / n_rays)
            seeds.append(r * (split.v_plus @ d).reshape(grid.n_interior, k))
    return [Field(grid, z.values + seed) for seed in seeds]


def _sphere_directions(d: int, count: int) -> np.ndarray:
    """count unit vectors spread over the (d-1)-sphere, deterministic."""
    if d == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = np.random.default_rng(20)
    v = rng.standard_normal((count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_attractor(
    context: ProcessContext,
    equilibria: list[EquilibriumRecord],
    params: CloudParams = CloudParams(),
) -> PointCloud:
    """Attractor portrait: union of manifold clouds over all equilibria.

    Works for the limit semigroup (eps = 0) and for the eps-process alike;
    eigenray seeds start within O(radius + eps) of the attractor, so slices
    count from t = 0.  The rays of all equilibria evolve as one ensemble.
    """
    if not equilibria:
        raise EmptyCloud("no equilibria to seed the attractor from")
    starts = []
    for rec in equilibria:
        split = spectral_split(rec, context.mats, context.nl)
        radius = params.radius
        if radius is None:
            radius = 1e-3 * rec.z.l2() + 1e-3
        starts.append(_ray_starts(rec, split, radius, params.n_rays, params.stride))
    rays = sum(starts, [])
    members = iter(())
    if rays:
        ensemble = context.evolve(rays, 0.0, params.t_grow, params.stride)
        members = (ensemble.member(i) for i in range(len(ensemble)))
    points = []
    for rec, seeds in zip(equilibria, starts):
        points.append(rec.z)
        for _ in seeds:
            ray = next(members)
            points.extend(ray.field(j) for j in range(ray.times.shape[0]))
    meta = {
        "source": "attractor",
        "eps": context.eps,
        "n_rays": params.n_rays,
        "t_grow": params.t_grow,
        "stride": params.stride,
        "equilibria": len(equilibria),
    }
    return PointCloud(tuple(points), meta)


# ---------------------------------------------------------------------------
# distances


def cdist(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """scipy.spatial.distance.cdist (Euclidean), imported on the first call.
    A module function under scipy's name, so that it can be replaced here."""
    from scipy.spatial.distance import cdist as pairwise

    return pairwise(xa, xb)


def _min_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise min Euclidean distance from x to y, chunked."""
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], 256):
        hi = min(lo + 256, x.shape[0])
        out[lo:hi] = cdist(x[lo:hi], y).min(axis=1)
    return out


def hausdorff_dist(x: PointCloud, y: PointCloud) -> float:
    """Nonsymmetric cloud distance sup_{p in x} inf_{q in y} ||p - q||_L2."""
    if len(x) == 0 or len(y) == 0:
        raise EmptyCloud("cannot measure distance to an empty cloud")
    if x.points[0].grid != y.points[0].grid or x.points[0].k != y.points[0].k:
        raise ShapeMismatch("clouds live on different grids")
    h = x.points[0].grid.h
    xa = x.stack().reshape(len(x), -1) * math.sqrt(h)
    ya = y.stack().reshape(len(y), -1) * math.sqrt(h)
    return float(_min_dists(xa, ya).max())


def symmetric_dist(x: PointCloud, y: PointCloud) -> float:
    return max(hausdorff_dist(x, y), hausdorff_dist(y, x))


def cloud_resolution(x: PointCloud) -> float:
    """Sampling scale of a cloud: largest nearest-neighbor L2 distance."""
    if len(x) < 2:
        raise EmptyCloud("resolution needs at least two points")
    h = x.points[0].grid.h
    xa = x.stack().reshape(len(x), -1) * math.sqrt(h)
    worst = 0.0
    for lo in range(0, xa.shape[0], 256):
        hi = min(lo + 256, xa.shape[0])
        d = cdist(xa[lo:hi], xa)
        d[np.arange(lo, hi) - lo, np.arange(lo, hi)] = np.inf
        worst = max(worst, float(d.min(axis=1).max()))
    return worst


# ---------------------------------------------------------------------------
# trajectory-level comparison and rate fits


@dataclass(frozen=True)
class GapSeries:
    sup: float
    times: np.ndarray
    gaps: np.ndarray


def trajectory_vs_limit(
    eps: float,
    g: Forcing,
    u0: Field,
    t_end: float,
    context: ProcessContext,
    stride: float = 0.25,
) -> GapSeries:
    """Per-slice L2 gap between the eps-process and the averaged limit flow.

    Fast families enter as profiles: the eps run uses FastScaled(g, eps).
    The limit semigroup is driven by the infinite-horizon mean of g (sign
    flipped into the parabolic convention).
    """
    if eps == 0.0:
        times = np.arange(0.0, t_end + stride / 2, stride)
        return GapSeries(0.0, times, np.zeros_like(times))
    ectx = _eps_context(context, _eps_forcing(g, eps), eps)
    lctx = _mean_limit(context, forcing_mean(g))
    et = ectx.evolve(u0, 0.0, t_end, stride)
    lt = lctx.evolve(u0, 0.0, t_end, stride)
    if et.times.shape != lt.times.shape or np.max(np.abs(et.times - lt.times)) > 1e-9:
        raise ShapeMismatch("process and limit trajectories sample different times")
    gaps = np.sqrt(u0.grid.h * np.sum((et.values - lt.values) ** 2, axis=(1, 2)))
    return GapSeries(float(gaps.max()), et.times.copy(), gaps)


def rate_fit(eps_list, distances) -> RateFit:
    """Least-squares slope of log distance against log eps."""
    eps_arr = np.asarray(list(eps_list), dtype=float)
    d_arr = np.asarray(list(distances), dtype=float)
    if eps_arr.shape != d_arr.shape or eps_arr.size < 3:
        raise NonPositiveData("need at least 3 (eps, distance) pairs")
    if np.any(eps_arr <= 0) or np.any(d_arr <= 0):
        raise NonPositiveData("rate fit needs strictly positive eps and distances")
    lx, ly = np.log(eps_arr), np.log(d_arr)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = np.abs(ly - (slope * lx + intercept))
    return RateFit(float(slope), float(intercept), float(resid.max()))


# ---------------------------------------------------------------------------
# heteroclinic classification


def heteroclinic_classify(
    trajectory: Trajectory, equilibria: list[EquilibriumRecord], tol: float = 1e-3
) -> HeteroclinicReport:
    """Match trajectory endpoints to equilibria once they have stopped moving.

    An endpoint resolves when the velocity over its trailing unit window is
    below tol and the nearest equilibrium sits within tol.
    """
    times = trajectory.times
    h = trajectory.grid.h

    def resolve(j_edge: int, t_inner: float) -> int | None:
        u_edge = trajectory.values[j_edge]
        u_inner = trajectory.values[int(np.argmin(np.abs(times - t_inner)))]
        speed = _l2_gap(u_inner, u_edge, h)
        if speed > tol:
            return None
        best, best_d = None, math.inf
        for i, rec in enumerate(equilibria):
            d = _l2_gap(u_edge, rec.z.values, h)
            if d < best_d:
                best, best_d = i, d
        return best if best_d <= tol else None

    alpha = resolve(0, min(times[0] + 1.0, times[-1]))
    omega = resolve(-1, max(times[-1] - 1.0, times[0]))
    distinct = alpha is not None and omega is not None and alpha != omega
    return HeteroclinicReport(alpha, omega, distinct)


# ---------------------------------------------------------------------------
# periodic tracking


@dataclass(frozen=True)
class PeriodicTrack:
    mode: str  # "fixed-point" or "bounded-tracking"
    orbit: Trajectory
    fixed_point: Field | None
    deviation: float  # max_t ||u(t) - z||_L2
    residual: float  # period-map defect (fixed-point) or recurrence gap (bounded)


def newton_krylov(F, xin: np.ndarray, **options) -> np.ndarray:
    """scipy.optimize.newton_krylov, imported on the first call; its
    NoConvergence surfaces as FixedPointDiverged.  No program path calls
    it: periodic tracking solves the time-periodic cylinder instead.  It
    stays as the benchmark tracer's dynamics.fixed_point hook, which reads
    0 until that hook moves to the periodic solve."""
    from scipy.optimize import NoConvergence, newton_krylov as solve

    try:
        return solve(F, xin, **options)
    except NoConvergence as exc:
        raise FixedPointDiverged(f"period map Newton stalled near the equilibrium: {exc}")


def track_periodic_solution(
    record: EquilibriumRecord,
    g: Forcing,
    eps: float,
    context: ProcessContext,
    t_track: float = 40.0,
) -> PeriodicTrack:
    """Fixed point of the period map of the eps-problem near record.z.

    Periodic forcing: the fixed point is slice 0 of the periodic solution
    of the eps-problem, found by one inexact Newton solve on the
    time-periodic cylinder (solve_periodic_bvp) from the constant extension
    of record.z; autonomous forcing counts as 1-periodic.  A far-margin
    window from that slice over one period, warm-started by the periodic
    slices, then gives the orbit and the period-map defect, which must stay
    below 1e-6; periodic forcing needs eps > 0.  Forcing without a finite period (quasiperiodic) falls back
    to long-run bounded tracking and reports the recurrence gap instead of
    a fixed-point defect.
    """
    if not record.hyperbolic:
        raise NotHyperbolic("period map tracking needs a hyperbolic equilibrium")
    z = record.z
    grid = z.grid
    ectx = replace(context, eps=eps, forcing=g)
    period = g.period

    if period is None:
        traj = ectx.evolve(z, 0.0, t_track, 0.25)
        devs = np.sqrt(grid.h * np.sum((traj.values - z.values) ** 2, axis=(1, 2)))
        tail = traj.values[-1]
        early = traj.values[traj.times <= traj.times[-1] - 1.0]
        rec_gap = float(
            np.sqrt(grid.h * np.sum((early - tail) ** 2, axis=(1, 2))).min()
        )
        return PeriodicTrack("bounded-tracking", traj, None, float(devs.max()), rec_gap)

    p_eff = period if period > 0 else 1.0
    dt, span = _window_grid(p_eff, ectx)
    try:
        periodic = solve_periodic_bvp(
            grid, CylinderGrid(0.0, p_eff, span, eps), ectx.mats, ectx.nl, g, z, ectx.opts
        )
    except (NewtonDiverged, SingularJacobian) as exc:
        raise FixedPointDiverged(f"period map Newton stalled near the equilibrium: {exc}") from exc
    fixed = periodic.slice(0)

    # the periodic slices, repeated over the far margin too, warm-start the
    # window that checks them
    cycle = np.arange(span + ectx.margin_steps(dt) + 1) % span
    final = ectx._window(fixed, 0.0, dt, span, periodic.values[cycle])
    orbit_vals = final.values[: span + 1]
    orbit = Trajectory(grid, final.cgrid.times[: span + 1], orbit_vals)
    residual = Field(grid, orbit_vals[-1] - fixed.values).l2()
    if residual > 1e-6:
        raise FixedPointDiverged(f"period map defect {residual:.3e} above 1e-6")
    devs = np.sqrt(grid.h * np.sum((orbit_vals - z.values) ** 2, axis=(1, 2)))
    return PeriodicTrack("fixed-point", orbit, fixed, float(devs.max()), residual)


# ---------------------------------------------------------------------------
# sweep experiments


@dataclass(frozen=True)
class DistanceSweep:
    rows: tuple  # ((eps, symmetric distance), ...)
    fit: RateFit | None
    monotone: bool


@dataclass(frozen=True)
class AveragingResult:
    gbar: Field
    rows: tuple
    monotone: bool
    resolution: float  # nearest-neighbor resolution of the reference cloud


def _eps_forcing(g: Forcing, eps: float) -> Forcing:
    return g if g.period == 0.0 else FastScaled(g, eps)


def _eps_context(context: ProcessContext, g: Forcing, eps: float) -> ProcessContext:
    """Context at eps with the step refined to resolve the forcing scale."""
    ectx = replace(context, eps=eps, forcing=g)
    return replace(ectx, dt=min(ectx.dt_target, g.scale / 10.0))


def _mean_limit(context: ProcessContext, gbar: Field) -> ProcessContext:
    """Limit flow of the process driven by the mean gbar (elliptic convention)."""
    return replace(context, eps=0.0, forcing=Constant(gbar), dt=None)


def _sweep_against_limit(
    eps_list: list[float],
    g: Forcing,
    gbar: Field,
    context: ProcessContext,
    params: CloudParams,
    rng,
) -> tuple[tuple, bool, PointCloud]:
    """(eps, symmetric distance) rows of each eps-cloud against the cloud of
    the limit flow driven by gbar, whether they fall strictly, and that
    limit cloud.  Every limit equilibrium must be hyperbolic."""
    records = find_equilibria(context.mats, context.nl, -gbar, rng=rng)
    if not all(r.hyperbolic for r in records):
        gaps = [r.gap_nu for r in records if not r.hyperbolic]
        raise NonHyperbolicLimit(
            f"limit equilibria with spectral gap {min(gaps):.3e} below {NU_MIN:.0e}"
        )
    limit_cloud = sample_attractor(_mean_limit(context, gbar), records, params)
    rows = []
    for eps in eps_list:
        ectx = _eps_context(context, _eps_forcing(g, eps), eps)
        rows.append((eps, symmetric_dist(sample_attractor(ectx, records, params), limit_cloud)))
    monotone = all(b < a for (_, a), (_, b) in zip(rows, rows[1:]))
    return tuple(rows), monotone, limit_cloud


def attractor_distance_experiment(
    eps_list,
    g: Forcing,
    context: ProcessContext,
    params: CloudParams = CloudParams(),
    rng=None,
) -> DistanceSweep:
    """Symmetric cloud distance to the limit attractor across an eps sweep.

    Fast families enter as profiles: each eps runs FastScaled(g, eps).
    Requires every limit equilibrium to be hyperbolic.  rng seeds the
    random part of the limit equilibrium census.
    """
    eps_arr = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_arr):
        raise ValueError("eps sweep must be strictly positive")
    rows, monotone, _ = _sweep_against_limit(eps_arr, g, forcing_mean(g), context, params, rng)
    fit = rate_fit(eps_arr, [d for _, d in rows]) if len(rows) >= 3 else None
    return DistanceSweep(rows, fit, monotone)


def averaging_experiment(
    g: Forcing,
    eps_list,
    context: ProcessContext,
    params: CloudParams = CloudParams(),
    mean_tol: float = 1e-2,
    window0: float = 32.0,
    rng=None,
) -> AveragingResult:
    """Attractor of the fast-forced problem against the averaged limit.

    The mean is computed empirically by window doubling (must stabilize
    within mean_tol, else AverageNotConverged); the limit equation is built
    from that computed mean.  rng seeds the random part of the limit
    equilibrium census.
    """
    w = window0
    prev = time_average(g, 0.0, w)
    gbar = None
    for _ in range(_MAX_DOUBLINGS):
        w *= 2.0
        cur = time_average(g, 0.0, w)
        if (cur - prev).l2() <= mean_tol:
            gbar = cur
            break
        prev = cur
    if gbar is None:
        raise AverageNotConverged(
            f"window average still moving after {_MAX_DOUBLINGS} doublings"
        )
    rows, monotone, limit_cloud = _sweep_against_limit(
        [float(e) for e in eps_list], g, gbar, context, params, rng
    )
    return AveragingResult(gbar, rows, monotone, cloud_resolution(limit_cloud))
