import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from cylinderlab import (
    CloudParams,
    Constant,
    CouplingMatrices,
    EmptyCloud,
    FastScaled,
    Field,
    LabError,
    NewtonOptions,
    NonHyperbolicLimit,
    NonPositiveData,
    NotHyperbolic,
    Periodic,
    PointCloud,
    ProcessContext,
    Quasiperiodic,
    ShapeMismatch,
    SpatialGrid,
    Trajectory,
    attractor_distance_experiment,
    cloud_resolution,
    cubic_nonlinearity,
    damped_newton,
    dynamics,
    find_equilibria,
    hausdorff_dist,
    heteroclinic_classify,
    lyapunov_value,
    rate_fit,
    sample_attractor,
    spectral_split,
    symmetric_dist,
    sine_field,
    track_periodic_solution,
    trajectory_vs_limit,
    zero_nonlinearity,
)
from cylinderlab.dynamics import DEDUP_TOL, _census_seeds, _deflated_newton
from conftest import PI, disc_eig


def census(grid, lam, mats, seed=0):
    nl = cubic_nonlinearity(lam)
    rng = np.random.default_rng(seed)
    return find_equilibria(mats, nl, Field.zeros(grid), rng=rng), nl


@pytest.fixture(scope="module")
def lam2(grid128, scalar_mats):
    return census(grid128, 2.0, scalar_mats)


@pytest.fixture(scope="module")
def lam1_origin(grid128, scalar_mats):
    records, nl = census(grid128, 1.0, scalar_mats)
    origin = [r for r in records if r.z.l2() <= 1e-9][0]
    return origin, nl


@pytest.fixture(scope="module")
def cloud48(grid48, scalar_mats):
    """Limit attractor portrait of the lam = 2 well on a coarse grid."""
    records, nl = census(grid48, 2.0, scalar_mats)
    lctx = ProcessContext(
        grid48, scalar_mats, nl, Constant(Field.zeros(grid48)), eps=0.0, dt=5e-3
    )
    params = CloudParams(radius=1e-3, n_rays=2, t_grow=16.0, stride=0.5)
    return records, nl, lctx, sample_attractor(lctx, records, params)


# ---------------------------------------------------------------------------
# equilibrium census


def test_census_below_first_bifurcation(grid128, scalar_mats):
    records, _ = census(grid128, 0.5, scalar_mats)
    assert len(records) == 1
    assert records[0].z.l2() <= 1e-9
    assert records[0].index == 0
    assert records[0].hyperbolic
    assert records[0].gap_nu == pytest.approx(0.5, rel=1e-2)


def test_census_between_bifurcations(lam2):
    records, _ = lam2
    assert [r.index for r in records] == [1, 0, 0]
    assert records[0].z.l2() <= 1e-9
    # the nontrivial pair is a mirror image
    plus = [r for r in records if float(np.sum(r.z.values)) > 0][0]
    minus = [r for r in records if float(np.sum(r.z.values)) < 0][0]
    assert (plus.z + minus.z).l2() <= 1e-7
    assert plus.z.l2() == pytest.approx(minus.z.l2(), rel=1e-8)


def test_census_two_unstable_modes(grid128, scalar_mats):
    records, _ = census(grid128, 5.0, scalar_mats)
    assert len(records) == 5
    assert sorted((r.index for r in records), reverse=True) == [2, 1, 1, 0, 0]


def census_residual(grid, mats, nl):
    """The census's stepper and its residual at zero forcing."""
    stepper = dynamics._equilibrium_stepper(grid, mats, nl)
    zero = np.zeros((grid.n_interior, mats.k))
    return stepper, lambda v: stepper.residual(v, v, zero)


def lone_newton(seed, res, stepper, roots, h, max_iters=80):
    """The census's deflated Newton for one seed, as a plain loop: the
    reference each member of the batched census must match bit for bit."""
    v = seed.copy()
    for _ in range(max_iters):
        r = res(v)
        rn = float(np.max(np.abs(r)))
        if not np.isfinite(rn) or np.max(np.abs(v)) > 1e3:
            return None
        if rn <= 1e-8:
            return v
        p = -stepper.solve(v, r)
        if not roots:
            v = v - p
            continue
        m = 1.0
        grad = np.zeros_like(v)
        for z in roots:
            d2 = h * float(np.sum((v - z) ** 2))
            if d2 < 1e-14:
                return None
            mi = 1.0 + 1.0 / d2
            m *= mi
            grad += (-2.0 * h / (d2 * d2 * mi)) * (v - z)
        grad *= m
        denom = m + float(np.sum(grad * p))
        if abs(denom) < 1e-12 * max(m, 1.0):
            return None
        v = v - (m / denom) * p
    return None


def same_candidate(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


COUPLED = CouplingMatrices(2, np.array([[1.0, 0.2], [0.2, 1.5]]), np.eye(2))


@pytest.mark.parametrize("k", [1, 2])
def test_census_member_is_the_batch_of_one(k, grid32, grid64, scalar_mats):
    grid, mats = (grid64, scalar_mats) if k == 1 else (grid32, COUPLED)
    nl = cubic_nonlinearity(10.0 if k == 1 else 4.0, k)
    stepper, res = census_residual(grid, mats, nl)
    seeds = _census_seeds(grid, k, 12, 3)
    found = [r.z.values for r in find_equilibria(mats, nl, Field.zeros(grid, k), rng=3)]
    outcomes = set()
    for roots in ([], found[:3]):
        batch = list(_deflated_newton(seeds, res, stepper, roots, grid.h))
        assert len(batch) == len(seeds)
        outcomes |= {c is None for c in batch}
        for seed, cand in zip(seeds, batch):
            (single,) = _deflated_newton(seed[None], res, stepper, roots, grid.h)
            assert same_candidate(cand, single)
            assert same_candidate(cand, lone_newton(seed, res, stepper, roots, grid.h))
    assert outcomes == {True, False}  # members that fail and members that converge


def test_census_yields_each_seed_once_it_and_those_before_are_decided(grid64, scalar_mats):
    # the zero seed is a root of the unforced problem: its candidate comes
    # out after the first residual, before any other seed has been decided
    stepper, res = census_residual(grid64, scalar_mats, cubic_nonlinearity(2.0))
    calls = []
    batch = _deflated_newton(
        _census_seeds(grid64, 1, 12, 0), lambda v: calls.append(len(v)) or res(v), stepper, [],
        grid64.h,
    )
    assert not np.any(next(batch)) and calls == [37]


@pytest.mark.parametrize("deflation", [True, False])
def test_census_is_the_seed_by_seed_census(deflation, grid64, scalar_mats, monkeypatch):
    # a reference census that feeds the seeds one at a time, each against
    # every root found before it; the roots and their order must match the
    # batched census, whose restarts after each new root must not show
    nl = cubic_nonlinearity(10.0)
    stepper, res = census_residual(grid64, scalar_mats, nl)
    h = grid64.h
    roots = []
    for seed in _census_seeds(grid64, 1, 12, 0):
        cand = lone_newton(seed, res, stepper, roots if deflation else [], h)
        if cand is None:
            continue
        try:
            cand, _ = damped_newton(
                cand, res, stepper.solve, NewtonOptions(tol_residual=1e-11, max_iters=12)
            )
        except LabError:
            continue
        if np.max(np.abs(res(cand))) > 1e-10:
            continue
        if any(math.sqrt(h * np.sum((cand - z) ** 2)) <= DEDUP_TOL for z in roots):
            continue
        roots.append(cand)

    analyzed = []
    analyze = dynamics.spectral_analyze

    def spy(z, mats, nl):
        analyzed.append(z.values.tobytes())
        return analyze(z, mats, nl)

    monkeypatch.setattr(dynamics, "spectral_analyze", spy)
    records = find_equilibria(scalar_mats, nl, Field.zeros(grid64), deflation=deflation, rng=0)
    assert [r.index for r in records] == [3, 2, 2, 1, 1, 0, 0]
    assert analyzed == [z.tobytes() for z in roots]


def test_spectrum_at_origin(lam2, grid128):
    # linearization at z = 0 for lam = 2 has eigenvalues 2 - j^2; the
    # discrete operator replaces j^2 by its three-point eigenvalue
    records, _ = lam2
    eigs = records[0].eigenvalues.real[:4]
    expect = [2.0 - disc_eig(grid128, j) for j in (1, 2, 3, 4)]
    np.testing.assert_allclose(eigs, expect, atol=1e-8)
    np.testing.assert_allclose(eigs, [1.0, -2.0, -7.0, -14.0], atol=0.02)


def test_degenerate_case_flagged_not_hyperbolic(lam1_origin):
    # at lam = 1 the continuum eigenvalue is exactly zero; its discrete
    # shadow sits below the hyperbolicity gate
    origin, _ = lam1_origin
    assert not origin.hyperbolic
    assert abs(origin.gap_nu) < 1e-4


# ---------------------------------------------------------------------------
# spectral splits


def linearization_matrix(z, nl, h):
    n = z.values.shape[0]
    lap = (
        np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    ) / h**2
    return lap - np.diag(nl.jac_f(z.values)[:, 0, 0])


def test_split_stable_equilibrium_is_empty(lam2, scalar_mats):
    records, nl = lam2
    stable = [r for r in records if r.index == 0][0]
    split = spectral_split(stable, scalar_mats, nl)
    assert split.dim == 0


def test_split_matches_first_mode(lam2, grid128, scalar_mats):
    records, nl = lam2
    split = spectral_split(records[0], scalar_mats, nl)
    assert split.dim == 1
    v = split.v_plus[:, 0]
    sin_vals = np.sin(grid128.nodes)
    sin_unit = sin_vals / math.sqrt(grid128.h * float(np.sum(sin_vals**2)))
    overlap = abs(grid128.h * float(v @ sin_unit))
    assert overlap >= 1.0 - 1e-6
    # columns are orthonormal in the discrete L2 inner product
    gram = grid128.h * split.v_plus.T @ split.v_plus
    np.testing.assert_allclose(gram, np.eye(split.dim), atol=1e-12)


def test_split_invariance(grid64, scalar_mats):
    # A V = V (h V^T A V): the unstable subspace is invariant
    records, nl = census(grid64, 5.0, scalar_mats)
    origin = [r for r in records if r.z.l2() <= 1e-9][0]
    split = spectral_split(origin, scalar_mats, nl)
    assert split.dim == 2
    A = linearization_matrix(origin.z, nl, grid64.h)
    V = split.v_plus
    proj = V @ (grid64.h * V.T @ (A @ V))
    assert np.abs(A @ V - proj).max() <= 1e-8


def test_split_requires_hyperbolic(lam1_origin, scalar_mats):
    origin, nl = lam1_origin
    with pytest.raises(NotHyperbolic):
        spectral_split(origin, scalar_mats, nl)


# ---------------------------------------------------------------------------
# manifolds and attractor clouds


def test_manifold_of_stable_point_is_singleton(cloud48):
    records, nl, lctx, _ = cloud48
    stable = [r for r in records if r.index == 0][0]
    cloud = sample_attractor(lctx, [stable], CloudParams(radius=1e-3, n_rays=4, t_grow=5.0))
    assert len(cloud) == 1
    np.testing.assert_array_equal(cloud.points[0].values, stable.z.values)


def test_manifold_rays_reach_the_pair(cloud48):
    # the 1d unstable manifold of the origin runs to the two stable states
    records, nl, lctx, cloud = cloud48
    stable = [r.z for r in records if r.index == 0]
    pts = cloud.stack().reshape(len(cloud), -1)
    h = cloud.points[0].grid.h
    for z in stable:
        gaps = np.sqrt(h * np.sum((pts - z.values.ravel()) ** 2, axis=1))
        assert gaps.min() <= 2e-3


def test_cloud_odd_symmetry(cloud48):
    # odd nonlinearity, zero forcing: the sampled attractor is symmetric
    # under negation up to the Newton stopping tolerance
    _, _, _, cloud = cloud48
    pts = cloud.stack().reshape(len(cloud), -1)
    h = cloud.points[0].grid.h
    d = cdist(-pts, pts) * math.sqrt(h)
    assert d.min(axis=1).max() <= 1e-7


def test_attractor_collapses_below_bifurcation(grid48, scalar_mats):
    records, nl = census(grid48, 0.5, scalar_mats)
    lctx = ProcessContext(
        grid48, scalar_mats, nl, Constant(Field.zeros(grid48)), eps=0.0, dt=5e-3
    )
    cloud = sample_attractor(lctx, records, CloudParams(radius=1e-3, n_rays=4, t_grow=16.0))
    assert len(cloud) == 1
    assert cloud.points[0].l2() <= 1e-9


def test_forward_invariance(cloud48):
    # pushing every cloud point one unit forward stays within twice the
    # cloud's own sampling resolution
    _, _, lctx, cloud = cloud48
    moved = PointCloud(
        tuple(lctx.map(p, 0.0, 1.0) for p in cloud.points), dict(cloud.meta)
    )
    assert hausdorff_dist(moved, cloud) <= 2.0 * cloud_resolution(cloud)


def test_index_census_stable_under_refinement(scalar_mats):
    for lam in (0.5, 2.0, 5.0):
        coarse, _ = census(SpatialGrid(PI, 128), lam, scalar_mats)
        fine, _ = census(SpatialGrid(PI, 256), lam, scalar_mats)
        assert sorted(r.index for r in coarse) == sorted(r.index for r in fine)


# ---------------------------------------------------------------------------
# cloud distances


def test_hausdorff_trivial_cases(grid64):
    zero = Field.zeros(grid64)
    one = Field(grid64, np.ones((64, 1)))
    X = PointCloud((zero, one), {})
    assert hausdorff_dist(X, X) == 0.0
    # discrete norm of the all-ones field is sqrt(h n), about sqrt(pi)
    c = math.sqrt(grid64.h * 64)
    A = PointCloud((zero,), {})
    B = PointCloud((one,), {})
    assert hausdorff_dist(A, B) == pytest.approx(c, rel=1e-12)
    assert abs(c - math.sqrt(PI)) <= 0.02
    wide = PointCloud((zero, Field(grid64, 2.0 * np.ones((64, 1)))), {})
    assert hausdorff_dist(wide, B) == pytest.approx(c, rel=1e-12)
    assert hausdorff_dist(B, wide) == pytest.approx(c, rel=1e-12)
    assert symmetric_dist(wide, A) == pytest.approx(2 * c, rel=1e-12)
    assert symmetric_dist(A, wide) == pytest.approx(2 * c, rel=1e-12)


def test_cloud_validation(grid64, grid32):
    zero = Field.zeros(grid64)
    with pytest.raises(EmptyCloud):
        hausdorff_dist(PointCloud((), {}), PointCloud((zero,), {}))
    with pytest.raises(ShapeMismatch):
        hausdorff_dist(PointCloud((zero,), {}), PointCloud((Field.zeros(grid32),), {}))
    with pytest.raises(ShapeMismatch):
        PointCloud((zero, Field.zeros(grid32)), {})
    with pytest.raises(EmptyCloud):
        cloud_resolution(PointCloud((zero,), {}))


def test_cloud_resolution_two_points(grid64):
    a = Field.zeros(grid64)
    b = sine_field(grid64, [1.0])
    assert cloud_resolution(PointCloud((a, b), {})) == pytest.approx(b.l2(), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_symmetric_dist_metric_properties(seed):
    rng = np.random.default_rng(seed)
    grid = SpatialGrid(PI, 8)
    clouds = []
    for _ in range(3):
        count = int(rng.integers(1, 5))
        pts = tuple(Field(grid, rng.standard_normal((8, 1))) for _ in range(count))
        clouds.append(PointCloud(pts, {}))
    A, B, C = clouds
    assert symmetric_dist(A, B) == symmetric_dist(B, A)
    assert symmetric_dist(A, A) == 0.0
    assert symmetric_dist(A, C) <= symmetric_dist(A, B) + symmetric_dist(B, C) + 1e-12


# ---------------------------------------------------------------------------
# trajectory gaps and rate fits


def test_gap_vanishes_in_the_limit_case(grid48, scalar_mats, chafee2):
    ctx = ProcessContext(grid48, scalar_mats, chafee2, Constant(Field.zeros(grid48)), eps=0.0)
    series = trajectory_vs_limit(
        0.0, Constant(Field.zeros(grid48)), sine_field(grid48, [0.5]), 2.0, ctx
    )
    assert series.sup == 0.0
    assert np.all(series.gaps == 0.0)
    assert series.times[0] == 0.0 and series.times[-1] == pytest.approx(2.0)


def test_gap_on_a_stride_the_default_step_does_not_divide(grid32, scalar_mats, chafee2):
    # a stride of 1/3 is not a multiple of the default limit step 1e-3; both
    # sides still slice at the same multiples of the stride
    g = Constant(sine_field(grid32, [0.2]))
    ctx = ProcessContext(grid32, scalar_mats, chafee2, g, eps=0.1)
    series = trajectory_vs_limit(0.1, g, sine_field(grid32, [0.5]), 1.0, ctx, stride=1 / 3)
    np.testing.assert_allclose(series.times, [0.0, 1 / 3, 2 / 3, 1.0], rtol=0, atol=1e-12)
    assert series.gaps[0] == 0.0 and 0.0 < series.sup < 0.1


def test_gap_matches_modal_two_rate(grid64, scalar_mats):
    # f = 0, g = 0, data sin x: the eps-process decays at the bounded
    # characteristic root, the limit at -lambda_h; the gap curve is known
    nl = zero_nonlinearity()
    ctx = ProcessContext(grid64, scalar_mats, nl, Constant(Field.zeros(grid64)), eps=0.0)
    eps = 0.2
    series = trajectory_vs_limit(
        eps, Constant(Field.zeros(grid64)), sine_field(grid64, [1.0]), 3.0, ctx
    )
    lam = disc_eig(grid64, 1)
    mu = (1.0 - math.sqrt(1.0 + 4.0 * eps**2 * lam)) / (2.0 * eps**2)
    norm0 = sine_field(grid64, [1.0]).l2()
    expect = max(
        abs(math.exp(mu * t) - math.exp(-lam * t)) * norm0 for t in series.times
    )
    assert series.sup == pytest.approx(expect, rel=8e-2)


def test_gap_sees_the_fast_forcing(grid32, scalar_mats):
    # u0 = 0, zero mean forcing: the limit trajectory stays at rest while
    # the eps-process responds to sin(t / eps) with amplitude O(eps); a run
    # that forgot to rescale the profile would answer O(1) instead
    nl = zero_nonlinearity()
    eps = 0.1
    c = 0.5
    g = Periodic(Field.zeros(grid32), sine_field(grid32, [c]), 1.0)
    ctx = ProcessContext(grid32, scalar_mats, nl, Constant(Field.zeros(grid32)), eps=0.0)
    series = trajectory_vs_limit(eps, g, Field.zeros(grid32), 2.0, ctx)
    lam = disc_eig(grid32, 1)
    amp = c / math.hypot(1.0 + lam, 1.0 / eps) * math.sqrt(PI / 2.0)
    assert 0.2 * amp <= series.sup <= 2.5 * amp


def test_rate_fit_recovers_exact_power_law():
    eps = [0.4, 0.2, 0.1, 0.05]
    dist = [0.7 * e**0.5 for e in eps]
    fit = rate_fit(eps, dist)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-12)
    assert fit.max_residual <= 1e-12


def test_rate_fit_flat_data():
    fit = rate_fit([0.4, 0.2, 0.1], [0.3, 0.3, 0.3])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(NonPositiveData):
        rate_fit([0.4, 0.2, 0.1], [0.1, 0.0, 0.1])
    with pytest.raises(NonPositiveData):
        rate_fit([0.4, 0.2], [0.1, 0.1])


@settings(max_examples=30, deadline=None)
@given(slope=st.floats(-2.0, 2.0), logc=st.floats(-3.0, 3.0))
def test_rate_fit_property(slope, logc):
    eps = np.array([0.8, 0.4, 0.2, 0.1, 0.05])
    dist = math.exp(logc) * eps**slope
    fit = rate_fit(eps, dist)
    assert fit.slope == pytest.approx(slope, abs=1e-10)
    assert fit.max_residual <= 1e-10


# ---------------------------------------------------------------------------
# heteroclinic classification


@pytest.fixture(scope="module")
def origin_ray(cloud48, scalar_mats):
    """Trajectory riding the origin's unstable manifold to saturation."""
    records, nl, lctx, _ = cloud48
    origin = records[0]
    split = spectral_split(origin, scalar_mats, nl)
    grid = origin.z.grid
    v = split.v_plus[:, 0].reshape(grid.n_interior, 1)
    seed = Field(grid, origin.z.values + 1e-4 * v)
    return lctx.evolve(seed, 0.0, 20.0, 0.25), records


def test_classify_constant_trajectory(cloud48, grid48):
    records, _, _, _ = cloud48
    z = records[0].z
    times = np.arange(0.0, 6.0, 0.5)
    traj = Trajectory(grid48, times, np.repeat(z.values[None], times.size, axis=0))
    rep = heteroclinic_classify(traj, records)
    assert rep.alpha_limit == 0 and rep.omega_limit == 0
    assert not rep.distinct


def test_classify_manifold_ray(origin_ray, cloud48, scalar_mats):
    traj, records = origin_ray
    _, nl, _, _ = cloud48
    rep = heteroclinic_classify(traj, records)
    assert rep.alpha_limit == 0
    assert rep.omega_limit is not None and rep.omega_limit != 0
    assert rep.distinct
    # the energy functional decreases along the connection
    gbar = Field.zeros(traj.grid)
    lvals = [
        lyapunov_value(traj.field(j), scalar_mats, nl, gbar)
        for j in range(traj.times.shape[0])
    ]
    assert max(b - a for a, b in zip(lvals, lvals[1:])) <= 1e-8
    assert lvals[-1] < lvals[0]


def test_classify_truncated_run_unresolved(origin_ray):
    traj, records = origin_ray
    keep = traj.times <= 8.0
    head = Trajectory(traj.grid, traj.times[keep], traj.values[keep])
    rep = heteroclinic_classify(head, records)
    assert rep.omega_limit is None
    assert not rep.distinct


# ---------------------------------------------------------------------------
# periodic tracking


def test_tracking_unforced_fixed_point(cloud48, grid48, scalar_mats):
    records, nl, _, _ = cloud48
    plus = [r for r in records if r.index == 0 and float(np.sum(r.z.values)) > 0][0]
    ctx = ProcessContext(
        grid48, scalar_mats, nl, Constant(Field.zeros(grid48)), eps=0.0, margin=2.0
    )
    g = FastScaled(Periodic(Field.zeros(grid48), Field.zeros(grid48), 1.0), 0.1)
    track = track_periodic_solution(plus, g, 0.1, ctx)
    assert track.mode == "fixed-point"
    assert (track.fixed_point - plus.z).l2() <= 1e-6
    assert track.deviation <= 1e-6
    assert track.residual <= 1e-6


def test_tracking_deviation_shrinks_with_eps(cloud48, grid48, scalar_mats):
    records, nl, _, _ = cloud48
    plus = [r for r in records if r.index == 0 and float(np.sum(r.z.values)) > 0][0]
    ctx = ProcessContext(
        grid48, scalar_mats, nl, Constant(Field.zeros(grid48)), eps=0.0, margin=2.0
    )
    per = Periodic(Field.zeros(grid48), sine_field(grid48, [0.5]), 1.0)
    devs = []
    for eps in (0.2, 0.1):
        track = track_periodic_solution(plus, FastScaled(per, eps), eps, ctx)
        assert track.mode == "fixed-point"
        devs.append(track.deviation)
    assert devs[1] < devs[0]


def test_tracking_linear_response_closed_form(grid64, scalar_mats):
    # f = 0: the orbit of the first mode is an exact damped harmonic
    # response; compare every slice against it
    nl = zero_nonlinearity()
    records = find_equilibria(
        scalar_mats, nl, Field.zeros(grid64), rng=np.random.default_rng(0)
    )
    assert len(records) == 1 and records[0].index == 0
    origin = records[0]
    c = 0.4
    eps = 0.1
    period = 2.0 * PI * eps
    per = Periodic(Field.zeros(grid64), sine_field(grid64, [c]), 1.0)
    ctx = ProcessContext(
        grid64, scalar_mats, nl, Constant(Field.zeros(grid64)), eps=0.0,
        margin=2.0, dt=period / 64,
    )
    track = track_periodic_solution(origin, FastScaled(per, eps), eps, ctx)
    assert track.mode == "fixed-point"
    lam = disc_eig(grid64, 1)
    Y = c / complex(-1.0 - lam, -1.0 / eps)
    prof = np.sin(grid64.nodes)
    worst = 0.0
    for j, t in enumerate(track.orbit.times):
        expect = (Y * np.exp(1j * t / eps)).imag * prof
        got = track.orbit.values[j, :, 0]
        worst = max(worst, float(np.max(np.abs(got - expect))))
    assert worst <= 0.01 * abs(Y)


def test_tracking_quasiperiodic_stays_bounded(cloud48, grid48, scalar_mats):
    records, nl, _, _ = cloud48
    plus = [r for r in records if r.index == 0 and float(np.sum(r.z.values)) > 0][0]
    ctx = ProcessContext(
        grid48, scalar_mats, nl, Constant(Field.zeros(grid48)), eps=0.0, margin=2.0
    )
    g = FastScaled(
        Quasiperiodic(
            Field.zeros(grid48), sine_field(grid48, [0.3]), 1.0,
            sine_field(grid48, [0.2]), math.sqrt(2.0),
        ),
        0.1,
    )
    track = track_periodic_solution(plus, g, 0.1, ctx, t_track=10.0)
    assert track.mode == "bounded-tracking"
    assert track.fixed_point is None
    assert track.deviation <= 0.5
    assert math.isfinite(track.residual)


def test_tracking_coupled_system(grid32):
    # k = 2 with coupled diffusion: the k x k symbol solves of the periodic
    # preconditioner, then the banded far-margin window that checks them
    mats = CouplingMatrices(2, np.array([[1.0, 0.2], [0.2, 1.5]]), np.eye(2))
    nl = cubic_nonlinearity(2.0, k=2)
    records = find_equilibria(mats, nl, Field.zeros(grid32, 2), rng=np.random.default_rng(0))
    stable = [r for r in records if r.hyperbolic and r.index == 0][0]
    per = Periodic(Field.zeros(grid32, 2), sine_field(grid32, [[0.3, -0.2]], k=2), 1.0)
    ctx = ProcessContext(grid32, mats, nl, Constant(Field.zeros(grid32, 2)), eps=0.1)
    track = track_periodic_solution(stable, FastScaled(per, 0.1), 0.1, ctx)
    assert track.mode == "fixed-point"
    assert track.residual <= 1e-9


def test_tracking_in_the_papers_setting():
    # c08's problem with its forcing unscaled (period 2 pi) at eps 0.2, from
    # the origin: a whole-period window from a constant guess stalled there,
    # the periodic cylinder converges
    grid = SpatialGrid(PI, 64)
    nl = cubic_nonlinearity(2.0)
    mats = CouplingMatrices.scalar()
    g = Periodic(Field.zeros(grid), sine_field(grid, [0.5]), 1.0)
    records = find_equilibria(mats, nl, Field.zeros(grid), rng=np.random.default_rng(8))
    origin = [r for r in records if r.index == 1][0]
    ctx = ProcessContext(grid, mats, nl, g, eps=0.2)
    track = track_periodic_solution(origin, g, 0.2, ctx)
    assert track.mode == "fixed-point"
    assert track.residual <= 1e-9


def test_tracking_requires_hyperbolic(lam1_origin, grid128, scalar_mats):
    origin, nl = lam1_origin
    ctx = ProcessContext(grid128, scalar_mats, nl, Constant(Field.zeros(grid128)), eps=0.0)
    with pytest.raises(NotHyperbolic):
        track_periodic_solution(origin, Constant(Field.zeros(grid128)), 0.1, ctx)


def test_stalled_period_map_newton_is_fixed_point_diverged(
    cloud48, grid48, scalar_mats, tmp_path, monkeypatch
):
    # Newton on the periodic cylinder stalls: tracking raises the library's
    # FixedPointDiverged, and a periodic-orbit cell reports it
    from cylinderlab import FixedPointDiverged, NewtonDiverged, load_config, run

    def stalled(*args, **kwargs):
        raise NewtonDiverged("no convergence in 25 iterations, residual 4.980e-01", [1.0, 0.498])

    monkeypatch.setattr(dynamics, "solve_periodic_bvp", stalled)
    records, nl, _, _ = cloud48
    plus = [r for r in records if r.index == 0 and float(np.sum(r.z.values)) > 0][0]
    ctx = ProcessContext(
        grid48, scalar_mats, nl, Constant(Field.zeros(grid48)), eps=0.0, margin=2.0
    )
    per = Periodic(Field.zeros(grid48), sine_field(grid48, [0.5]), 1.0)
    with pytest.raises(FixedPointDiverged, match="period map Newton stalled near the equilibrium"):
        track_periodic_solution(plus, FastScaled(per, 0.1), 0.1, ctx)

    cfg = {
        "version": 1,
        "kind": "converge",
        "experiment": "periodic-orbit",
        "problem": {"length": PI, "n_interior": 16, "nonlinearity": {"id": "cubic", "lam": 2.0}},
        "forcing": {
            "type": "periodic",
            "mean": {"kind": "sine", "coeffs": [0.0]},
            "osc": {"kind": "sine", "coeffs": [0.5]},
            "omega": 1.0,
        },
        "eps_list": [0.2],
        "seed": 8,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    report = run(load_config(str(path)), fixed_clock=True)
    (tracking,) = [t for t in report.tables if t.name == "tracking"]
    modes = [row[2] for row in tracking.rows]
    assert modes and all(mode == "failed: FixedPointDiverged" for mode in modes)
    assert not report.all_pass


# ---------------------------------------------------------------------------
# sweep experiments


def test_distance_sweep_refuses_degenerate_limit(grid128, scalar_mats):
    nl = cubic_nonlinearity(1.0)
    ctx = ProcessContext(grid128, scalar_mats, nl, Constant(Field.zeros(grid128)), eps=0.0)
    with pytest.raises(NonHyperbolicLimit):
        attractor_distance_experiment([0.2, 0.1], Constant(Field.zeros(grid128)), ctx)


def test_distance_sweep_rejects_nonpositive_eps(grid32, scalar_mats):
    ctx = ProcessContext(
        grid32, scalar_mats, cubic_nonlinearity(2.0), Constant(Field.zeros(grid32)), eps=0.0
    )
    with pytest.raises(ValueError):
        attractor_distance_experiment([0.2, 0.0], Constant(Field.zeros(grid32)), ctx)


def test_distance_sweep_zero_forcing_rate(grid32, scalar_mats):
    # with g = 0 the eps-attractor differs from the limit only through the
    # process itself; the distance decays with slope near 1 in eps
    nl = cubic_nonlinearity(2.0)
    ctx = ProcessContext(grid32, scalar_mats, nl, Constant(Field.zeros(grid32)), eps=0.0)
    sweep = attractor_distance_experiment(
        [0.6, 0.45, 0.3],
        Constant(Field.zeros(grid32)),
        ctx,
        CloudParams(radius=0.25, n_rays=8, t_grow=12.0, stride=0.25),
    )
    assert sweep.monotone
    assert sweep.fit is not None and sweep.fit.slope >= 0.9
    assert sweep.fit.max_residual <= 0.25
    assert all(d > 0 for _, d in sweep.rows)


@pytest.mark.parametrize("kind", ["distance-sweep", "attractor-mean"])
def test_limit_census_is_seeded_from_the_config(tmp_path, monkeypatch, kind):
    # the limit census draws its random seeds from the config seed, so two
    # runs see the same generator state and find the same equilibria
    from cylinderlab import dynamics, load_config, run

    calls = []
    census_fn = dynamics.find_equilibria

    def spy(*args, rng=None, **kwargs):
        state = None if rng is None else rng.bit_generator.state
        records = census_fn(*args, rng=rng, **kwargs)
        calls.append((state, [(r.index, r.z.values.tobytes()) for r in records]))
        return records

    monkeypatch.setattr(dynamics, "find_equilibria", spy)
    cfg = {
        "version": 1,
        "kind": "attractor" if kind == "distance-sweep" else "average",
        "experiment": kind,
        "problem": {"length": PI, "n_interior": 16, "nonlinearity": {"id": "cubic", "lam": 2.0}},
        "forcing": {
            "type": "periodic",
            "mean": {"kind": "sine", "coeffs": [0.0]},
            "osc": {"kind": "sine", "coeffs": [0.5]},
            "omega": 6.283185307179586,
        },
        "eps_list": [0.6, 0.45, 0.3],
        "params": {"radius": 0.25, "n_rays": 2, "t_grow": 0.5},
        "seed": 4,
        "out_dir": str(tmp_path / "out"),
    }
    if kind == "attractor-mean":
        cfg["params"]["window0"] = 1.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for _ in range(2):
        run(load_config(str(path)), fixed_clock=True)
    assert len(calls) == 2
    assert calls[0][0] is not None
    assert calls[0] == calls[1]
