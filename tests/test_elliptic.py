import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from cylinderlab import (
    Constant,
    CouplingMatrices,
    CylinderGrid,
    DegenerateData,
    FastScaled,
    Field,
    NewtonDiverged,
    NewtonOptions,
    Periodic,
    ProcessContext,
    SpatialGrid,
    StepOptions,
    cubic_nonlinearity,
    default_dt,
    find_equilibria,
    linear_nonlinearity,
    process_map,
    regularity_probe,
    semigroup_evolve,
    sine_field,
    solve_truncated_bvp,
    spectral_split,
    track_periodic_solution,
    variational_process,
    zero_nonlinearity,
)
from cylinderlab import elliptic
from cylinderlab.elliptic import _factor_solve, _PeriodicSystem, _SpaceTimeSystem, solve_periodic_bvp
from conftest import PI, disc_eig


def decay_root(eps: float, lam: float) -> float:
    """Decaying characteristic root of eps^2 y'' - y' - lam y = 0."""
    if eps == 0.0:
        return -lam
    return (1.0 - math.sqrt(1.0 + 4.0 * eps**2 * lam)) / (2.0 * eps**2)


def zero_forcing(grid, k=1):
    return Constant(Field.zeros(grid, k))


def mode_amplitude(eps: float, lam: float, t_len: float, times: np.ndarray) -> np.ndarray:
    """y(t) with eps^2 y'' - y' - lam y = 0, y(0) = 1 and y'(t_len) = 0.

    The growing root enters as exp(mu+ (t - t_len)) so nothing overflows.
    """
    s = math.sqrt(1.0 + 4.0 * eps**2 * lam)
    mu_m, mu_p = (1.0 - s) / (2.0 * eps**2), (1.0 + s) / (2.0 * eps**2)
    ratio = mu_m / mu_p
    amp = 1.0 / (1.0 - ratio * math.exp((mu_m - mu_p) * t_len))
    return amp * (np.exp(mu_m * times) - ratio * np.exp(mu_m * t_len + mu_p * (times - t_len)))


def mode_error(n: int, m: int, eps: float, lam_of) -> float:
    """Max nodal error of the f = 0 cylinder solve from the first sine mode."""
    grid = SpatialGrid(math.pi, n)
    u_tau = sine_field(grid, [1.0])
    cg = CylinderGrid(0.0, 1.0, m, eps)
    u = solve_truncated_bvp(
        grid, cg, CouplingMatrices.scalar(), zero_nonlinearity(), zero_forcing(grid), u_tau
    )
    exact = mode_amplitude(eps, lam_of(grid), cg.t_len, cg.times)[:, None, None] * u_tau.values
    return float(np.max(np.abs(u.values - exact)))


def test_default_dt_policy():
    assert default_dt(0.0) == 1e-3
    assert default_dt(0.04) == pytest.approx(0.01)
    assert default_dt(0.8) == pytest.approx(1.0 / 64.0)


def test_solve_zero_data_is_zero(grid32, scalar_mats, chafee2):
    cg = CylinderGrid(0.0, 2.0, 64, 0.2)
    u = solve_truncated_bvp(
        grid32, cg, scalar_mats, chafee2, zero_forcing(grid32), Field.zeros(grid32)
    )
    assert np.max(np.abs(u.values)) <= 1e-10


def test_solve_modal_decay():
    # f = 0, u_tau = sin x: the solution follows e^{mu(eps) t} sin x with the
    # decaying root of the characteristic polynomial, within 1% at t = 1
    grid = SpatialGrid(PI, 200)
    mats = CouplingMatrices.scalar()
    nl = zero_nonlinearity()
    u_tau = sine_field(grid, [1.0])
    eps = 0.1
    cg = CylinderGrid(0.0, 2.0, 200, eps)
    u = solve_truncated_bvp(grid, cg, mats, nl, zero_forcing(grid), u_tau)
    mu = decay_root(eps, 1.0)
    got = u.slice(100)  # t = 1
    expect = math.exp(mu) * u_tau.values
    rel = np.max(np.abs(got.values - expect)) / math.exp(mu)
    assert rel <= 0.01


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 127, 200])
def test_sine_matrix_is_the_orthonormal_dst_one(n):
    # the closed form against scipy's DST-I of the identity: exactly
    # symmetric and its own inverse to rounding
    from scipy.fft import dst

    grid, eye = SpatialGrid(PI, n), np.eye(1)
    sine = elliptic._pde_part(grid, 0.1, 0.2, eye, eye, np.arange(1, 2), 3)[1]
    assert np.max(np.abs(sine - dst(np.eye(n), type=1, norm="ortho", axis=0))) <= 1e-15
    np.testing.assert_array_equal(sine, sine.T)
    assert np.max(np.abs(sine @ sine - np.eye(n))) <= 1e-14


def test_space_time_second_order_in_dt():
    # the discrete eigenvalue makes the exact mode solution the semi-discrete
    # one, so the error is the time discretization error alone: central
    # differences and the one-sided far condition are second order
    errs = [mode_error(31, m, 0.5, disc_eig) for m in (32, 64, 128, 256)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 <= q <= 2.2 for q in orders), orders


def test_space_time_second_order_in_h():
    # against the continuum mode (lam = 1) with dt refined along with h; the
    # dt order is pinned above, so a joint order of two pins the h order
    levels = ((15, 16), (31, 32), (63, 64), (127, 128))
    errs = [mode_error(n, m, 0.5, lambda grid: 1.0) for n, m in levels]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 <= q <= 2.2 for q in orders), orders


def test_solve_meets_initial_slice_exactly(grid48, scalar_mats, chafee2):
    u_tau = sine_field(grid48, [0.7, 0.1])
    cg = CylinderGrid(0.0, 1.0, 32, 0.25)
    g = Periodic(Field.zeros(grid48), sine_field(grid48, [0.3]), 1.0)
    u = solve_truncated_bvp(grid48, cg, scalar_mats, chafee2, g, u_tau)
    np.testing.assert_array_equal(u.values[0], u_tau.values)


def test_eps_zero_delegates_to_semigroup(grid48, scalar_mats, chafee2):
    # the eps = 0 cylinder solve must agree with the parabolic march driven
    # by the sign-flipped forcing, slice for slice; the eps = 0 process map
    # and evolve are that march and its every-16th slice, bit for bit
    u_tau = sine_field(grid48, [0.5])
    for g, opts in (
        (Constant(sine_field(grid48, [0.3])), NewtonOptions()),
        (
            Periodic(sine_field(grid48, [0.1]), sine_field(grid48, [0.0, 0.4]), 3.0),
            NewtonOptions(tol_residual=1e-10),
        ),
    ):
        cg = CylinderGrid(0.0, 2.0, 128, 0.0)
        u = solve_truncated_bvp(grid48, cg, scalar_mats, chafee2, g, u_tau, opts=opts)
        step = StepOptions(dt=2.0 / 128, newton=opts)
        traj = semigroup_evolve(u_tau, 2.0, step, scalar_mats, chafee2, -g)
        assert traj.values.shape == u.values.shape
        assert np.max(np.abs(traj.values - u.values)) <= 1e-12
        assert traj.values.tobytes() == u.values.tobytes()

        ctx = ProcessContext(grid48, scalar_mats, chafee2, g, eps=0.0, opts=opts, dt=1.0 / 64)
        limit = semigroup_evolve(
            u_tau, 1.5, StepOptions(1.0 / 64, opts), scalar_mats, chafee2, -g, tau=0.5
        )
        mapped = process_map(u_tau, 0.5, 2.0, ctx)
        assert mapped.values.tobytes() == limit.values[-1].tobytes()
        got = ctx.evolve(u_tau, 0.5, 1.5, 0.25)
        assert got.times.tobytes() == limit.times[::16].tobytes()
        assert got.values.tobytes() == limit.values[::16].tobytes()


def test_warm_restart_is_a_fixed_point(grid48, scalar_mats, chafee2):
    # re-solving from the converged solution must not move it by more than
    # ten times the Newton residual tolerance
    tol = 1e-9
    opts = NewtonOptions(tol_residual=tol)
    u_tau = sine_field(grid48, [0.6])
    cg = CylinderGrid(0.0, 1.0, 64, 0.2)
    g = zero_forcing(grid48)
    u1 = solve_truncated_bvp(grid48, cg, scalar_mats, chafee2, g, u_tau, opts=opts)
    u2 = solve_truncated_bvp(
        grid48, cg, scalar_mats, chafee2, g, u_tau, opts=opts, guess=u1.values
    )
    assert np.max(np.abs(u2.values - u1.values)) <= 10 * tol


def test_newton_divergence_surfaces(grid32, scalar_mats, chafee2):
    u_tau = sine_field(grid32, [2.0])
    cg = CylinderGrid(0.0, 1.0, 32, 0.3)
    tiny = NewtonOptions(tol_residual=1e-14, max_iters=1)
    with pytest.raises(NewtonDiverged) as ei:
        solve_truncated_bvp(
            grid32, cg, scalar_mats, chafee2, zero_forcing(grid32), u_tau, opts=tiny
        )
    assert len(ei.value.trace) >= 1


# ---------------------------------------------------------------------------
# solving process


@pytest.fixture(scope="module")
def process48(grid48, scalar_mats):
    nl = cubic_nonlinearity(1.0)
    g = Periodic(Field.zeros(grid48), sine_field(grid48, [0.3]), 1.0)
    return ProcessContext(grid48, scalar_mats, nl, g, eps=0.1)


def test_process_map_identity(process48, grid48):
    u0 = sine_field(grid48, [0.4])
    assert process_map(u0, 2.0, 2.0, process48) is u0
    with pytest.raises(ValueError):
        process_map(u0, 1.0, 0.0, process48)


def test_process_cocycle(process48, grid48):
    # two-hop composition through s agrees with the direct solve over [tau, t]
    u0 = sine_field(grid48, [0.5])
    tau, s, t = 0.0, 1.5, 4.0
    direct = process_map(u0, tau, t, process48)
    hop = process_map(process_map(u0, tau, s, process48), s, t, process48)
    assert (direct - hop).l2() <= 1e-4


def test_process_evolve_slices(process48, grid48):
    u0 = sine_field(grid48, [0.5])
    traj = process48.evolve(u0, 0.0, 2.0, stride=0.5)
    np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)
    end = process_map(u0, 0.0, 2.0, process48)
    assert (traj.field(-1) - end).l2() <= 1e-4


def test_margin_insensitivity(process48, grid48):
    # the reported slice sits a margin away from the far boundary; doubling
    # that margin must not move it beyond the far-field contamination bound
    u0 = sine_field(grid48, [0.5])
    wide = replace(process48, margin=4.0)
    a = process_map(u0, 0.0, 1.0, process48)
    b = process_map(u0, 0.0, 1.0, wide)
    assert (a - b).l2() <= 1e-5


def test_far_condition_insensitivity(grid48, scalar_mats):
    # the cylinder is semi-infinite and u stays bounded, so on a sine mode
    # with f = c u the discrete solution is r^j u0, r the root of modulus < 1
    # of the PDE row's stencil (A - B) r^2 + (mu - 2A) r + (A + B) with
    # A = eps^2/dt^2, B = 1/(2dt), mu = lam_1 - c; the one far row, a margin
    # behind the mapped slice, must leave that slice on this solution
    u0 = sine_field(grid48, [0.5])
    for c in (0.0, 1.0):
        ctx = ProcessContext(
            grid48, scalar_mats, linear_nonlinearity(c), zero_forcing(grid48), eps=0.1
        )
        dt, steps = elliptic._window_grid(1.0, ctx)
        big, b = ctx.eps**2 / dt**2, 1.0 / (2.0 * dt)
        mu = -disc_eig(grid48) - c
        r = float(min(np.roots([big - b, mu - 2.0 * big, big + b]), key=abs))
        assert abs(r) < 1.0
        got = process_map(u0, 0.0, 1.0, ctx)
        assert rel_gap(got.values, r**steps * u0.values) <= 1e-10


def test_injectivity_probe(process48, grid48):
    # distinct data stay distinct after a unit of time (backward uniqueness)
    u0 = sine_field(grid48, [0.5])
    v0 = sine_field(grid48, [0.501])
    a = process_map(u0, 0.0, 1.0, process48)
    b = process_map(v0, 0.0, 1.0, process48)
    assert (a - b).l2() >= 1e-5


def test_monotone_decay_without_forcing(grid48, scalar_mats):
    # stable well (lam = 0.5 keeps all modes damped), g = 0: norms decay
    nl = cubic_nonlinearity(0.5)
    ctx = ProcessContext(grid48, scalar_mats, nl, zero_forcing(grid48), eps=0.1)
    traj = ctx.evolve(sine_field(grid48, [0.8]), 0.0, 3.0, stride=0.5)
    norms = [traj.field(j).l2() for j in range(traj.times.shape[0])]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_discrete_cascade_identity(process48, grid48):
    # the discrete cascade is unit hops of process_map; zero hops
    # return the input itself, and a slice before the start is refused
    u = sine_field(grid48, [0.4])
    assert process_map(u, 3.0, 3.0, process48) is u
    with pytest.raises(ValueError):
        process_map(u, 2.0, 1.0, process48)


def test_discrete_cascade_two_hops(process48, grid48):
    u = sine_field(grid48, [0.4])
    stepped = process_map(process_map(u, 0.0, 1.0, process48), 1.0, 2.0, process48)
    direct = process_map(u, 0.0, 2.0, process48)
    assert (stepped - direct).l2() <= 1e-4


# ---------------------------------------------------------------------------
# variational solution


def test_variational_zero_direction(grid48, scalar_mats, chafee2):
    cg = CylinderGrid(0.0, 1.0, 32, 0.2)
    u_tau = sine_field(grid48, [0.5])
    base = solve_truncated_bvp(
        grid48, cg, scalar_mats, chafee2, zero_forcing(grid48), u_tau
    )
    v = variational_process(base, Field.zeros(grid48), scalar_mats, chafee2)
    assert np.max(np.abs(v.values)) == 0.0


def test_variational_equals_difference_for_linear_f(grid48, scalar_mats):
    nl = linear_nonlinearity(1.0)
    g = Constant(sine_field(grid48, [0.2]))
    u_tau = sine_field(grid48, [0.5])
    xi = sine_field(grid48, [0.0, 1.0])
    cg = CylinderGrid(0.0, 1.0, 64, 0.2)
    base = solve_truncated_bvp(grid48, cg, scalar_mats, nl, g, u_tau)
    shifted = solve_truncated_bvp(grid48, cg, scalar_mats, nl, g, u_tau + xi)
    v = variational_process(base, xi, scalar_mats, nl)
    assert np.max(np.abs(shifted.values - base.values - v.values)) <= 1e-7


def test_variational_frechet_ratio(grid48, scalar_mats):
    # divided differences of the nonlinear solve approach the variational
    # solution at rate O(delta): shrinking delta tenfold shrinks the error
    # by a factor in [5, 20]
    nl = cubic_nonlinearity(1.0)
    g = Constant(sine_field(grid48, [0.3]))
    u_tau = sine_field(grid48, [0.5])
    xi = sine_field(grid48, [1.0])
    cg = CylinderGrid(0.0, 1.0, 64, 0.1)
    tight = NewtonOptions(tol_residual=1e-12)
    base = solve_truncated_bvp(grid48, cg, scalar_mats, nl, g, u_tau, opts=tight)
    v = variational_process(base, xi, scalar_mats, nl)

    def dd_err(delta):
        pert = solve_truncated_bvp(
            grid48, cg, scalar_mats, nl, g, u_tau + delta * xi, opts=tight
        )
        dd = (pert.values - base.values) / delta
        per_slice = np.sqrt(grid48.h * np.sum((dd - v.values) ** 2, axis=(1, 2)))
        return float(per_slice.max())

    ratio = dd_err(1e-3) / dd_err(1e-4)
    assert 5.0 <= ratio <= 20.0


# ---------------------------------------------------------------------------
# Newton step: preconditioned GMRES with the sparse LU as fallback


@pytest.fixture
def splu_calls(monkeypatch):
    """Count the sparse factorizations the elliptic solver makes."""
    calls = []

    def spy(jac):
        calls.append(jac.shape)
        return splu(jac)

    monkeypatch.setattr(elliptic, "splu", spy)
    return calls


def coupled_problem(grid):
    """k = 2 with non-diagonal a and gamma, cubic f, periodic forcing."""
    mats = CouplingMatrices(
        2, np.array([[1.0, 0.4], [-0.3, 0.8]]), np.array([[1.0, 0.3], [0.3, 1.6]])
    )
    nl = cubic_nonlinearity(2.0, k=2)
    g = Periodic(Field.zeros(grid, 2), sine_field(grid, [[0.3, -0.2]], k=2), 1.0)
    u_tau = sine_field(grid, [[0.8, 0.5], [0.0, 0.3]], k=2)
    return mats, nl, g, u_tau


def rel_gap(x, ref) -> float:
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


# the id names the one far condition, du/dt = 0
@pytest.mark.parametrize("far_kind", ["zero-derivative"])
def test_coupled_step_matches_sparse_lu(grid32, far_kind, splu_calls):
    mats, nl, g, u_tau = coupled_problem(grid32)
    cg = CylinderGrid(0.0, 1.5, 48, 0.2)
    system = _SpaceTimeSystem(grid32, cg, mats, nl, g, u_tau)
    rng = np.random.default_rng(5)
    u = np.broadcast_to(u_tau.values, system.shape3).ravel() + 0.3 * rng.standard_normal(
        system.b.shape
    )
    r = system.residual(u)
    dx = system.solve(u, -r)
    assert splu_calls == []  # the Krylov path solved it
    assert rel_gap(dx, _factor_solve(system.jacobian(u), -r)) <= 1e-10

    base = solve_truncated_bvp(grid32, cg, mats, nl, g, u_tau)
    xi = sine_field(grid32, [[1.0, 0.0], [0.0, -0.5]], k=2)
    del splu_calls[:]
    v = variational_process(base, xi, mats, nl)
    assert splu_calls == []
    ref_system = _SpaceTimeSystem(grid32, cg, mats, nl, zero_forcing(grid32, 2), xi)
    rhs = np.zeros(ref_system.shape3)
    rhs[0] = xi.values
    ref = _factor_solve(ref_system.jacobian(base.values), rhs.ravel())
    assert rel_gap(v.values.ravel(), ref) <= 1e-10


def test_scalar_window_needs_no_factorization(grid64, scalar_mats, chafee2, splu_calls):
    # an attractor-sweep window: eps = 0.05, one time unit plus the margin
    g = Periodic(Field.zeros(grid64), sine_field(grid64, [0.5]), 1.0)
    ctx = ProcessContext(grid64, scalar_mats, chafee2, g, eps=0.05)
    u1 = process_map(sine_field(grid64, [1.2, 0.0, 0.4]), 0.0, 1.0, ctx)
    assert np.all(np.isfinite(u1.values))
    assert splu_calls == []


def scalar_system(grid, mats=None):
    """k = 1 window with cubic f and periodic forcing."""
    g = Periodic(Field.zeros(grid), sine_field(grid, [0.5]), 1.0)
    return _SpaceTimeSystem(
        grid, CylinderGrid(0.0, 1.5, 48, 0.2), mats or CouplingMatrices.scalar(),
        cubic_nonlinearity(2.0), g, sine_field(grid, [0.9, 0.2]),
    )


@pytest.mark.parametrize("far_kind", ["zero-derivative"])
def test_tridiagonal_mode_solve_matches_band_solve(grid32, far_kind):
    # the far-row operation and one tridiagonal solve of all modes give the
    # banded LU's answer; a and gamma away from 1 keep the weight nontrivial
    mats = CouplingMatrices(1, np.array([[1.3]]), np.array([[0.7]]))
    system = scalar_system(grid32, mats)
    band, kl, ku, cols = system._band, system._kl, system._ku, system._diag_cols
    rng = np.random.default_rng(3)
    fbar = rng.uniform(-3.0, 1.0, (system.m - 1, 1, 1))  # the mean f' varies per slice
    z = rng.standard_normal((system.n, system.m + 1))
    ab = band.copy(order="F")
    ab[kl + ku, cols[0]] -= fbar[:, 0, 0]
    lu, piv, info = elliptic._GBTRF(ab, kl, ku)
    assert info == 0
    ref = elliptic._GBTRS(lu, kl, ku, z.ravel(), piv)[0]
    x = elliptic._mode_solver(band, kl, ku, cols, fbar)(z.copy())
    assert rel_gap(np.ravel(x), ref) <= 1e-13


@pytest.mark.parametrize("far_kind", ["zero-derivative"])
def test_scalar_step_matches_sparse_lu(grid32, far_kind, splu_calls):
    system = scalar_system(grid32)
    rng = np.random.default_rng(8)
    u_tau = system.b.reshape(system.shape3)[0]
    u = np.broadcast_to(u_tau, system.shape3).ravel() + 0.3 * rng.standard_normal(system.b.shape)
    r = system.residual(u)
    dx = system.solve(u, -r)
    assert splu_calls == []  # the Krylov path solved it
    assert rel_gap(dx, _factor_solve(system.jacobian(u), -r)) <= 1e-10


def test_gmres_returns_its_true_residual():
    # the residual check of a Newton step reuses the r GMRES hands back
    rng = np.random.default_rng(2)
    mat = np.eye(80) * 4.0 + rng.standard_normal((80, 80)) / 10.0
    b = rng.standard_normal(80)
    for rtol in (elliptic._KRYLOV_RTOL, elliptic._ETA_MAX):
        x, r, converged = elliptic._gmres(lambda v: mat @ v, lambda v: v / 4.0, b, rtol)
        assert converged
        np.testing.assert_allclose(r, b - mat @ x, rtol=0.0, atol=1e-15)
        assert np.linalg.norm(r) <= rtol * np.linalg.norm(b)


@pytest.mark.parametrize("failure", ["gmres-info", "residual-check", "loose-step"])
def test_failed_krylov_step_falls_back_to_sparse_lu(
    grid32, scalar_mats, chafee2, monkeypatch, splu_calls, failure
):
    def broken_gmres(apply, precondition, b, rtol):
        # GMRES admits failure; or it claims success with a result whose
        # true residual is far off; or, on a loose Newton step, with a result
        # whose true residual is twice the check scaled to that tolerance
        if failure == "gmres-info":
            return np.zeros_like(b), b, False
        if failure == "residual-check":
            x = 0.5 * b
        else:
            scale = elliptic._KRYLOV_CHECK * rtol / elliptic._KRYLOV_RTOL
            x = (1.0 - 2.0 * scale) * splu(system.jacobian(u)).solve(b)
        return x, b - apply(x), True

    monkeypatch.setattr(elliptic, "_gmres", broken_gmres)
    u_tau = sine_field(grid32, [0.9, 0.2])
    cg = CylinderGrid(0.0, 1.0, 40, 0.2)
    system = _SpaceTimeSystem(
        grid32, cg, scalar_mats, chafee2, zero_forcing(grid32), u_tau
    )
    u = np.broadcast_to(u_tau.values, system.shape3).ravel().copy()
    r = system.residual(u)
    if failure == "loose-step":
        dx = system.solve(u, -r, elliptic._ETA_MAX)
    else:
        dx = system.solve(u, -r)
    assert len(splu_calls) == 1
    np.testing.assert_array_equal(dx, splu(system.jacobian(u)).solve(-r))


# ---------------------------------------------------------------------------
# periodic cylinder


def test_periodic_solve_matches_discrete_symbol(grid32, scalar_mats):
    # f = 0 and g = c sin(t / eps) phi_1 over one period of span steps: the
    # periodic slices are the exact discrete response Im(Y e^{i theta j}) phi_1,
    # theta = 2 pi / span and Y = c / symbol(theta, p = 1)
    c, eps, span = 0.4, 0.1, 40
    g = FastScaled(Periodic(Field.zeros(grid32), sine_field(grid32, [c]), 1.0), eps)
    cg = CylinderGrid(0.0, g.period, span, eps)
    sol = solve_periodic_bvp(grid32, cg, scalar_mats, zero_nonlinearity(), g, Field.zeros(grid32))
    theta, dt = 2.0 * PI / span, cg.dt
    symbol = complex(
        (eps / dt) ** 2 * (2.0 * math.cos(theta) - 2.0) - disc_eig(grid32, 1),
        -math.sin(theta) / dt,
    )
    y = c / symbol
    expect = np.outer((y * np.exp(1j * theta * np.arange(span + 1))).imag, np.sin(grid32.nodes))
    assert np.max(np.abs(sol.values[:, :, 0] - expect)) <= 1e-10 * abs(y)


@pytest.mark.parametrize("k", [1, 2])
def test_periodic_step_matches_sparse_lu(grid32, k, splu_calls):
    # the rfft preconditioner with mean f' drives GMRES to the LU answer of
    # the assembled periodic Jacobian, for a scalar and a coupled problem
    if k == 1:
        mats, nl = CouplingMatrices.scalar(), cubic_nonlinearity(2.0)
        g = Periodic(Field.zeros(grid32), sine_field(grid32, [0.5]), 1.0)
        u_tau = sine_field(grid32, [0.9, 0.2])
    else:
        mats, nl, g, u_tau = coupled_problem(grid32)
    system = _PeriodicSystem(grid32, CylinderGrid(0.0, 2.0 * PI, 96, 0.2), mats, nl, g)
    rng = np.random.default_rng(8)
    u = np.broadcast_to(u_tau.values, system.shape3).ravel() + 0.3 * rng.standard_normal(
        system.b.shape
    )
    r = system.residual(u)
    dx = system.solve(u, -r)
    assert splu_calls == []  # the Krylov path solved it
    assert rel_gap(dx, _factor_solve(system.jacobian(u), -r)) <= 1e-10


@pytest.mark.parametrize("k", [1, 2])
def test_periodic_preconditioner_matches_scipy_fft(grid32, k):
    # the preconditioner's numpy rfft and DST-I matrix against scipy.fft's
    # transforms applied to the same mode symbols
    import scipy.fft

    if k == 1:
        mats, nl = CouplingMatrices.scalar(), cubic_nonlinearity(2.0)
        g = Periodic(Field.zeros(grid32), sine_field(grid32, [0.5]), 1.0)
    else:
        mats, nl, g, _ = coupled_problem(grid32)
    system = _PeriodicSystem(grid32, CylinderGrid(0.0, 2.0 * PI, 96, 0.2), mats, nl, g)
    m, n, _ = system.shape3
    rng = np.random.default_rng(11)
    fp = nl.jac_f(0.5 * rng.standard_normal(system.shape3))
    y = rng.standard_normal(system.b.shape)
    inverse = np.linalg.inv(system._symbol - fp.mean(axis=(0, 1)))

    def dst(z):
        return scipy.fft.dst(z, type=1, norm="ortho", axis=0)

    zh = scipy.fft.rfft(dst(y.reshape(m, n, k).transpose(1, 0, 2)), axis=1)
    ref = dst(scipy.fft.irfft(np.einsum("pqcd,pqd->pqc", inverse, zh), n=m, axis=1))
    got = system._preconditioner(fp)(y)
    assert rel_gap(got, ref.transpose(1, 0, 2).ravel()) <= 1e-14


# ---------------------------------------------------------------------------
# operator cache


@pytest.fixture
def operator_builds():
    """Builds of the shape-only space-time operator since a cold cache."""
    elliptic._space_time_operator.cache_clear()
    return lambda: elliptic._space_time_operator.cache_info().misses


@pytest.mark.parametrize("t_end,builds", [(3.0, 1), (2.5, 2)])
def test_evolve_builds_one_operator_per_window_shape(
    grid32, scalar_mats, chafee2, operator_builds, t_end, builds
):
    # three full windows share one shape; 2.5 adds a half window of its own
    ctx = ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=0.1)
    ctx.evolve(sine_field(grid32, [0.5, 0.2]), 0.0, t_end, 0.25)
    assert operator_builds() == builds


def test_period_map_calls_share_one_operator(grid32, scalar_mats, operator_builds, monkeypatch):
    nl = zero_nonlinearity()
    (origin,) = find_equilibria(scalar_mats, nl, Field.zeros(grid32), rng=np.random.default_rng(0))
    ctx = ProcessContext(grid32, scalar_mats, nl, zero_forcing(grid32), eps=0.1)
    per = Periodic(Field.zeros(grid32), sine_field(grid32, [0.4]), 1.0)
    calls = []
    real = elliptic._SpaceTimeSystem

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(elliptic, "_SpaceTimeSystem", spy)
    track = track_periodic_solution(origin, FastScaled(per, 0.1), 0.1, ctx)
    assert track.mode == "fixed-point"
    assert len(calls) == 1  # the periodic solve builds none; the check window one
    assert operator_builds() == 1


def test_cached_operator_gives_the_cold_result(grid32, scalar_mats, chafee2, operator_builds):
    # the same window from a cold cache and after another window of its
    # shape, with other data and another forcing start, is bit-for-bit equal
    g = Periodic(Field.zeros(grid32), sine_field(grid32, [0.5]), 1.0)
    u_tau = sine_field(grid32, [0.9, 0.2])

    def window(tau, u):
        cg = CylinderGrid(tau, 1.5, 96, 0.1)
        return solve_truncated_bvp(grid32, cg, scalar_mats, chafee2, g, u).values

    cold = window(0.0, u_tau)
    window(0.7, sine_field(grid32, [-0.4, 0.0, 0.3]))
    warm = window(0.0, u_tau)
    assert operator_builds() == 1
    assert np.array_equal(cold, warm)


def test_cached_operator_is_read_only(grid32, scalar_mats, chafee2):
    cg = CylinderGrid(0.0, 1.0, 40, 0.2)
    system = _SpaceTimeSystem(
        grid32, cg, scalar_mats, chafee2, zero_forcing(grid32), sine_field(grid32, [0.5])
    )
    lin = system.lin
    shared = [lin.data, lin.indices, lin.indptr, system._band, system._sine]
    shared += [system._jac_rows, system._jac_cols, *system._diag_cols]
    for arr in shared:
        first = (0,) * arr.ndim
        with pytest.raises(ValueError):
            arr[first] = arr[first]


def test_threads_share_the_cached_operator(grid32, scalar_mats, chafee2, operator_builds):
    # more threads than cores solve windows of two shapes from a cold cache,
    # switching often; each result matches its serial run bit for bit
    g = zero_forcing(grid32)
    jobs = [(m, sine_field(grid32, [0.3 + 0.1 * i])) for i in range(6) for m in (48, 64)]

    def solve(m, u):
        cg = CylinderGrid(0.0, m / 64, m, 0.1)
        return solve_truncated_bvp(grid32, cg, scalar_mats, chafee2, g, u).values

    serial = [solve(*job) for job in jobs]
    elliptic._space_time_operator.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(solve, *job) for job in jobs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(t, s) for t, s in zip(threaded, serial))
    assert elliptic._space_time_operator.cache_info().currsize == 2


def test_coupled_operators_are_keyed_on_a_gamma_and_far(grid32, operator_builds):
    # one far condition: a and gamma are the matrix part of the cache key
    mats, nl, g, u_tau = coupled_problem(grid32)
    other_a = CouplingMatrices(2, mats.a + 0.1 * np.eye(2), mats.gamma)
    other_gamma = CouplingMatrices(2, mats.a, mats.gamma + 0.1 * np.eye(2))
    cg = CylinderGrid(0.0, 1.0, 32, 0.2)
    systems = [_SpaceTimeSystem(grid32, cg, m, nl, g, u_tau) for m in (mats, other_a, other_gamma)]
    assert operator_builds() == 3
    for i, x in enumerate(systems):
        for y in systems[i + 1 :]:
            assert (x.lin != y.lin).nnz > 0
    again = _SpaceTimeSystem(grid32, cg, mats, nl, g, u_tau)
    assert again.lin is systems[0].lin
    assert operator_builds() == 3


# ---------------------------------------------------------------------------
# far margin


@pytest.mark.parametrize(
    "eps,dt,steps", [(0.2, 1 / 64, 73), (0.1, 1 / 64, 14), (0.05, 0.0125, 34), (0.6, 1 / 64, 128)]
)
def test_margin_rule_from_the_fast_root(grid64, scalar_mats, chafee2, eps, dt, steps):
    # attractor-sweep windows: the stencil's fast root |r| is 1.46, 8.02 and
    # 2.30, and |r|^-steps is the first power below 1e-12; at eps = 0.6,
    # |r| = 1.02 and the margin stops at the two-unit cap
    ctx = ProcessContext(grid64, scalar_mats, chafee2, zero_forcing(grid64), eps=eps)
    assert ctx.dt_target == dt
    assert ctx.margin_steps(dt) == steps
    # eps = 0 is an initial-value problem and needs no margin
    assert replace(ctx, eps=0.0).margin_steps(dt) == 0


@pytest.fixture
def newton_iterations(monkeypatch):
    """Newton iterations of each space-time solve, in call order."""
    counts = []
    real = elliptic.damped_newton

    def spy(*args, **kwargs):
        x, trace = real(*args, **kwargs)
        counts.append(len(trace) - 1)
        return x, trace

    monkeypatch.setattr(elliptic, "damped_newton", spy)
    return counts


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_margin_rule_matches_margin_two(grid64, scalar_mats, chafee2, newton_iterations, eps):
    # the rule's short margins leave every slice where the two-unit margin
    # puts it, and the warm start keeps Newton from working harder; t_end
    # 2.5 ends on a half window
    g = Periodic(Field.zeros(grid64), sine_field(grid64, [0.5]), 1.0)
    ctx = ProcessContext(grid64, scalar_mats, chafee2, g, eps=eps)
    u0 = sine_field(grid64, [1.2, 0.0, 0.4])
    rule = ctx.evolve(u0, 0.0, 2.5, 0.25)
    rule_iters = sum(newton_iterations)
    del newton_iterations[:]
    wide = replace(ctx, margin=2.0).evolve(u0, 0.0, 2.5, 0.25)
    assert np.max(np.abs(rule.values - wide.values)) <= 1e-10
    assert rule_iters <= sum(newton_iterations)


def test_evolve_warm_start_saves_newton_iterations(
    grid64, scalar_mats, chafee2, newton_iterations, monkeypatch
):
    # every window after the first starts from the shifted solution; the
    # same windows started from the constant extension take more steps
    g = Periodic(Field.zeros(grid64), sine_field(grid64, [0.5]), 1.0)
    ctx = ProcessContext(grid64, scalar_mats, chafee2, g, eps=0.2)
    u0 = sine_field(grid64, [1.2, 0.0, 0.4])
    ctx.evolve(u0, 0.0, 2.5, 0.25)
    warm_iters = sum(newton_iterations)
    del newton_iterations[:]
    real = elliptic.solve_truncated_bvp

    def cold(*args, guess=None, **kwargs):
        return real(*args, **kwargs)

    monkeypatch.setattr(elliptic, "solve_truncated_bvp", cold)
    ctx.evolve(u0, 0.0, 2.5, 0.25)
    assert warm_iters < sum(newton_iterations)


# ---------------------------------------------------------------------------
# inexact Newton: Eisenstat-Walker forcing terms


def test_forcing_terms_follow_eisenstat_walker_choice_two():
    eta_max = elliptic._ETA_MAX
    assert eta_max == 1e-5
    assert elliptic._forcing_term(3.0, None) == eta_max  # the first step
    # 0.9 (|F_k| / |F_k-1|)^2 between the cap and the floor
    assert elliptic._forcing_term(1e-4, 1e-1) == pytest.approx(0.9e-6, rel=1e-14)
    assert elliptic._forcing_term(2e-6, 1e-3) == pytest.approx(3.6e-6, rel=1e-14)
    # a slow step is capped, a very fast one floored at the exact tolerance
    assert elliptic._forcing_term(0.5, 1.0) == eta_max
    assert elliptic._forcing_term(2.0, 1.0) == eta_max
    assert elliptic._forcing_term(1e-9, 1.0) == elliptic._KRYLOV_RTOL


@pytest.fixture
def solve_tolerances(monkeypatch):
    """Relative tolerance of each _SpaceTimeSystem.solve call, in call order."""
    tolerances = []
    real = _SpaceTimeSystem.solve

    def spy(self, values, rhs, rtol=elliptic._KRYLOV_RTOL):
        tolerances.append(rtol)
        return real(self, values, rhs, rtol)

    monkeypatch.setattr(_SpaceTimeSystem, "solve", spy)
    return tolerances


def test_newton_steps_take_the_forcing_term_of_their_trace(
    grid32, scalar_mats, chafee2, solve_tolerances, monkeypatch
):
    # a cold window needs several Newton steps: the first runs GMRES to
    # eta_max, each later one to the forcing term of the last two residuals,
    # and a single Jacobian solve stays exact
    traces = []
    real = elliptic.damped_newton

    def spy(*args, **kwargs):
        x, trace = real(*args, **kwargs)
        traces.append(trace)
        return x, trace

    monkeypatch.setattr(elliptic, "damped_newton", spy)
    g = Periodic(Field.zeros(grid32), sine_field(grid32, [0.5]), 1.0)
    cg = CylinderGrid(0.0, 1.5, 96, 0.1)
    base = solve_truncated_bvp(grid32, cg, scalar_mats, chafee2, g, sine_field(grid32, [1.5, 0.3]))
    (trace,) = traces
    assert len(trace) >= 4
    expect = [elliptic._ETA_MAX] + [
        elliptic._forcing_term(trace[i], trace[i - 1]) for i in range(1, len(trace) - 1)
    ]
    assert solve_tolerances == expect
    assert min(expect) < elliptic._ETA_MAX  # the steps tighten near the root
    del solve_tolerances[:]
    variational_process(base, sine_field(grid32, [1.0]), scalar_mats, chafee2)
    assert solve_tolerances == [elliptic._KRYLOV_RTOL]


@pytest.fixture
def preconditioner_applications(monkeypatch):
    """Preconditioner applications inside the elliptic GMRES, as a counter."""
    count = [0]
    real = elliptic._gmres

    def spy(apply, precondition, b, rtol):
        def counted(y):
            count[0] += 1
            return precondition(y)

        return real(apply, counted, b, rtol)

    monkeypatch.setattr(elliptic, "_gmres", spy)
    return count


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_inexact_newton_keeps_trajectories_and_saves_krylov_work(
    grid64, scalar_mats, chafee2, newton_iterations, preconditioner_applications,
    monkeypatch, eps,
):
    # attractor-sweep windows: the forcing terms leave every slice within
    # 1e-10 of exact Newton steps (eta pinned to the exact tolerance), take
    # no more Newton steps and at least 35% fewer preconditioner applications
    g = Periodic(Field.zeros(grid64), sine_field(grid64, [0.5]), 1.0)
    ctx = ProcessContext(grid64, scalar_mats, chafee2, g, eps=eps)
    u0 = sine_field(grid64, [1.2, 0.0, 0.4])
    inexact = ctx.evolve(u0, 0.0, 2.5, 0.25)
    inexact_iters, inexact_apps = sum(newton_iterations), preconditioner_applications[0]
    del newton_iterations[:]
    preconditioner_applications[0] = 0
    monkeypatch.setattr(elliptic, "_ETA_MAX", elliptic._KRYLOV_RTOL)
    exact = ctx.evolve(u0, 0.0, 2.5, 0.25)
    assert np.max(np.abs(inexact.values - exact.values)) <= 1e-10
    assert inexact_iters <= sum(newton_iterations)
    assert inexact_apps <= 0.65 * preconditioner_applications[0]


def test_diverged_window_retries_from_the_limit_march(grid64, scalar_mats, monkeypatch):
    # a ray off the index-2 origin of lam = 5 (c06's problem with lam: 5)
    # stalls Newton from the constant guess at eps = 0.2; the retry from the
    # eps = 0 march converges, and the ray grows at the slow root
    # s = (1 - sqrt(1 - 4 eps^2 mu)) / (2 eps^2) of the eps-problem, 5.0003
    # here, not at the limit's mu = 4.0002
    nl = cubic_nonlinearity(5.0)
    (origin,) = [
        rec for rec in find_equilibria(scalar_mats, nl, Field.zeros(grid64),
                                       rng=np.random.default_rng(6))
        if rec.index == 2
    ]
    v = spectral_split(origin, scalar_mats, nl).v_plus[:, 0]
    guesses = []
    solve = elliptic.solve_truncated_bvp

    def spy(*args, guess=None, **kwargs):
        guesses.append(guess is None)
        return solve(*args, guess=guess, **kwargs)

    monkeypatch.setattr(elliptic, "solve_truncated_bvp", spy)
    eps = 0.2
    ctx = ProcessContext(grid64, scalar_mats, nl, zero_forcing(grid64), eps)
    ray = ctx.evolve(Field(grid64, 2e-4 * v.reshape(-1, 1)), 0.0, 1.0, 0.25)
    assert guesses == [True, False]  # one window, retried once
    amp = np.abs(ray.values[:, :, 0] @ v)
    mu = 5.0 - disc_eig(grid64, 1)
    slow = (1.0 - math.sqrt(1.0 - 4.0 * eps**2 * mu)) / (2.0 * eps**2)
    rates = np.diff(np.log(amp)) / 0.25
    assert np.all(np.abs(rates - slow) <= 0.02), rates


def test_second_divergence_raises(grid32, scalar_mats, chafee2, monkeypatch):
    calls = []

    def diverge(*args, **kwargs):
        calls.append(kwargs["guess"])
        raise NewtonDiverged("stalled")

    monkeypatch.setattr(elliptic, "solve_truncated_bvp", diverge)
    ctx = ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=0.1)
    u0 = sine_field(grid32, [0.5])
    with pytest.raises(NewtonDiverged):
        ctx.evolve(u0, 0.0, 1.0, 0.25)
    # the constant start, then the limit march from the same initial slice
    assert len(calls) == 2 and calls[0] is None
    np.testing.assert_array_equal(calls[1][0], u0.values)


def test_explicit_margin_keeps_its_steps(grid32, scalar_mats, chafee2, monkeypatch):
    # margin 1.0 at dt = 1/64 is exactly 64 steps, not 65
    windows = []
    real = elliptic.solve_truncated_bvp

    def spy(sgrid, cgrid, *args, **kwargs):
        windows.append(cgrid.m_steps)
        return real(sgrid, cgrid, *args, **kwargs)

    monkeypatch.setattr(elliptic, "solve_truncated_bvp", spy)
    ctx = ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=0.1, margin=1.0)
    ctx.evolve(sine_field(grid32, [0.5]), 0.0, 1.5, 0.25)
    assert windows == [64 + 64, 32 + 64]
    for margin in (1.0, 0.3, 2.0):
        for dt in (1 / 64, 0.0125, 0.1 / 3):
            steps = replace(ctx, margin=margin).margin_steps(dt)
            assert steps == math.ceil(margin / dt - 1e-12)


def test_coupled_margin_stays_at_two_units(grid32):
    # k > 1 has no stencil root to size the margin from; it keeps MARGIN_MIN
    mats = CouplingMatrices(2, np.array([[1.0, 0.4], [-0.3, 0.8]]), np.array([[1.0, 0.3], [0.3, 1.6]]))
    nl = cubic_nonlinearity(2.0, k=2)
    ctx = ProcessContext(grid32, mats, nl, zero_forcing(grid32, 2), eps=0.1)
    assert ctx.margin_steps(1 / 64) == 128
    u0 = sine_field(grid32, [[0.6, 0.0], [0.0, -0.3]], k=2)
    rule = ctx.evolve(u0, 0.0, 1.5, 0.5)
    wide = replace(ctx, margin=2.0).evolve(u0, 0.0, 1.5, 0.5)
    np.testing.assert_array_equal(rule.values, wide.values)


@pytest.mark.parametrize("t_end", [1.5, 2.5])
def test_evolve_ends_on_a_partial_window(grid32, scalar_mats, chafee2, t_end):
    # the last window is shorter than the ones before; the warm start must
    # be cut to its length, and the slices match a run that goes on
    ctx = ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=0.1)
    u0 = sine_field(grid32, [0.5, 0.2])
    short = ctx.evolve(u0, 0.0, t_end, 0.25)
    full = ctx.evolve(u0, 0.0, t_end + 0.5, 0.25)
    n = short.times.shape[0]
    np.testing.assert_allclose(short.times, full.times[:n], atol=1e-12)
    assert np.max(np.abs(short.values - full.values[:n])) <= 1e-9


def test_limit_evolve_slices_sit_on_the_stride_grid(grid32, scalar_mats, chafee2):
    # at eps = 0 the step divides the stride, as at eps > 0: a dt of 0.03
    # becomes 0.25 / 9, and every ninth step is kept
    ctx = ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=0.0, dt=0.03)
    u0 = sine_field(grid32, [0.5])
    traj = ctx.evolve(u0, 0.0, 1.0, 0.25)
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-12)
    fine = ctx.evolve(u0, 0.0, 1.0, 0.25 / 9)
    np.testing.assert_array_equal(traj.values, fine.values[::9])


def test_limit_evolve_keeps_a_step_that_divides_t_end_up_to_rounding(scalar_mats):
    # 178 strides of 1/11 at 46 steps each: t_end / dt rounds to 1.8e-12
    # above 8188, and one more step would shift every slice off the grid
    grid = SpatialGrid(PI, 2)
    ctx = ProcessContext(grid, scalar_mats, zero_nonlinearity(), zero_forcing(grid), eps=0.0,
                         dt=0.002)
    stride, t_end = 1 / 11, 178 / 11
    assert t_end / (stride / 46) - 8188 > 1e-12
    traj = ctx.evolve(sine_field(grid, [0.5]), 0.0, t_end, stride)
    np.testing.assert_allclose(traj.times, stride * np.arange(179), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# regularity probe


def test_probe_rejects_degenerate_data(grid32, scalar_mats):
    ctx = ProcessContext(grid32, scalar_mats, zero_nonlinearity(), zero_forcing(grid32), eps=0.0)
    with pytest.raises(DegenerateData):
        regularity_probe([0.1], zero_forcing(grid32), Field.zeros(grid32), ctx)


def test_probe_modal_ratios_are_flat(grid48, scalar_mats):
    # pure modal data, no forcing: the slab-norm to data-norm ratio stays
    # within a factor 2 across the eps sweep, including the parabolic limit
    ctx = ProcessContext(
        grid48, scalar_mats, zero_nonlinearity(), zero_forcing(grid48), eps=0.0
    )
    rows = regularity_probe(
        [0.2, 0.1, 0.0], zero_forcing(grid48), sine_field(grid48, [1.0]), ctx
    )
    ratios = [r for _, r in rows]
    assert all(r > 0 and math.isfinite(r) for r in ratios)
    assert max(ratios) / min(ratios) <= 2.0


def test_probe_ratios_do_not_depend_on_the_margin(grid32, scalar_mats):
    # the margin only truncates the cylinder: the data norm takes h over the
    # slabs, so a wider margin moves rho by the truncation error alone
    ctx = ProcessContext(
        grid32, scalar_mats, zero_nonlinearity(), zero_forcing(grid32), eps=0.0
    )
    h = Constant(sine_field(grid32, [1.0]))
    u0 = sine_field(grid32, [1.0])
    rule = regularity_probe([0.1], h, u0, ctx)
    wide = regularity_probe([0.1], h, u0, replace(ctx, margin=3.0))
    assert rule[0][1] == pytest.approx(wide[0][1], rel=1e-9)


def test_probe_forced_problem_finite(grid48, scalar_mats):
    ctx = ProcessContext(
        grid48, scalar_mats, zero_nonlinearity(), zero_forcing(grid48), eps=0.0
    )
    rows = regularity_probe(
        [0.1, 0.0], Constant(sine_field(grid48, [1.0])), Field.zeros(grid48), ctx
    )
    assert all(math.isfinite(r) and r > 0 for _, r in rows)


# ---------------------------------------------------------------------------
# context validation and diagnostics


def test_process_context_validation(grid32, scalar_mats, chafee2):
    with pytest.raises(ValueError):
        ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=-0.1)
    with pytest.raises(ValueError):
        ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=0.1, margin=0.0)
    ctx = ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=0.2, dt=0.01)
    assert ctx.dt_target == 0.01
    # evolve takes the same stride and t_end at every eps, the limit included
    u0 = sine_field(grid32, [0.5])
    for eps in (0.0, 0.1):
        ctx = ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=eps, dt=0.05)
        with pytest.raises(ValueError, match="stride must divide one time unit"):
            ctx.evolve(u0, 0.0, 1.0, 0.3)
        with pytest.raises(ValueError, match="t_end must be a multiple of stride"):
            ctx.evolve(u0, 0.0, 0.6, 0.25)
        with pytest.raises(ValueError, match="stride must be positive"):
            ctx.evolve(u0, 0.0, 1.0, 0.0)


def test_margin_truncation_error_decays_exponentially(grid32, scalar_mats, chafee2):
    # the far condition pollutes the reported slice by a boundary layer that
    # decays like exp(-margin / eps^2); against a margin-3 reference each
    # quarter unit of margin must cut the error by at least ten
    u0 = sine_field(grid32, [0.5])
    ctx = ProcessContext(grid32, scalar_mats, chafee2, zero_forcing(grid32), eps=0.3, dt=1.0 / 64)
    ref = process_map(u0, 0.0, 1.0, replace(ctx, margin=3.0))
    errs = [
        (process_map(u0, 0.0, 1.0, replace(ctx, margin=m)) - ref).l2()
        for m in (0.25, 0.5, 0.75, 1.0)
    ]
    assert all(a >= 10.0 * b > 0.0 for a, b in zip(errs, errs[1:])), errs
