import json
import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, block_diag, solve_banded

import cylinderlab.parabolic as parabolic
from cylinderlab import (
    AsymmetricA,
    Constant,
    CouplingMatrices,
    DegenerateData,
    Ensemble,
    Field,
    LimitContext,
    MissingPotential,
    NewtonDiverged,
    NewtonOptions,
    Nonlinearity,
    Periodic,
    ShapeMismatch,
    SpatialGrid,
    StepOptions,
    cubic_nonlinearity,
    find_equilibria,
    laplacian,
    linear_nonlinearity,
    lyapunov_value,
    semigroup_evolve,
    sine_field,
    variational_evolve,
    zero_nonlinearity,
)
from cylinderlab.config import load_config
from cylinderlab.runner import run
from conftest import PI, disc_eig


def manufactured_equilibrium(grid, nl, profile):
    """Forcing that makes `profile` a steady state: gbar = f(z) - Delta_h z."""
    z = sine_field(grid, profile)
    gbar = Field(grid, nl.f(z.values) - laplacian(z.values, grid.h))
    return z, gbar


def test_step_fixes_manufactured_equilibrium(grid64, scalar_mats, chafee2):
    z, gbar = manufactured_equilibrium(grid64, chafee2, [0.7, 0.0, 0.2])
    out = semigroup_evolve(
        z, 0.05, StepOptions(dt=0.05), scalar_mats, chafee2, Constant(gbar)
    ).field(-1)
    # the equilibrium is a fixed point of the step up to the Newton tolerance
    assert (out - z).l2() <= 10 * 1e-8


def test_step_linear_mode_exact_discrete(grid64, scalar_mats):
    # linear f(u) = u: one backward-Euler step scales the discrete sine mode
    # by exactly 1 / (1 + dt (lambda_h + 1))
    nl = linear_nonlinearity(1.0)
    u = sine_field(grid64, [1.0])
    dt = 0.02
    g = Constant(Field.zeros(grid64))
    out = semigroup_evolve(u, dt, StepOptions(dt=dt), scalar_mats, nl, g).field(-1)
    shrink = 1.0 / (1.0 + dt * (disc_eig(grid64, 1) + 1.0))
    np.testing.assert_allclose(out.values, shrink * u.values, rtol=1e-9)


def test_step_first_order_consistency(grid48, scalar_mats, chafee2):
    # error against a tiny-step reference at fixed time 0.2 shrinks like dt
    u0 = sine_field(grid48, [0.8, 0.3])
    g = Constant(Field.zeros(grid48))
    t_end = 0.2

    def final(dt):
        traj = semigroup_evolve(u0, t_end, StepOptions(dt=dt), scalar_mats, chafee2, g)
        return traj.field(-1)

    ref = final(1e-4)
    errs = [(final(dt) - ref).l2() for dt in (2e-2, 1e-2)]
    assert errs[1] <= errs[0] * 0.65  # halving dt roughly halves the error
    assert errs[1] >= errs[0] * 0.35


def test_backward_euler_first_order_exact_mode(grid64, scalar_mats):
    # linear f(u) = u keeps the discrete sine mode: the semi-discrete flow
    # decays it like exp(-(lambda_h + 1) t), so the error at t = 1 is the
    # time discretization error alone and must shrink at first order
    nl = linear_nonlinearity(1.0)
    u0 = sine_field(grid64, [1.0])
    g = Constant(Field.zeros(grid64))
    exact = math.exp(-(disc_eig(grid64, 1) + 1.0)) * u0.values
    errs = []
    for dt in (0.02, 0.01, 0.005):
        traj = semigroup_evolve(u0, 1.0, StepOptions(dt=dt), scalar_mats, nl, g)
        errs.append(math.sqrt(grid64.h * float(np.sum((traj.values[-1] - exact) ** 2))))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.9 <= q <= 1.1 for q in orders), orders


def test_semigroup_zero_span(grid32, scalar_mats, chafee2):
    u0 = sine_field(grid32, [1.0])
    traj = semigroup_evolve(
        u0, 0.0, StepOptions(), scalar_mats, chafee2, Constant(Field.zeros(grid32)), tau=2.5
    )
    assert traj.times.shape == (1,)
    assert traj.times[0] == 2.5
    np.testing.assert_array_equal(traj.values[0], u0.values)


def test_semigroup_linear_decay_rate(grid64, scalar_mats):
    # gamma u_t = Delta u - u decays the first mode like e^{-2t} in the
    # continuum; dt = 1e-3 backward Euler lands within 1% at t = 1
    nl = linear_nonlinearity(1.0)
    u0 = sine_field(grid64, [1.0])
    traj = semigroup_evolve(
        u0, 1.0, StepOptions(dt=1e-3), scalar_mats, nl, Constant(Field.zeros(grid64))
    )
    final = traj.at_time(1.0)
    expect = math.exp(-2.0)
    got = final.l2() / u0.l2()
    assert got == pytest.approx(expect, rel=1e-2)


def test_semigroup_converges_to_positive_state(grid48, scalar_mats, chafee2):
    # above the first bifurcation a positive bump settles onto the positive
    # equilibrium; steady states of the implicit step are dt-exact
    u0 = sine_field(grid48, [1.2])
    traj = semigroup_evolve(
        u0, 14.0, StepOptions(dt=5e-3), scalar_mats, chafee2, Constant(Field.zeros(grid48))
    )
    records = find_equilibria(scalar_mats, chafee2, Field.zeros(grid48))
    positive = [r for r in records if float(np.sum(r.z.values)) > 0.5]
    assert len(positive) == 1
    assert (traj.field(-1) - positive[0].z).l2() <= 1e-6


def test_variational_zero_direction(grid32, scalar_mats, chafee2):
    u0 = sine_field(grid32, [0.5])
    base = semigroup_evolve(
        u0, 0.5, StepOptions(dt=1e-2), scalar_mats, chafee2, Constant(Field.zeros(grid32))
    )
    w = variational_evolve(base, Field.zeros(grid32), StepOptions(dt=1e-2), scalar_mats, chafee2)
    assert np.all(w.values == 0.0)


def test_variational_matches_linear_flow(grid48, scalar_mats):
    # for linear f the flow is affine, so the variational solution equals the
    # difference of two nonlinear solves with no delta -> 0 limit needed
    nl = linear_nonlinearity(1.0)
    g = Constant(sine_field(grid48, [0.3]))
    u0 = sine_field(grid48, [0.8])
    xi = sine_field(grid48, [0.0, 1.0])
    opts = StepOptions(dt=5e-3)
    base = semigroup_evolve(u0, 0.5, opts, scalar_mats, nl, g)
    shifted = semigroup_evolve(u0 + xi, 0.5, opts, scalar_mats, nl, g)
    w = variational_evolve(base, xi, opts, scalar_mats, nl)
    diff = shifted.values[-1] - base.values[-1]
    np.testing.assert_allclose(w.values[-1], diff, atol=1e-8)


def test_variational_divided_difference_rate(grid48, scalar_mats, chafee2):
    # || (S(u + delta xi) - S(u)) / delta - W xi || = O(delta)
    g = Constant(Field.zeros(grid48))
    u0 = sine_field(grid48, [0.9])
    xi = sine_field(grid48, [1.0])
    opts = StepOptions(dt=5e-3)
    base = semigroup_evolve(u0, 0.5, opts, scalar_mats, chafee2, g)
    w = variational_evolve(base, xi, opts, scalar_mats, chafee2)

    def dd_err(delta):
        shifted = semigroup_evolve(u0 + delta * xi, 0.5, opts, scalar_mats, chafee2, g)
        dd = (shifted.values[-1] - base.values[-1]) / delta
        return float(
            math.sqrt(grid48.h * np.sum((dd - w.values[-1]) ** 2))
        )

    e2, e3 = dd_err(1e-2), dd_err(1e-3)
    assert 5.0 <= e2 / e3 <= 20.0


# ---------------------------------------------------------------------------
# Lyapunov energy


def test_lyapunov_zero_state(grid64, scalar_mats, chafee2):
    zero = Field.zeros(grid64)
    assert lyapunov_value(zero, scalar_mats, chafee2, zero) == 0.0


def test_lyapunov_sine_linear_potential(grid64, scalar_mats):
    # f(u) = u with F = u^2/2: integral of |u_x|^2 + u^2 for u = sin x is pi;
    # the discrete quadratures reproduce (lambda_h + 1) pi / 2 exactly
    nl = linear_nonlinearity(1.0)
    u = sine_field(grid64, [1.0])
    got = lyapunov_value(u, scalar_mats, nl, Field.zeros(grid64))
    exact = (disc_eig(grid64, 1) + 1.0) * PI / 2
    assert got == pytest.approx(exact, rel=1e-12)
    assert abs(got - PI) <= 2e-3


def test_lyapunov_decreases_along_flow(grid48, scalar_mats, chafee2):
    rng = np.random.default_rng(11)
    gbar = Field.zeros(grid48)
    coeffs = rng.standard_normal((4, 1)) / np.arange(1, 5)[:, None] ** 2
    u0 = sine_field(grid48, coeffs)
    traj = semigroup_evolve(
        u0, 0.5, StepOptions(dt=1e-3), scalar_mats, chafee2, Constant(gbar)
    )
    lvals = [
        lyapunov_value(traj.field(j), scalar_mats, chafee2, gbar)
        for j in range(0, traj.times.shape[0], 25)
    ]
    increases = [b - a for a, b in zip(lvals, lvals[1:])]
    assert max(increases) <= 1e-8
    # away from equilibrium the decrease is strict
    assert lvals[-1] < lvals[0] - 1e-6


def test_lyapunov_requires_structure(grid32, chafee2):
    u = sine_field(grid32, [1.0])
    zero = Field.zeros(grid32)
    no_potential = Nonlinearity(
        k=1, f=chafee2.f, jac_f=chafee2.jac_f, c_diss=chafee2.c_diss,
        k_mono=chafee2.k_mono, growth_q=3.0,
    )
    with pytest.raises(MissingPotential):
        lyapunov_value(u, CouplingMatrices.scalar(), no_potential, zero)
    skew = CouplingMatrices(2, np.array([[1.0, 0.4], [-0.4, 1.0]]), np.eye(2))
    u2 = sine_field(grid32, [[1.0, 1.0]], k=2)
    with pytest.raises(AsymmetricA):
        lyapunov_value(u2, skew, cubic_nonlinearity(1.0, k=2), Field.zeros(grid32, 2))
    with pytest.raises(ShapeMismatch):
        lyapunov_value(u, CouplingMatrices.scalar(), chafee2, Field.zeros(grid32, 2))


def test_odd_symmetry_is_exact(grid48, scalar_mats, chafee2):
    # odd f and zero forcing: the floating-point flow commutes with the
    # global sign flip to the last ulp of the Newton stopping rule
    u0 = sine_field(grid48, [0.9, -0.4])
    opts = StepOptions(dt=1e-2)
    g = Constant(Field.zeros(grid48))
    a = semigroup_evolve(u0, 1.0, opts, scalar_mats, chafee2, g)
    b = semigroup_evolve(-1.0 * u0, 1.0, opts, scalar_mats, chafee2, g)
    np.testing.assert_allclose(a.values, -b.values, atol=1e-12)


# ---------------------------------------------------------------------------
# limit context


def test_limit_context_map_and_evolve(grid32, scalar_mats, chafee2):
    ctx = LimitContext(
        grid32, scalar_mats, chafee2, Constant(Field.zeros(grid32)), StepOptions(dt=1e-2)
    )
    u0 = sine_field(grid32, [0.5])
    assert ctx.map(u0, 1.0, 1.0) is u0
    assert ctx.eps == 0.0
    traj = ctx.evolve(u0, 0.0, 1.0, stride=0.25)
    np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    end = ctx.map(u0, 0.0, 1.0)
    np.testing.assert_allclose(traj.values[-1], end.values, atol=1e-12)
    with pytest.raises(ValueError):
        ctx.map(u0, 1.0, 0.5)


def test_limit_context_periodic_forcing(grid32, scalar_mats):
    # forced linear problem: response of the first mode tends to the known
    # harmonic amplitude; crude tolerance since dt is first order
    nl = linear_nonlinearity(0.0)
    omega = 2.0
    g = Periodic(Field.zeros(grid32), sine_field(grid32, [1.0]), omega)
    ctx = LimitContext(grid32, scalar_mats, nl, g, StepOptions(dt=1e-3))
    u0 = Field.zeros(grid32)
    traj = ctx.evolve(u0, 0.0, 12.0, stride=0.05)
    lam = disc_eig(grid32, 1)
    amp_expect = 1.0 / math.hypot(lam, omega)
    tail = traj.values[traj.times > 6.0]
    # discrete sine-mode coefficient: <u, sin>_h / ||sin||_h^2
    coeff = (tail[:, :, 0] @ np.sin(grid32.nodes)) * grid32.h / (PI / 2)
    amp_got = 0.5 * (coeff.max() - coeff.min())
    assert amp_got == pytest.approx(amp_expect, rel=2e-2)


# ---------------------------------------------------------------------------
# ensembles


def _arctan_nl(scale):
    """f(v) = scale atan(v): Newton overshoots far from the root."""

    def jac(v):
        return (scale / (1.0 + np.asarray(v, dtype=float) ** 2))[..., None]

    return Nonlinearity(1, lambda v: scale * np.arctan(v), jac, 0.0, 0.0, 1.0, name="atan")


def _newton_work(monkeypatch):
    """Spy on the stepper's Newton calls: (iterations, halvings) per call."""
    calls = []
    inner = parabolic.damped_newton

    def spy(x0, residual, solve_step, opts, batch=False):
        evals = [0]

        def counted(x):
            evals[0] += 1
            return residual(x)

        x, trace = inner(x0, counted, solve_step, opts, batch=batch)
        calls.append((len(trace) - 1, evals[0] - len(trace)))
        return x, trace

    monkeypatch.setattr(parabolic, "damped_newton", spy)
    return calls


def test_ensemble_members_match_solo_runs(grid32, scalar_mats, monkeypatch):
    nl = _arctan_nl(100.0)
    opts = StepOptions(dt=0.1)
    g = Periodic(Field.zeros(grid32), sine_field(grid32, [0.5]), 2.0)
    starts = [sine_field(grid32, [20.0]), sine_field(grid32, [1e-3]), sine_field(grid32, [0.0, 5.0])]
    calls = _newton_work(monkeypatch)
    solos = []
    work = []
    for u0 in starts:
        calls.clear()
        solos.append(semigroup_evolve(u0, 0.5, opts, scalar_mats, nl, g, tau=0.3))
        work.append((sum(i for i, _ in calls), sum(h for _, h in calls)))
    # the first member needs line-search halvings, the second converges faster
    assert work[0][1] > 0
    assert work[1][0] < work[0][0]

    ens = semigroup_evolve(starts, 0.5, opts, scalar_mats, nl, g, tau=0.3)
    assert isinstance(ens, Ensemble) and len(ens) == 3
    for i, solo in enumerate(solos):
        member = ens.member(i)
        np.testing.assert_array_equal(member.times, solo.times)
        scale = np.max(np.abs(solo.values))
        assert np.max(np.abs(member.values - solo.values)) <= 1e-14 * scale
        assert member.values.tobytes() == solo.values.tobytes()


def test_ensemble_member_divergence_raises_with_trace(grid32, scalar_mats):
    nl = _arctan_nl(100.0)
    opts = StepOptions(dt=0.1, newton=NewtonOptions(max_iters=3))
    g = Constant(Field.zeros(grid32))
    starts = [Field.zeros(grid32), sine_field(grid32, [20.0])]
    with pytest.raises(NewtonDiverged) as ei:
        semigroup_evolve(starts, 0.1, opts, scalar_mats, nl, g)
    trace = ei.value.trace
    assert "member 1" in str(ei.value)
    assert len(trace) == 4  # entry residual plus the three allowed iterations
    assert trace[0] > 1.0 and all(v >= 0 for v in trace)


def test_overflowing_state_raises_newton_diverged(grid32, scalar_mats, chafee2):
    # f(u) overflows: the non-finite Newton step is rejected by the line
    # search and surfaces as a typed error, not as a failed input check
    u0 = sine_field(grid32, [1e120])
    with pytest.raises(NewtonDiverged), np.errstate(over="ignore", invalid="ignore"):
        semigroup_evolve(u0, 0.01, StepOptions(dt=0.01), scalar_mats, chafee2,
                         Constant(Field.zeros(grid32)))


def test_empty_ensemble_is_a_typed_error(tmp_path, configs_dir, grid32, scalar_mats, chafee2):
    with pytest.raises(DegenerateData):
        semigroup_evolve([], 1.0, StepOptions(), scalar_mats, chafee2, Constant(Field.zeros(grid32)))
    # the runner turns it into a failed verdict instead of a crash
    cfg = json.loads((configs_dir / "c05-lyapunov.json").read_text())
    cfg["params"]["n_trajectories"] = 0
    path = tmp_path / "c05.json"
    path.write_text(json.dumps(cfg))
    report = run(load_config(str(path)), fixed_clock=True)
    assert [v.name for v in report.verdicts] == ["completed"]
    assert not report.all_pass


def test_limit_context_evolves_ensembles(grid32, scalar_mats, chafee2):
    ctx = LimitContext(
        grid32, scalar_mats, chafee2, Constant(Field.zeros(grid32)), StepOptions(dt=1e-2)
    )
    starts = [sine_field(grid32, [0.5]), sine_field(grid32, [-0.2, 0.3])]
    ens = ctx.evolve(starts, 0.0, 1.0, stride=0.25)
    np.testing.assert_allclose(ens.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    for u0, i in zip(starts, range(len(ens))):
        solo = ctx.evolve(u0, 0.0, 1.0, stride=0.25)
        assert ens.member(i).values.tobytes() == solo.values.tobytes()


def test_lyapunov_of_trajectory_matches_slices(grid48, scalar_mats, chafee2):
    gbar = sine_field(grid48, [0.3, 0.1])
    traj = semigroup_evolve(
        sine_field(grid48, [0.9, -0.4]), 0.2, StepOptions(dt=1e-2), scalar_mats, chafee2,
        Constant(-gbar),
    )
    whole = lyapunov_value(traj, scalar_mats, chafee2, gbar)
    slices = [lyapunov_value(traj.field(j), scalar_mats, chafee2, gbar) for j in range(21)]
    assert whole.shape == (21,)
    np.testing.assert_allclose(whole, slices, rtol=1e-14, atol=0.0)


def _c05_config(tmp_path, configs_dir, forcing):
    cfg = json.loads((configs_dir / "c05-lyapunov.json").read_text())
    cfg["out_dir"] = str(tmp_path / "out")
    cfg["params"]["n_trajectories"] = 3
    cfg["forcing"] = forcing
    path = tmp_path / "c05.json"
    path.write_text(json.dumps(cfg))
    return load_config(str(path))


def test_forced_lyapunov_is_monotone(tmp_path, configs_dir):
    # a constant forcing g enters the energy as -g; with the wrong sign the
    # energy of these flows rises by about 3e-3 per step
    forcing = {"type": "constant", "mean": {"kind": "sine", "coeffs": [1.0]}}
    report = run(_c05_config(tmp_path, configs_dir, forcing), fixed_clock=True)
    increases = [row[3] for row in report.tables[0].rows]
    assert report.all_pass, [v.detail for v in report.verdicts if not v.passed]
    assert max(increases) < 0.0


# ---------------------------------------------------------------------------
# the scalar kernel and the coupled band path


def _scalar_band(grid, mats, nl, dt, v):
    """(1, 1) band of the backward-Euler Jacobian at the (R, n, 1) stack v,
    built entry by entry: members are decoupled, so the off-diagonals are
    zero across member boundaries."""
    h2 = grid.h**2
    members, n = v.shape[0], v.shape[1]
    off = -mats.a[0, 0] / h2
    ab = np.zeros((3, members * n))
    ab[0, 1:] = off
    ab[2, :-1] = off
    ab[0, n::n] = 0.0
    ab[2, n - 1 : -1 : n] = 0.0
    ab[1] = (mats.gamma[0, 0] / dt + 2.0 * mats.a[0, 0] / h2) + nl.jac_f(v).ravel()
    return ab


@pytest.mark.parametrize(
    "n, members, dt",
    [(32, 1, 0.05), (32, 3, 0.05), (32, 3, math.inf), (1, 1, 0.05)],
    ids=["solo", "ensemble", "census", "one-node"],
)
def test_scalar_solve_is_the_band_solve_bit_for_bit(n, members, dt):
    grid = SpatialGrid(PI, n)
    mats = CouplingMatrices.scalar(a=1.3, gamma=0.7)
    nl = cubic_nonlinearity(2.0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((members, n, 1))
    r = rng.standard_normal(v.shape)
    stepper = parabolic._BandedStepper(grid, mats, nl, dt)
    ref = solve_banded((1, 1), _scalar_band(grid, mats, nl, dt, v), -r.ravel())
    got = stepper.solve(v, r)
    assert got.shape == r.shape
    assert got.tobytes() == ref.reshape(r.shape).tobytes()
    # the cached off-diagonals are not overwritten by the solve
    assert stepper.solve(v, r).tobytes() == got.tobytes()


@pytest.mark.parametrize("members", [1, 2])
def test_singular_scalar_system_raises(members):
    # f' = -2a/h^2 at dt = inf leaves a zero diagonal: a tridiagonal matrix
    # with zero diagonal and odd order is singular
    grid = SpatialGrid(PI, 3)
    mats = CouplingMatrices.scalar()
    nl = linear_nonlinearity(-2.0 / grid.h**2)
    stepper = parabolic._BandedStepper(grid, mats, nl, math.inf)
    v = np.zeros((members, 3, 1))
    r = np.ones_like(v)
    with pytest.raises(LinAlgError):
        solve_banded((1, 1), _scalar_band(grid, mats, nl, math.inf, v), -r.ravel())
    with pytest.raises(LinAlgError):
        stepper.solve(v, r)


def _coupled_problem(grid):
    a = np.array([[1.0, 0.4], [-0.3, 0.8]])  # nonsymmetric
    mats = CouplingMatrices(2, a, np.array([[1.0, 0.3], [0.3, 1.6]]))
    nl = cubic_nonlinearity(2.0, k=2)
    g = Periodic(sine_field(grid, [[0.1, 0.0]], k=2), sine_field(grid, [[0.3, -0.2]], k=2), 3.0)
    return mats, nl, g


def test_coupled_step_matches_dense_newton(grid32):
    mats, nl, g = _coupled_problem(grid32)
    u0 = sine_field(grid32, [[0.9, -0.5], [0.0, 0.4]], k=2)
    dt, tau = 0.05, 0.4
    opts = StepOptions(dt=dt, newton=NewtonOptions(tol_residual=1e-12))
    got = semigroup_evolve(u0, dt, opts, mats, nl, g, tau=tau).values[-1]

    # dense Newton on the assembled (node, component) system
    n, h = grid32.n_interior, grid32.h
    ones = np.ones(n - 1)
    lap = (np.diag(-2.0 * np.ones(n)) + np.diag(ones, 1) + np.diag(ones, -1)) / h**2
    mass, stiff = np.kron(np.eye(n), mats.gamma) / dt, np.kron(lap, mats.a)
    u, gval = u0.values.ravel(), g.window(np.array([tau + dt]))[0].ravel()
    v = u.copy()
    for _ in range(8):
        r = mass @ (v - u) - stiff @ v + nl.f(v.reshape(n, 2)).ravel() - gval
        jac = mass - stiff + block_diag(*nl.jac_f(v.reshape(n, 2)))
        v = v - np.linalg.solve(jac, r)
    assert np.max(np.abs(r)) <= 1e-12
    assert np.max(np.abs(got.ravel() - v)) <= 1e-12 * np.max(np.abs(v))


def test_coupled_ensemble_matches_solo_runs(grid32):
    mats, nl, g = _coupled_problem(grid32)
    opts = StepOptions(dt=0.05)
    starts = [
        sine_field(grid32, [[0.9, -0.5], [0.0, 0.4]], k=2),
        sine_field(grid32, [[3.0, 2.0]], k=2),
        Field.zeros(grid32, 2),
    ]
    ens = semigroup_evolve(starts, 0.5, opts, mats, nl, g, tau=0.2)
    for i, u0 in enumerate(starts):
        solo = semigroup_evolve(u0, 0.5, opts, mats, nl, g, tau=0.2)
        assert ens.member(i).values.tobytes() == solo.values.tobytes()
