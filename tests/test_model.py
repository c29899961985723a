import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylinderlab import (
    BranchAmbiguity,
    Constant,
    CouplingMatrices,
    CylinderField,
    CylinderGrid,
    Field,
    Nonlinearity,
    NonFiniteValue,
    ShapeMismatch,
    SlabOutOfRange,
    SpatialGrid,
    cubic_nonlinearity,
    grad_cells,
    laplacian,
    linear_nonlinearity,
    sine_field,
    surrogate_v_norm,
    symbol_A,
    weighted_norm,
    zero_nonlinearity,
)
from cylinderlab.elliptic import _SpaceTimeSystem
from conftest import PI, disc_eig


# ---------------------------------------------------------------------------
# grids and fields


def test_spatial_grid_nodes(grid64):
    assert grid64.n_interior == 64
    assert grid64.h == pytest.approx(PI / 65, rel=1e-15)
    nodes = grid64.nodes
    assert nodes.shape == (64,)
    assert nodes[0] == pytest.approx(grid64.h)
    assert nodes[-1] == pytest.approx(PI - grid64.h)


def test_spatial_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(-1.0, 8)
    with pytest.raises(ValueError):
        SpatialGrid(PI, 0)


def test_cylinder_grid_times():
    cg = CylinderGrid(tau=1.0, t_len=2.0, m_steps=4, eps=0.5)
    assert cg.dt == 0.5
    np.testing.assert_allclose(cg.times, [1.0, 1.5, 2.0, 2.5, 3.0])
    with pytest.raises(ValueError):
        CylinderGrid(0.0, 1.0, 4, eps=2.0)  # above the anisotropy cap
    with pytest.raises(ValueError):
        CylinderGrid(0.0, 1.0, 4, eps=-0.1)


def test_field_shape_and_l2(grid64):
    u = sine_field(grid64, [1.0])
    # sum of sin^2 over the uniform sine grid is (n+1)/2 exactly, so the
    # discrete norm of sin(x) equals sqrt(pi/2) to round-off
    assert u.l2() == pytest.approx(math.sqrt(PI / 2), rel=1e-13)
    with pytest.raises(ShapeMismatch):
        Field(grid64, np.zeros((63, 1)))
    with pytest.raises(NonFiniteValue):
        Field(grid64, np.full((64, 1), np.nan))


def test_field_arithmetic(grid64):
    u = sine_field(grid64, [1.0])
    v = sine_field(grid64, [0.0, 1.0])
    w = 2.0 * u - v
    np.testing.assert_allclose(w.values, 2 * u.values - v.values)
    assert (-u).l2() == u.l2()
    other = Field(SpatialGrid(PI, 32), np.zeros((32, 1)))
    with pytest.raises(ShapeMismatch):
        u + other


def test_field_values_locked(grid64):
    u = sine_field(grid64, [1.0])
    with pytest.raises(ValueError):
        u.values[0, 0] = 99.0


def test_sine_field_modes(grid64):
    u = sine_field(grid64, [0.0, 0.0, 2.5])
    expect = 2.5 * np.sin(3 * grid64.nodes)
    np.testing.assert_allclose(u.values[:, 0], expect, atol=1e-14)
    with pytest.raises(ShapeMismatch):
        sine_field(grid64, np.ones((2, 3)), k=2)


def test_cylinder_field_slicing(grid32):
    cg = CylinderGrid(0.0, 1.0, 4, 0.1)
    vals = np.random.default_rng(1).standard_normal((5, 32, 1))
    u = CylinderField(grid32, cg, vals)
    np.testing.assert_array_equal(u.slice(1).values, vals[1])
    with pytest.raises(ShapeMismatch):
        CylinderField(grid32, cg, vals[:4])


# ---------------------------------------------------------------------------
# coupling matrices


def test_coupling_validation():
    m = CouplingMatrices.scalar(a=2.0, gamma=3.0)
    assert m.a[0, 0] == 2.0 and m.gamma[0, 0] == 3.0
    with pytest.raises(ValueError):
        CouplingMatrices(1, np.array([[-1.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        CouplingMatrices(2, np.eye(2), np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ShapeMismatch):
        CouplingMatrices(2, np.eye(3), np.eye(2))


# ---------------------------------------------------------------------------
# nonlinearities


def structure_margins(nl: Nonlinearity, v: np.ndarray):
    """(min f(v).v + c_diss, min eig sym f'(v) + k_mono) on the samples v;
    also asserts that f' and, when declared, grad F match central
    differences of f and F."""
    fv, jv = nl.f(v), nl.jac_f(v)
    step = 1e-6
    for c in range(nl.k):
        e = np.zeros_like(v)
        e[:, c] = step
        np.testing.assert_allclose(jv[..., c], (nl.f(v + e) - nl.f(v - e)) / (2 * step), atol=1e-6)
        if nl.potential_F is not None:
            grad = (nl.potential_F(v + e) - nl.potential_F(v - e)) / (2 * step)
            np.testing.assert_allclose(fv[:, c], grad, atol=1e-6)
    diss = float(np.min(np.sum(fv * v, axis=-1))) + nl.c_diss
    mono = float(np.min(np.linalg.eigvalsh(0.5 * (jv + np.swapaxes(jv, -1, -2))))) + nl.k_mono
    return diss, mono


def test_check_cubic_nonlinearity():
    nl = cubic_nonlinearity(1.0)
    assert nl.c_diss == pytest.approx(0.25)
    assert nl.k_mono == pytest.approx(1.0)
    diss, mono = structure_margins(nl, np.linspace(-2, 2, 401)[:, None])
    # v^4 - v^2 attains -1/4 exactly, so the dissipativity margin is tight
    assert -1e-8 <= diss <= 1e-3
    assert mono >= -1e-8


def test_check_zero_and_linear():
    for nl in (zero_nonlinearity(), linear_nonlinearity(2.0)):
        diss, mono = structure_margins(nl, np.linspace(-3, 3, 31)[:, None])
        assert diss >= -1e-8 and mono >= -1e-8


# ---------------------------------------------------------------------------
# discrete operators


def test_laplacian_eigenvector(grid64):
    u = sine_field(grid64, [1.0])
    lam = disc_eig(grid64, 1)
    np.testing.assert_allclose(laplacian(u.values, grid64.h), -lam * u.values, atol=1e-11)
    # the discrete eigenvalue converges to the continuum one at rate h^2
    assert abs(lam - 1.0) <= grid64.h**2 / 10


def test_laplacian_second_mode(grid128):
    u = sine_field(grid128, [0.0, 1.0])
    lam = disc_eig(grid128, 2)
    np.testing.assert_allclose(laplacian(u.values, grid128.h), -lam * u.values, atol=1e-10)


def linear_part(u: CylinderField, mats: CouplingMatrices) -> np.ndarray:
    """a(eps^2 u_tt + u_xx) - gamma u_t on the interior slices of u, by the
    assembled linear part of the space-time solver; the first and last
    slices of the result are zero."""
    k = mats.k
    system = _SpaceTimeSystem(
        u.sgrid, u.cgrid, mats, zero_nonlinearity(k), Constant(Field.zeros(u.sgrid, k)),
        u.slice(0),
    )
    out = (system.lin @ u.values.ravel()).reshape(system.shape3)
    out[0] = out[-1] = 0.0
    return out


def _modal_cylinder(grid, mu, t_len=1.0, m_steps=16, eps=0.5, j=1):
    cg = CylinderGrid(0.0, t_len, m_steps, eps)
    prof = sine_field(grid, [0.0] * (j - 1) + [1.0]).values
    vals = np.exp(mu * cg.times)[:, None, None] * prof[None]
    return CylinderField(grid, cg, vals), cg


def test_operator_zero_field(grid32):
    cg = CylinderGrid(0.0, 1.0, 8, 0.3)
    u = CylinderField(grid32, cg, np.zeros((9, 32, 1)))
    out = linear_part(u, CouplingMatrices.scalar())
    assert np.all(out == 0.0)


def test_operator_constant_in_time(grid64):
    # u(t, x) = sin x: time derivatives drop, interior slices are -lambda_h u
    mats = CouplingMatrices.scalar()
    u, cg = _modal_cylinder(grid64, mu=0.0, eps=0.7)
    out = linear_part(u, mats)
    lam = disc_eig(grid64, 1)
    np.testing.assert_allclose(out[1:-1], -lam * u.values[1:-1], rtol=1e-11)
    assert np.all(out[0] == 0.0) and np.all(out[-1] == 0.0)


def test_operator_modal_exact_discrete(grid64):
    # on u = e^{mu t} sin x the central stencils act by their exact symbols:
    # second difference 2(cosh(mu dt) - 1)/dt^2, first sinh(mu dt)/dt
    mats = CouplingMatrices.scalar()
    mu, eps = -0.8, 0.5
    u, cg = _modal_cylinder(grid64, mu=mu, m_steps=20, eps=eps)
    dt = cg.dt
    factor = (
        eps**2 * 2.0 * (math.cosh(mu * dt) - 1.0) / dt**2
        - disc_eig(grid64, 1)
        - math.sinh(mu * dt) / dt
    )
    out = linear_part(u, mats)
    np.testing.assert_allclose(
        out[1:-1], factor * u.values[1:-1], rtol=1e-9, atol=1e-11
    )


def test_operator_modal_continuum_rate():
    # against the continuum factor eps^2 mu^2 - j^2 - mu the defect is O(h^2 + dt^2)
    mu, eps, j = -1.3, 0.4, 2
    errs = []
    for n, m in ((32, 16), (64, 32)):
        grid = SpatialGrid(PI, n)
        u, cg = _modal_cylinder(grid, mu=mu, m_steps=m, eps=eps, j=j)
        out = linear_part(u, CouplingMatrices.scalar())
        cont = (eps**2 * mu**2 - j**2 - mu) * u.values[1:-1]
        errs.append(float(np.max(np.abs(out[1:-1] - cont))))
    assert errs[1] <= errs[0] / 3.0  # halving h and dt should shrink it ~4x


def test_operator_linearity(grid32):
    rng = np.random.default_rng(7)
    cg = CylinderGrid(0.0, 1.0, 8, 0.2)
    mats = CouplingMatrices.scalar()
    u = CylinderField(grid32, cg, rng.standard_normal((9, 32, 1)))
    v = CylinderField(grid32, cg, rng.standard_normal((9, 32, 1)))
    lhs = linear_part(
        CylinderField(grid32, cg, 2.0 * u.values - 3.0 * v.values), mats
    )
    rhs = 2.0 * linear_part(u, mats) - 3.0 * linear_part(v, mats)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_operator_needs_interior_slices(grid32):
    cg = CylinderGrid(0.0, 1.0, 1, 0.2)
    u = CylinderField(grid32, cg, np.zeros((2, 32, 1)))
    with pytest.raises(ValueError):
        linear_part(u, CouplingMatrices.scalar())


def test_operator_coupled_k2(grid32):
    # off-diagonal a mixes components: check against a hand-built einsum
    rng = np.random.default_rng(3)
    a = np.array([[1.0, 0.3], [-0.3, 1.0]])
    mats = CouplingMatrices(2, a, np.eye(2))
    cg = CylinderGrid(0.0, 1.0, 8, 0.25)
    vals = rng.standard_normal((9, 32, 2))
    u = CylinderField(grid32, cg, vals)
    out = linear_part(u, mats)
    utt = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / cg.dt**2
    ut = (vals[2:] - vals[:-2]) / (2 * cg.dt)
    lap = laplacian(vals[1:-1], grid32.h)
    expect = (0.25**2 * utt + lap) @ a.T - ut
    np.testing.assert_allclose(out[1:-1], expect, atol=1e-10)


# ---------------------------------------------------------------------------
# anisotropic norms


def test_weighted_norm_zero(grid32):
    cg = CylinderGrid(0.0, 2.0, 16, 0.5)
    u = CylinderField(grid32, cg, np.zeros((17, 32, 1)))
    assert weighted_norm(u, 2.0, 0.5) == 0.0


def test_weighted_norm_constant_in_time(grid64):
    # time derivatives vanish identically, leaving the W^{2,2} term of sin x:
    # (||u|| + ||Delta_h u||) integrated over a unit slab = sqrt(pi/2)(1 + lambda_h)
    u, _ = _modal_cylinder(grid64, mu=0.0, t_len=2.0, m_steps=40, eps=1.0)
    lam = disc_eig(grid64, 1)
    expect = math.sqrt(PI / 2) * (1.0 + lam)
    assert weighted_norm(u, 2.0, 0.5) == pytest.approx(expect, rel=1e-12)


def test_weighted_norm_decaying_mode():
    # u = e^{-t} sin x: all four continuum terms reduce to the same slab
    # integral T = sqrt((1 - e^{-2})/2 * pi/2); norm -> (eps^2 + 1 + 2) T
    grid = SpatialGrid(PI, 200)
    u, _ = _modal_cylinder(grid, mu=-1.0, t_len=2.0, m_steps=128, eps=1.0)
    T = math.sqrt((1.0 - math.exp(-2.0)) / 2.0 * PI / 2.0)
    assert weighted_norm(u, 2.0, 0.0) == pytest.approx(4.0 * T, rel=1e-2)


def test_weighted_norm_validation(grid32):
    cg = CylinderGrid(0.0, 2.0, 16, 0.5)
    u = CylinderField(grid32, cg, np.zeros((17, 32, 1)))
    with pytest.raises(SlabOutOfRange):
        weighted_norm(u, 2.0, 1.5)
    with pytest.raises(ValueError):
        weighted_norm(u, 1.0, 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.floats(-4.0, 4.0))
def test_weighted_norm_homogeneity(seed, c):
    rng = np.random.default_rng(seed)
    grid = SpatialGrid(PI, 12)
    cg = CylinderGrid(0.0, 1.5, 9, 0.5)
    vals = rng.standard_normal((10, 12, 1))
    u = CylinderField(grid, cg, vals)
    cu = CylinderField(grid, cg, c * vals)
    assert weighted_norm(cu, 2.0, 0.25) == pytest.approx(
        abs(c) * weighted_norm(u, 2.0, 0.25), rel=1e-10, abs=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.sampled_from([2.0, 3.0, 4.0]))
def test_weighted_norm_triangle(seed, p):
    rng = np.random.default_rng(seed)
    grid = SpatialGrid(PI, 12)
    cg = CylinderGrid(0.0, 1.5, 9, 0.5)
    a = rng.standard_normal((10, 12, 1))
    b = rng.standard_normal((10, 12, 1))
    lhs = weighted_norm(CylinderField(grid, cg, a + b), p, 0.25)
    rhs = weighted_norm(CylinderField(grid, cg, a), p, 0.25) + weighted_norm(
        CylinderField(grid, cg, b), p, 0.25
    )
    assert lhs <= rhs + 1e-10


def test_surrogate_v_norm_zero(grid64):
    assert surrogate_v_norm(Field.zeros(grid64), 0.5) == 0.0
    with pytest.raises(ValueError):
        surrogate_v_norm(Field.zeros(grid64), -0.1)


def test_surrogate_v_norm_sine():
    # cell-difference and Laplacian terms of the discrete sine mode follow
    # exactly from summation by parts; at eps = 1 the continuum value is
    # 3 sqrt(pi/2) (norm + gradient + Laplacian all equal for sin x)
    grid = SpatialGrid(PI, 200)
    u = sine_field(grid, [1.0])
    lam = disc_eig(grid, 1)
    base = math.sqrt(PI / 2)
    exact = base * (1.0 + math.sqrt(lam) + lam)
    got = surrogate_v_norm(u, 1.0)
    assert got == pytest.approx(exact, rel=1e-12)
    assert abs(got - 3.0 * base) <= 1e-3
    # eps = 0 drops the Laplacian term
    assert surrogate_v_norm(u, 0.0) == pytest.approx(base * (1.0 + math.sqrt(lam)), rel=1e-12)


def test_grad_cells_constant_slope(grid32):
    u = grid32.nodes[:, None] * 0.0 + 1.0
    g = grad_cells(u, grid32.h)
    # interior cells of a constant field are flat; boundary cells see the
    # implicit zero padding
    assert g.shape == (33, 1)
    np.testing.assert_allclose(g[1:-1], 0.0, atol=1e-14)


def _padded(v):
    pad = [(0, 0)] * v.ndim
    pad[-2] = (1, 1)
    return np.pad(v, pad)


@pytest.mark.parametrize("shape", [(40, 1), (5, 40, 1), (3, 4, 40, 2), (2, 1, 3)])
def test_operators_match_padded_reference_bit_for_bit(shape):
    # reference: the np.pad formulation of the two stencils
    rng = np.random.default_rng(sum(shape))
    v = rng.standard_normal(shape)
    v[..., 0, :] = -0.0  # signed zeros next to the boundary must survive too
    h = 0.0736
    p = _padded(v)
    lap_ref = (p[..., :-2, :] - 2.0 * v + p[..., 2:, :]) / h**2
    grad_ref = (p[..., 1:, :] - p[..., :-1, :]) / h
    assert laplacian(v, h).tobytes() == lap_ref.tobytes()
    assert grad_cells(v, h).tobytes() == grad_ref.tobytes()


# ---------------------------------------------------------------------------
# resolvent symbol


def test_symbol_exact_values():
    # eps = 0 collapses to z / (2 alpha) on the real axis
    assert symbol_A(4.0, 0.5, 0.0, 0.0) == pytest.approx(4.0)
    # alpha = 1, eps = 1, z = 3: sqrt(1 + 3) = 2, so A = 3 / (1 + 2) = 1
    assert symbol_A(3.0, 1.0, 0.0, 1.0) == pytest.approx(1.0)


def test_symbol_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 40
    alpha, beta, eps = 1.0, 0.5, 0.2
    z = 10.0 + 2.0j
    ab = mp.mpc(alpha, beta)
    expect = mp.mpc(z) / (ab + mp.sqrt(ab**2 + eps**2 * mp.mpc(z)))
    got = symbol_A(z, alpha, beta, eps)
    assert abs(got - complex(expect)) <= 1e-13 * abs(complex(expect))


def test_symbol_branch_ambiguity():
    with pytest.raises(BranchAmbiguity):
        symbol_A(-2.0, 1.0, 0.0, 1.0)  # sqrt argument lands at -1
    with pytest.raises(ValueError):
        symbol_A(1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        symbol_A(1.0, 1.0, 0.0, -0.5)


def test_symbol_parabolic_region_bounds():
    # along z = 1 + xi^2 the real part stays positive and the bracket ratio
    # z / (sqrt(1 + eps^2 z) Re A) stays within fixed bounds
    xi = np.logspace(-2, 3, 100)
    z = 1.0 + xi**2
    for eps in (0.0, 0.01, 0.1, 1.0):
        for alpha, beta in ((1.0, 0.0), (1.0, 0.5), (0.5, -0.3)):
            vals = np.array([symbol_A(zz, alpha, beta, eps) for zz in z])
            assert np.all(vals.real > 0)
            ratio = z / (np.sqrt(1.0 + eps**2 * z) * vals.real)
            assert ratio.min() >= 0.2 and ratio.max() <= 5.0
