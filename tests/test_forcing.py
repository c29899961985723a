import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylinderlab import (
    AverageNotConverged,
    Constant,
    FastScaled,
    Field,
    Heteroclinic,
    Patchwork,
    Periodic,
    Quasiperiodic,
    ShapeMismatch,
    eval_forcing,
    forcing_mean,
    sine_field,
    time_average,
)
from conftest import PI


@pytest.fixture(scope="module")
def profiles(grid64):
    return {
        "sin": sine_field(grid64, [1.0]),
        "sin2": sine_field(grid64, [0.0, 0.7]),
        "zero": Field.zeros(grid64),
    }


def test_constant_everywhere(profiles):
    g = Constant(profiles["sin"])
    for t in (-3.0, 0.0, 17.5):
        np.testing.assert_array_equal(eval_forcing(g, t).values, profiles["sin"].values)


def test_periodic_quarter_period(profiles):
    g = Periodic(profiles["sin2"], profiles["sin"], omega=1.0)
    got = eval_forcing(g, PI / 2)
    np.testing.assert_allclose(
        got.values, profiles["sin2"].values + profiles["sin"].values, atol=1e-15
    )
    at_zero = eval_forcing(g, 0.0)
    np.testing.assert_array_equal(at_zero.values, profiles["sin2"].values)


def test_quasiperiodic_combination(profiles):
    g = Quasiperiodic(profiles["zero"], profiles["sin"], 1.0, profiles["sin2"], math.sqrt(2))
    t = 0.83
    expect = (
        math.sin(t) * profiles["sin"].values
        + math.sin(math.sqrt(2) * t) * profiles["sin2"].values
    )
    np.testing.assert_allclose(eval_forcing(g, t).values, expect, atol=1e-15)


def test_heteroclinic_blend(profiles):
    g = Heteroclinic(profiles["sin"], profiles["sin2"], scale=2.0)
    mid = eval_forcing(g, 0.0)
    np.testing.assert_allclose(
        mid.values, 0.5 * (profiles["sin"].values + profiles["sin2"].values), atol=1e-15
    )
    # tanh saturates: far past the transition both endpoints are met
    np.testing.assert_allclose(
        eval_forcing(g, 60.0).values, profiles["sin2"].values, atol=1e-14
    )
    np.testing.assert_allclose(
        eval_forcing(g, -60.0).values, profiles["sin"].values, atol=1e-14
    )
    w = 0.5 * (1.0 + math.tanh(1.0))
    expect = (1 - w) * profiles["sin"].values + w * profiles["sin2"].values
    np.testing.assert_allclose(eval_forcing(g, 2.0).values, expect, atol=1e-14)


def test_patchwork_interval_selection(profiles):
    g1 = Constant(profiles["sin"])
    g2 = Constant(profiles["sin2"])
    g = Patchwork(g1, g2)
    # [0,1) and [4,9) belong to g1, [1,4) and [9,16) to g2
    np.testing.assert_array_equal(eval_forcing(g, 0.5).values, profiles["sin"].values)
    np.testing.assert_array_equal(eval_forcing(g, 4.5).values, profiles["sin"].values)
    np.testing.assert_array_equal(eval_forcing(g, 2.0).values, profiles["sin2"].values)
    np.testing.assert_array_equal(eval_forcing(g, 9.0).values, profiles["sin2"].values)


def test_fast_scaled_exact_identity(profiles):
    # with a power-of-two eps the time division is exact in floating point,
    # so the identity eval(FastScaled(g, eps), eps t) = eval(g, t) is bitwise
    inner = Periodic(profiles["sin2"], profiles["sin"], omega=3.0)
    eps = 0.25
    g = FastScaled(inner, eps)
    for t in (0.0, 0.733, 5.1):
        np.testing.assert_array_equal(
            eval_forcing(g, eps * t).values, eval_forcing(inner, t).values
        )


def test_fast_scaled_generic_eps(profiles):
    inner = Periodic(profiles["zero"], profiles["sin"], omega=1.0)
    g = FastScaled(inner, 0.1)
    t = 0.45
    np.testing.assert_allclose(
        eval_forcing(g, t).values, eval_forcing(inner, t / 0.1).values, atol=1e-12
    )


def test_forcing_validation(profiles, grid32):
    small = Field.zeros(grid32)
    with pytest.raises(ShapeMismatch):
        Periodic(profiles["sin"], small, omega=1.0)
    with pytest.raises(ValueError):
        Periodic(profiles["sin"], profiles["sin2"], omega=0.0)
    with pytest.raises(ValueError):
        FastScaled(Constant(profiles["sin"]), 0.0)
    with pytest.raises(ValueError):
        Heteroclinic(profiles["sin"], profiles["sin2"], scale=-1.0)
    with pytest.raises(ShapeMismatch):
        Patchwork(Constant(profiles["sin"]), Constant(small))


# ---------------------------------------------------------------------------
# intrinsic scales, means, periods


def test_finest_scale_cases(profiles):
    sin = profiles["sin"]
    assert Constant(sin).scale == math.inf
    assert Periodic(sin, sin, 4.0).scale == pytest.approx(PI / 2)
    assert Quasiperiodic(sin, sin, 1.0, sin, 5.0).scale == pytest.approx(2 * PI / 5)
    assert Heteroclinic(sin, sin, 0.7).scale == 0.7
    assert Patchwork(Constant(sin), Constant(sin)).scale == 1.0
    g = Periodic(sin, sin, 1.0)
    assert FastScaled(g, 0.1).scale == pytest.approx(0.2 * PI)


def test_forcing_period_cases(profiles):
    sin = profiles["sin"]
    assert Constant(sin).period == 0.0
    assert Periodic(sin, sin, 2.0).period == pytest.approx(PI)
    assert FastScaled(Periodic(sin, sin, 2.0), 0.5).period == pytest.approx(PI / 2)
    assert Quasiperiodic(sin, sin, 1.0, sin, math.sqrt(2)).period is None
    assert Patchwork(Constant(sin), Constant(sin)).period is None
    assert FastScaled(FastScaled(Constant(sin), 0.5), 0.5).period == 0.0


def test_forcing_mean_cases(profiles):
    sin, sin2 = profiles["sin"], profiles["sin2"]
    np.testing.assert_array_equal(forcing_mean(Constant(sin)).values, sin.values)
    np.testing.assert_array_equal(forcing_mean(Periodic(sin2, sin, 1.0)).values, sin2.values)
    np.testing.assert_array_equal(
        forcing_mean(FastScaled(Periodic(sin2, sin, 1.0), 0.1)).values, sin2.values
    )
    shared = Patchwork(Periodic(sin2, sin, 2 * PI), Periodic(sin2, sin, 4 * PI))
    np.testing.assert_array_equal(forcing_mean(shared).values, sin2.values)
    with pytest.raises(AverageNotConverged):
        forcing_mean(Patchwork(Constant(sin), Constant(sin2)))
    with pytest.raises(AverageNotConverged):
        forcing_mean(Heteroclinic(sin, sin2, 1.0))


def test_negate_forcing_all_variants(profiles):
    sin, sin2 = profiles["sin"], profiles["sin2"]
    cases = [
        Constant(sin),
        Periodic(sin2, sin, 1.3),
        Quasiperiodic(sin2, sin, 1.0, sin2, 2.2),
        Heteroclinic(sin, sin2, 0.5),
        Patchwork(Constant(sin), Periodic(Field.zeros(sin.grid), sin, 2 * PI)),
        FastScaled(Periodic(sin2, sin, 1.0), 0.2),
    ]
    for g in cases:
        ng = -g
        assert type(ng) is type(g)
        for t in (0.0, 1.7, 6.2):
            np.testing.assert_allclose(
                eval_forcing(ng, t).values, -eval_forcing(g, t).values, atol=1e-15
            )


# ---------------------------------------------------------------------------
# time averages


def test_average_constant(profiles):
    g = Constant(profiles["sin"])
    np.testing.assert_array_equal(
        time_average(g, 3.0, 10.0).values, profiles["sin"].values
    )


def test_average_periodic_full_periods(profiles):
    # uniform trapezoid nodes over whole periods integrate sin exactly
    # (Euler-Maclaurin: all correction terms cancel by periodicity)
    g = Periodic(profiles["sin2"], profiles["sin"], omega=2.0)
    avg = time_average(g, 0.6, 3 * PI)
    np.testing.assert_allclose(avg.values, profiles["sin2"].values, atol=1e-13)


def test_average_periodic_partial_window(profiles):
    # half a period of sin starting at 0 leaves mean + (2/(omega w)) osc;
    # partial windows see the raw trapezoid error of ~48 nodes per scale
    g = Periodic(profiles["zero"], profiles["sin"], omega=1.0)
    avg = time_average(g, 0.0, PI)
    np.testing.assert_allclose(
        avg.values, (2.0 / PI) * profiles["sin"].values, rtol=5e-3
    )


def test_average_fast_scaled_change_of_variables(profiles):
    g = Periodic(profiles["sin2"], profiles["sin"], omega=1.0)
    eps = 0.125
    a = time_average(FastScaled(g, eps), eps * 1.5, eps * 7.0)
    b = time_average(g, 1.5, 7.0)
    np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-14)


def test_average_patchwork_zero_mean(profiles):
    # zero-mean 1-periodic children: every integer window averages to zero,
    # so a long window is small relative to the oscillation amplitude
    sin = profiles["sin"]
    zero = profiles["zero"]
    g = Patchwork(Periodic(zero, sin, 2 * PI), Periodic(zero, 0.8 * sin, 4 * PI))
    avg = time_average(g, 0.0, 400.0)
    assert avg.l2() <= 0.05 * sin.l2()


def test_average_patchwork_splits_at_switches(profiles):
    # across the switch at t = 1 the average weights each child by time spent
    sin, sin2 = profiles["sin"], profiles["sin2"]
    g = Patchwork(Constant(sin), Constant(sin2))
    avg = time_average(g, 0.5, 1.0)
    expect = 0.5 * (sin.values + sin2.values)
    np.testing.assert_allclose(avg.values, expect, atol=1e-12)
    # under fast scaling the switch sits at t = eps and is split there too
    fast = time_average(FastScaled(g, 0.3), 0.15, 0.3)
    np.testing.assert_allclose(fast.values, expect, atol=1e-12)


def test_average_nested_patchwork_splits_at_inner_switches(profiles):
    # on [0, 1] the outer patchwork is its first child, which switches from
    # a to b at t = 0.3 inside that piece
    a, b = profiles["sin"], profiles["sin2"]
    inner = FastScaled(Patchwork(Constant(a), Constant(b)), 0.3)
    avg = time_average(Patchwork(inner, Constant(a)), 0.0, 1.0)
    np.testing.assert_allclose(avg.values, 0.3 * a.values + 0.7 * b.values, rtol=0, atol=1e-10)


def test_average_window_validation(profiles):
    with pytest.raises(ValueError):
        time_average(Constant(profiles["sin"]), 0.0, 0.0)


@settings(max_examples=20, deadline=None)
@given(
    t=st.floats(-5.0, 5.0),
    eps=st.sampled_from([0.5, 0.25, 0.125, 0.0625]),
    omega=st.floats(0.5, 4.0),
)
def test_fast_scaled_identity_property(t, eps, omega, grid32):
    sin = sine_field(grid32, [1.0])
    inner = Periodic(sin, 0.3 * sin, omega)
    np.testing.assert_array_equal(
        eval_forcing(FastScaled(inner, eps), eps * t).values,
        eval_forcing(inner, t).values,
    )


# ---------------------------------------------------------------------------
# window against the per-family scalar formulas


def _first_patch_reference(t):
    """The scalar switching rule: g1 where |t| lies in [m^2, (m+1)^2), m even."""
    m = int(math.floor(math.sqrt(abs(t))))
    if (m + 1) ** 2 <= abs(t):
        m += 1
    elif m**2 > abs(t):
        m -= 1
    return m % 2 == 0


def _reference(spec, t):
    """Value at t by the formula of each family, spec = (family, *arguments)."""
    family, *args = spec
    if family == "constant":
        return args[0].values
    if family == "heteroclinic":
        g_minus, g_plus, scale = args
        w = 0.5 * (1.0 + math.tanh(t / scale))
        return g_minus.values + w * (g_plus.values - g_minus.values)
    if family == "periodic":
        mean, osc, omega = args
        return mean.values + math.sin(omega * t) * osc.values
    if family == "quasiperiodic":
        mean, osc1, omega1, osc2, omega2 = args
        return mean.values + math.sin(omega1 * t) * osc1.values + math.sin(omega2 * t) * osc2.values
    if family == "patchwork":
        return _reference(args[0] if _first_patch_reference(t) else args[1], t)
    inner, eps = args
    return _reference(inner, t / eps)


_BUILDERS = {
    "constant": Constant,
    "heteroclinic": Heteroclinic,
    "periodic": Periodic,
    "quasiperiodic": Quasiperiodic,
}


def _build(spec):
    family, *args = spec
    if family == "patchwork":
        return Patchwork(_build(args[0]), _build(args[1]))
    if family == "fast":
        return FastScaled(_build(args[0]), args[1])
    return _BUILDERS[family](*args)


def test_window_matches_family_formulas_bit_for_bit(profiles):
    sin, sin2, zero = profiles["sin"], profiles["sin2"], profiles["zero"]
    periodic = ("periodic", sin2, -0.8 * sin, 1.3)
    quasi = ("quasiperiodic", 0.2 * sin, sin, 1.0, sin2, math.sqrt(2))
    hetero = ("heteroclinic", sin, -1.5 * sin2, 0.7)
    patch = ("patchwork", periodic, hetero)
    cases = [
        ("constant", sin2),
        periodic,
        quasi,
        hetero,
        patch,
        ("patchwork", ("constant", zero), quasi),
        ("fast", patch, 0.3),
        ("fast", ("fast", quasi, 0.7), 0.1),
        ("fast", ("fast", patch, 0.5), 0.2),
    ]
    squares = np.array([m * m for m in range(7)], dtype=float)
    near = np.concatenate([squares, np.nextafter(squares, -np.inf), np.nextafter(squares, np.inf)])
    ts = np.concatenate(
        [near, -near, 0.3 * near, 0.1 * near, np.random.default_rng(7).uniform(-40.0, 40.0, 300)]
    )
    for spec in cases:
        g = _build(spec)
        got = g.window(ts)
        assert got.shape == (ts.size,) + sin.values.shape
        np.testing.assert_array_equal(got, np.stack([_reference(spec, float(t)) for t in ts]))
        for t in ts[::17]:
            np.testing.assert_array_equal(eval_forcing(g, float(t)).values, g.window([t])[0])
