import numpy as np
import pytest

from cylinderlab import NewtonDiverged, NewtonOptions, damped_newton


def test_scalar_quadratic_root():
    def res(x):
        return x * x - 4.0

    def step(x, r):
        return -r / (2.0 * x)

    x, trace = damped_newton(np.array([3.0]), res, step, NewtonOptions(tol_residual=1e-12))
    assert x[0] == pytest.approx(2.0, abs=1e-10)
    # quadratic convergence: the residual trace is strictly decreasing
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_already_converged_returns_input():
    x0 = np.array([2.0])
    x, trace = damped_newton(
        x0, lambda x: x * x - 4.0, lambda x, r: -r / (2 * x), NewtonOptions()
    )
    assert len(trace) == 1
    np.testing.assert_array_equal(x, x0)


def test_linear_system_single_step():
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([5.0, 5.0])

    def res(x):
        return A @ x - b

    def step(x, r):
        return np.linalg.solve(A, -r)

    x, trace = damped_newton(np.zeros(2), res, step, NewtonOptions(tol_residual=1e-13))
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-12)
    assert len(trace) == 2  # entry residual plus the one exact step


def test_divergence_carries_trace():
    # no real root: the residual can never reach the tolerance
    def res(x):
        return x * x + 1.0

    def step(x, r):
        return -r / (2.0 * x)

    with pytest.raises(NewtonDiverged) as ei:
        damped_newton(np.array([0.5]), res, step, NewtonOptions(max_iters=8))
    trace = ei.value.trace
    assert len(trace) >= 1
    assert all(v >= 0 for v in trace)


def test_divergence_names_the_tolerance():
    # both ways of failing name the residual tolerance that was asked for
    def res(x):
        return x * x + 1.0

    def step(x, r):
        return -r / (2.0 * x)

    with pytest.raises(NewtonDiverged, match=r"stalled at residual \S+ \(tolerance 1e-08\)$"):
        damped_newton(np.array([0.5]), res, step, NewtonOptions(max_iters=8))
    with pytest.raises(
        NewtonDiverged, match=r"no convergence in 2 iterations, residual \S+ \(tolerance 1e-12\)$"
    ):
        damped_newton(np.array([1.0]), np.arctan, lambda x, r: -r * (1.0 + x * x) / 2.0,
                      NewtonOptions(tol_residual=1e-12, max_iters=2))


def test_damping_rescues_overshoot():
    # undamped Newton on arctan from x0 = 2 overshoots and cycles outward;
    # the halving line search contracts it to the root at 0
    def res(x):
        return np.arctan(x)

    def step(x, r):
        return -r * (1.0 + x * x)

    x, _ = damped_newton(
        np.array([2.0]), res, step, NewtonOptions(tol_residual=1e-10, max_iters=50)
    )
    assert abs(x[0]) <= 1e-9


def test_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(tol_residual=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(max_iters=0)
