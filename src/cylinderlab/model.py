"""Core model types and discrete operators.

The spatial domain is the interval (0, length) with homogeneous Dirichlet
conditions; fields store interior node values only, boundary values are
identically zero.  The cylinder couples that interval with a uniform time
grid and an anisotropy parameter eps in [0, EPS_MAX].

Quadrature conventions used throughout the package:

* spatial L^p integrals: trapezoid on [0, length]; with zero boundary
  values this is h * sum over interior nodes,
* gradient energies: forward differences on the n+1 cells (midpoint rule),
* time integrals over slabs: trapezoid with half weights at the slab ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BranchAmbiguity,
    NonFiniteValue,
    ShapeMismatch,
    SlabOutOfRange,
)

# Largest admissible anisotropy parameter.
EPS_MAX = 1.0


def _lock(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def symmetric(m: np.ndarray) -> bool:
    """Whether a square matrix equals its transpose to 1e-12 absolute."""
    return bool(np.allclose(m, m.T, atol=1e-12))


# ---------------------------------------------------------------------------
# grids and fields


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on (0, length) with n_interior interior nodes."""

    length: float
    n_interior: int

    def __post_init__(self):
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"length must be positive, got {self.length}")
        if self.n_interior < 1:
            raise ValueError(f"n_interior must be >= 1, got {self.n_interior}")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True)
class CylinderGrid:
    """Time grid [tau, tau + t_len] with m_steps uniform steps and parameter eps."""

    tau: float
    t_len: float
    m_steps: int
    eps: float

    def __post_init__(self):
        if not (self.t_len > 0 and math.isfinite(self.t_len)):
            raise ValueError(f"t_len must be positive, got {self.t_len}")
        if self.m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {self.m_steps}")
        if not (0.0 <= self.eps <= EPS_MAX):
            raise ValueError(f"eps must lie in [0, {EPS_MAX}], got {self.eps}")

    @property
    def dt(self) -> float:
        return self.t_len / self.m_steps

    @property
    def times(self) -> np.ndarray:
        return self.tau + self.dt * np.arange(self.m_steps + 1)


@dataclass(frozen=True)
class Field:
    """Vector-valued function on the interior nodes, shape (n_interior, k)."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n_interior:
            raise ShapeMismatch(
                f"field values must have shape ({self.grid.n_interior}, k), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue("field contains non-finite values")
        object.__setattr__(self, "values", _lock(v))

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def l2(self) -> float:
        """Discrete L2(omega) norm (trapezoid with zero boundary values)."""
        return math.sqrt(self.grid.h * float(np.sum(self.values**2)))

    def __add__(self, other: "Field") -> "Field":
        _same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)

    @staticmethod
    def zeros(grid: SpatialGrid, k: int = 1) -> "Field":
        return Field(grid, np.zeros((grid.n_interior, k)))


def _same_grid(x: Field, y: Field) -> None:
    if x.grid != y.grid or x.k != y.k:
        raise ShapeMismatch("fields live on different grids or component counts")


def sine_field(grid: SpatialGrid, coeffs, k: int = 1) -> Field:
    """Field sum_j coeffs[j] * sin((j+1) pi x / length), per component.

    coeffs has shape (modes,) for k=1 or (modes, k).
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim == 1:
        c = c[:, None]
    if c.shape[1] != k:
        raise ShapeMismatch(f"coeffs have {c.shape[1]} components, expected {k}")
    x = grid.nodes
    vals = np.zeros((grid.n_interior, k))
    for j in range(c.shape[0]):
        vals += np.sin((j + 1) * np.pi * x / grid.length)[:, None] * c[j][None, :]
    return Field(grid, vals)


@dataclass(frozen=True)
class CylinderField:
    """Space-time field on a cylinder, values shape (m_steps + 1, n_interior, k)."""

    sgrid: SpatialGrid
    cgrid: CylinderGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = (self.cgrid.m_steps + 1, self.sgrid.n_interior)
        if v.ndim != 3 or v.shape[:2] != expected:
            raise ShapeMismatch(
                f"cylinder values must have shape ({expected[0]}, {expected[1]}, k), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue("cylinder field contains non-finite values")
        object.__setattr__(self, "values", _lock(v))

    @property
    def k(self) -> int:
        return self.values.shape[2]

    def slice(self, j: int) -> Field:
        return Field(self.sgrid, self.values[j])


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled evolution: times (nt,), values (nt, n_interior, k)."""

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] != t.shape[0] or v.shape[1] != self.grid.n_interior:
            raise ShapeMismatch(f"trajectory shapes inconsistent: {t.shape} vs {v.shape}")
        object.__setattr__(self, "times", _lock(t))
        object.__setattr__(self, "values", _lock(v))

    @property
    def k(self) -> int:
        return self.values.shape[2]

    def field(self, j: int) -> Field:
        return Field(self.grid, self.values[j])


@dataclass(frozen=True)
class Ensemble:
    """R trajectories on shared times: times (nt,), values (R, nt, n_interior, k).

    A float64 values array is frozen in place rather than copied, since an
    ensemble of long runs can be large.
    """

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 4 or v.shape[1] != t.shape[0] or v.shape[2] != self.grid.n_interior:
            raise ShapeMismatch(f"ensemble shapes inconsistent: {t.shape} vs {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "times", _lock(t))
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    def member(self, i: int) -> Trajectory:
        return Trajectory(self.grid, self.times, self.values[i])


# ---------------------------------------------------------------------------
# coupling matrices and nonlinearities


@dataclass(frozen=True)
class CouplingMatrices:
    """Constant k x k matrices a and gamma.

    a + a^T must be positive definite; gamma must be symmetric positive
    definite.  Validated at construction.
    """

    k: int
    a: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        g = np.asarray(self.gamma, dtype=float)
        if a.shape != (self.k, self.k) or g.shape != (self.k, self.k):
            raise ShapeMismatch(f"matrices must be ({self.k}, {self.k})")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
            raise NonFiniteValue("coupling matrices contain non-finite entries")
        if np.linalg.eigvalsh(a + a.T).min() <= 0:
            raise ValueError("a + a^T must be positive definite")
        if not symmetric(g):
            raise ValueError("gamma must be symmetric")
        if np.linalg.eigvalsh(0.5 * (g + g.T)).min() <= 0:
            raise ValueError("gamma must be positive definite")
        object.__setattr__(self, "a", _lock(a))
        object.__setattr__(self, "gamma", _lock(g))

    @staticmethod
    def scalar(a: float = 1.0, gamma: float = 1.0) -> "CouplingMatrices":
        return CouplingMatrices(1, np.array([[a]]), np.array([[gamma]]))


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise nonlinearity f: R^k -> R^k with its structural constants.

    f and jac_f are vectorized over leading axes: f maps (..., k) -> (..., k),
    jac_f maps (..., k) -> (..., k, k).  potential_F, when present, maps
    (..., k) -> (...) and satisfies f = grad potential_F.

    c_diss bounds f(v).v >= -c_diss, k_mono bounds sym(jac_f) >= -k_mono I.
    """

    k: int
    f: Callable[[np.ndarray], np.ndarray]
    jac_f: Callable[[np.ndarray], np.ndarray]
    c_diss: float
    k_mono: float
    potential_F: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"


def cubic_nonlinearity(lam: float, k: int = 1) -> Nonlinearity:
    """Componentwise f(v) = v^3 - lam v with potential v^4/4 - lam v^2/2."""

    def f(v):
        return v * v * v - lam * v

    def jac(v):
        v = np.asarray(v, dtype=float)
        d = 3.0 * v**2 - lam
        if v.shape[-1] == 1:
            return d[..., None]
        out = np.zeros(v.shape + (v.shape[-1],))
        idx = np.arange(v.shape[-1])
        out[..., idx, idx] = d
        return out

    def pot(v):
        v2 = v * v
        return np.sum(v2 * v2 / 4.0 - lam * v2 / 2.0, axis=-1)

    # f(v).v = sum v^4 - lam v^2 >= -k lam^2/4; f' = 3v^2 - lam >= -lam
    return Nonlinearity(
        k=k,
        f=f,
        jac_f=jac,
        c_diss=k * max(lam, 0.0) ** 2 / 4.0,
        k_mono=max(lam, 0.0),
        potential_F=pot,
        name=f"cubic(lam={lam})",
    )


def zero_nonlinearity(k: int = 1) -> Nonlinearity:
    """f identically zero (linear equation)."""

    def f(v):
        return np.zeros_like(np.asarray(v, dtype=float))

    def jac(v):
        v = np.asarray(v, dtype=float)
        return np.zeros(v.shape + (v.shape[-1],))

    def pot(v):
        v = np.asarray(v, dtype=float)
        return np.zeros(v.shape[:-1])

    return Nonlinearity(k, f, jac, 0.0, 0.0, pot, name="zero")


def linear_nonlinearity(c: float, k: int = 1) -> Nonlinearity:
    """f(v) = c v; structural constants valid as stated for c >= 0."""

    def f(v):
        return c * np.asarray(v, dtype=float)

    def jac(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros(v.shape + (v.shape[-1],))
        idx = np.arange(v.shape[-1])
        out[..., idx, idx] = c
        return out

    def pot(v):
        return np.sum(c * v**2 / 2.0, axis=-1)

    return Nonlinearity(k, f, jac, 0.0, max(0.0, -c), pot, name=f"linear(c={c})")


# ---------------------------------------------------------------------------
# discrete operators


def _with_boundary(v: np.ndarray) -> np.ndarray:
    """(..., n + 2, k) copy of (..., n, k) values with the zero boundary rows."""
    p = np.zeros(v.shape[:-2] + (v.shape[-2] + 2, v.shape[-1]))
    p[..., 1:-1, :] = v
    return p


def laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """Three-point Dirichlet Laplacian along axis -2 of (..., n, k) values."""
    v = np.asarray(values, dtype=float)
    p = _with_boundary(v)
    # (left - 2v + right) / h^2 in that order, finished in the first
    # temporary: on member stacks that beats fresh temporaries and a
    # copy-free form built from -2v
    out = p[..., :-2, :] - 2.0 * v
    out += p[..., 2:, :]
    out /= h**2
    return out


def _dt1(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order first time derivative; one-sided at the cylinder ends."""
    v = values
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out


def _dt2(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order second time derivative; one-sided at the cylinder ends."""
    v = values
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dt**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dt**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dt**2
    return out


def _space_lp(values: np.ndarray, h: float, p: float) -> np.ndarray:
    """||.||_{L^p(omega)} per time slice for (t, n, k) values (zero boundary)."""
    return (h * np.sum(np.abs(values) ** p, axis=(-2, -1))) ** (1.0 / p)


def _trapz(y: np.ndarray, dx: float) -> float:
    w = np.ones(y.shape[0])
    w[0] = w[-1] = 0.5
    return float(dx * np.sum(w * y))


def weighted_norm(u: CylinderField, p: float, slab_start: float) -> float:
    """Anisotropic norm eps^2 ||u_tt||_p + ||u_t||_p + ||u||_{L^p W^{2,p}} on a unit slab.

    The W^{2,p}(omega) norm of a slice is taken in the equivalent form
    ||u||_p + ||Delta u||_p.  The slab [slab_start, slab_start + 1] must be
    contained in the cylinder.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    cg, sg = u.cgrid, u.sgrid
    t0, t1 = slab_start, slab_start + 1.0
    if t0 < cg.tau - 1e-9 or t1 > cg.tau + cg.t_len + 1e-9:
        raise SlabOutOfRange(
            f"slab [{t0}, {t1}] not contained in [{cg.tau}, {cg.tau + cg.t_len}]"
        )
    if cg.m_steps < 3:
        raise ValueError("need m_steps >= 3 for time derivative stencils")
    j0 = int(math.ceil((t0 - cg.tau) / cg.dt - 1e-9))
    j1 = int(math.floor((t1 - cg.tau) / cg.dt + 1e-9))
    v = u.values
    eps = cg.eps

    utt = _dt2(v, cg.dt)[j0 : j1 + 1]
    ut = _dt1(v, cg.dt)[j0 : j1 + 1]
    vs = v[j0 : j1 + 1]
    lap = laplacian(vs, sg.h)

    term_tt = _trapz(_space_lp(utt, sg.h, p) ** p, cg.dt) ** (1.0 / p)
    term_t = _trapz(_space_lp(ut, sg.h, p) ** p, cg.dt) ** (1.0 / p)
    w2p = _space_lp(vs, sg.h, p) + _space_lp(lap, sg.h, p)
    term_x = _trapz(w2p**p, cg.dt) ** (1.0 / p)
    return eps**2 * term_tt + term_t + term_x


def grad_cells(values: np.ndarray, h: float) -> np.ndarray:
    """Forward differences on the n+1 cells of (..., n, k) values (zero boundary)."""
    p = _with_boundary(np.asarray(values, dtype=float))
    return (p[..., 1:, :] - p[..., :-1, :]) / h


def surrogate_v_norm(u0: Field, eps: float) -> float:
    """Trace-space surrogate ||u0|| + ||grad u0|| + eps ||Delta u0|| in L2."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    h = u0.grid.h
    l2 = u0.l2()
    g = grad_cells(u0.values, h)
    gn = math.sqrt(h * float(np.sum(g**2)))
    lap = laplacian(u0.values, h)
    ln = math.sqrt(h * float(np.sum(lap**2)))
    return l2 + gn + eps * ln


def symbol_A(z: complex, alpha: float, beta: float, eps: float) -> complex:
    """Resolvent symbol z / (alpha + i beta + sqrt((alpha + i beta)^2 + eps^2 z)).

    Principal square root (positive on the positive real axis).  Raises
    BranchAmbiguity when the square-root argument is a negative real number.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    z = complex(z)
    ab = complex(alpha, beta)
    w = ab * ab + eps**2 * z
    if w.imag == 0.0 and w.real < 0.0:
        raise BranchAmbiguity(f"sqrt argument {w} lies on the negative real axis")
    s = complex(np.sqrt(complex(w)))
    return z / (ab + s)
