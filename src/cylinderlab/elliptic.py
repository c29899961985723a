"""Space-time Newton solver for the perturbed elliptic problem on a cylinder.

Solves a (eps^2 u_tt + u_xx) - gamma u_t - f(u) = g(t) on [tau, tau + t_len]
with u(tau) = u_tau and homogeneous Dirichlet in x.  The cylinder is
semi-infinite and u stays bounded as t -> infinity; a truncated window ends
in the one far condition du/dt = 0 (one-sided, second order), a margin
behind the slices it reports (ProcessContext.margin_steps).  All time slices
are unknowns of one sparse block-tridiagonal system, solved by damped Newton.

Every linear solve runs the module's right-preconditioned GMRES.  The
preconditioner is fast diagonalization: a DST-I in x splits the Jacobian,
with f' replaced by its mean over x on each slice, into one time operator
per sine mode, factored once per solve; for k = 1 a row operation on the
far row makes every mode tridiagonal, and k > 1 keeps a banded LU.  The
Newton iteration is inexact (Dembo, Eisenstat & Steihaug 1982): GMRES of
step k stops at the relative tolerance eta_k of Eisenstat & Walker's
choice 2 (1996), loose while the residual is far from the Newton target
and tighter as it converges.  Every other solve (a single Jacobian solve,
as in variational_process) runs to _KRYLOV_RTOL.  A solve whose GMRES
fails, or whose true residual misses a bound scaled with its tolerance, is
redone by a sparse LU of the assembled Jacobian.  The linear part, the
preconditioner band and the index maps depend on the window shape only;
they are built once per shape, cached and shared read-only, so a window
builds only its right-hand side.

The time-periodic cylinder (solve_periodic_bvp) needs no initial slice and
no far condition: its unknowns are one period of slices, and every row is
the centered PDE row with the time index taken mod the period.  Its
preconditioner replaces f' by its mean over x and t, which a DST-I in x and
an rfft in t diagonalize exactly into one k x k symbol per sine mode and
frequency.  Newton, the GMRES tolerances and the sparse LU fallback are
those of the truncated window.

At eps = 0 the time-second-derivative block vanishes and the problem is an
initial-value problem: every eps = 0 call runs the parabolic
semigroup_evolve on -g (the elliptic convention puts g on the right-hand
side, the parabolic one adds it), so one ProcessContext models the whole
family eps >= 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import DegenerateData, NewtonDiverged, ShapeMismatch, SingularJacobian
from .forcing import Constant, Forcing
from .model import (
    CouplingMatrices,
    CylinderField,
    CylinderGrid,
    Ensemble,
    Field,
    Nonlinearity,
    SpatialGrid,
    Trajectory,
    surrogate_v_norm,
    weighted_norm,
    zero_nonlinearity,
)
from .newton import NewtonOptions, damped_newton
from .parabolic import StepOptions, _initial_stack, semigroup_evolve, variational_evolve

if TYPE_CHECKING:
    import scipy.sparse as sp

DT_CAP = 1.0 / 64.0
MARGIN_MIN = 2.0
# relative far-condition error the margin rule leaves at the output end of a
# window: the accuracy it targets, far below the Newton tolerance, so that
# truncating the cylinder moves a slice less than the solver's own error
_MARGIN_TOL = 1e-12

_GBTRF, _GBTRS, _GTTRF, _GTTRS = get_lapack_funcs(
    ("gbtrf", "gbtrs", "gttrf", "gttrs"), dtype=np.float64
)
# GMRES of an exact linear solve: relative tolerance on the true residual
# 2-norm, restart length and restart cycles; a result whose true residual
# |J x - b|_inf exceeds _KRYLOV_CHECK (rtol / _KRYLOV_RTOL) |b|_inf, rtol the
# tolerance GMRES ran to, is redone by the sparse LU
_KRYLOV_RTOL = 1e-12
_KRYLOV_RESTART = 60
_KRYLOV_CYCLES = 2
_KRYLOV_CHECK = 1e-9
# Eisenstat-Walker choice 2 forcing terms of the Newton steps: eta_0 =
# _ETA_MAX, then eta_k = _EW_GAMMA (|F_k| / |F_{k-1}|)^2 in sup norms,
# capped at _ETA_MAX and floored at _KRYLOV_RTOL.  On an eps = 0.05
# attractor-sweep trajectory a cap of 1e-4 moved the slices 1.0e-10 from
# exact steps and 1e-5 moved them 1.8e-11, at about half the GMRES work
_ETA_MAX = 1e-5
_EW_GAMMA = 0.9


def default_dt(eps: float) -> float:
    """Step target resolving the eps^2 u_tt layer: eps/4, capped at 1/64."""
    if eps <= 0.0:
        return 1e-3
    return min(eps / 4.0, DT_CAP)


# window shapes whose space-time operators stay cached: an evolve uses two
# per eps (full windows and a partial last one), a periodic track one
_OPERATOR_CACHE = 8


def _pde_part(sgrid, dt, eps, a, gam, rows, size):
    """Pieces both cylinder operators share, for the PDE rows at the time
    slices rows of a size-slice layout, each reading slices rows - 1, rows
    and rows + 1 mod size: the linear part of those rows, a (eps^2 u_tt +
    u_xx) - gamma u_t by centered differences (sparse, unknowns ordered
    (slice, node, component)); the orthonormal DST-I as an n x n matrix;
    the Dirichlet Laplacian's eigenvalues on the sine modes; and the
    row/column pattern of the f' blocks on those rows, (j, i, c, d) order.
    """
    # imported here, not at module level: an eps = 0 run never builds a
    # space-time operator and so never pays for scipy.sparse
    import scipy.sparse as sp

    n, h, k = sgrid.n_interior, sgrid.h, a.shape[0]
    one = np.ones(len(rows))
    prev, nxt = (rows - 1) % size, (rows + 1) % size

    def stencil(*terms):
        """Time stencil of the rows from (weight, columns) terms."""
        return sp.coo_matrix(
            (
                np.concatenate([w * one for w, _ in terms]),
                (np.tile(rows, len(terms)), np.concatenate([c for _, c in terms])),
            ),
            shape=(size, size),
        )

    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
    eye_n = sp.identity(n)
    a_sp, gam_sp = sp.csr_matrix(a), sp.csr_matrix(gam)
    lin = (
        (eps**2 / dt**2)
        * sp.kron(stencil((1.0, prev), (-2.0, rows), (1.0, nxt)), sp.kron(eye_n, a_sp))
        + sp.kron(stencil((1.0, rows)), sp.kron(lap, a_sp))
        - (1.0 / dt) * sp.kron(stencil((-0.5, prev), (0.5, nxt)), sp.kron(eye_n, gam_sp))
    )
    # for the grids in use one product with the DST-I matrix is cheaper
    # than per-slice transforms.  Its closed form sqrt(2/(n+1)) sin(pi p q /
    # (n+1)), p, q = 1 ... n, with p q reduced mod 2(n+1): every sine
    # argument stays in [0, 2 pi) and the matrix is exactly symmetric
    p = np.arange(1, n + 1)
    sine = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * (np.outer(p, p) % (2 * (n + 1))) / (n + 1))
    lam = -(4.0 / h**2) * np.sin(p * math.pi / (2 * (n + 1))) ** 2
    jj, ii, cc, dd = np.meshgrid(rows, np.arange(n), np.arange(k), np.arange(k), indexing="ij")
    base = jj * (n * k) + ii * k
    return lin, sine, lam, (base + cc).ravel(), (base + dd).ravel()


@functools.lru_cache(maxsize=_OPERATOR_CACHE)
def _space_time_operator(
    sgrid: SpatialGrid, m: int, dt: float, eps: float, k: int,
    a_bytes: bytes, gamma_bytes: bytes,
):
    """Shape-only part of a _SpaceTimeSystem, shared read-only by every
    window of one shape: the linear part (CSR, for the mat-vecs of every
    residual and GMRES iteration), the preconditioner's mode band with kl,
    ku and the columns of the PDE rows' diagonal blocks, the DST-I matrix,
    and the row/column pattern of the f' blocks.

    The band stacks one time operator per sine mode: the DST-I diagonalizes
    the Dirichlet Laplacian with eigenvalues -(4/h^2) sin^2(p pi / (2(n+1))),
    so mode p has (m+1)k rows ordered (slice, component): the identity row,
    the PDE rows with a acting through eps^2/dt^2 and the eigenvalue,
    gamma/(2dt), and the far row.  Mode p owns rows p(m+1)k ... (p+1)(m+1)k - 1.
    """
    import scipy.sparse as sp

    n = sgrid.n_interior
    a = np.frombuffer(a_bytes).reshape(k, k)
    gam = np.frombuffer(gamma_bytes).reshape(k, k)
    lin, sine, lam, jac_rows, jac_cols = _pde_part(sgrid, dt, eps, a, gam, np.arange(1, m), m + 1)
    sz = (m + 1, m + 1)
    e0 = sp.coo_matrix(([1.0], ([0], [0])), shape=sz)
    lin = lin + sp.kron(e0, sp.identity(n * k))
    c = 0.5 / dt
    efar = sp.coo_matrix(([3.0 * c, -4.0 * c, c], ([m, m, m], [m, m - 1, m - 2])), shape=sz)
    lin = (lin + sp.kron(efar, sp.identity(n * k))).tocsr()

    kl, ku = 2 * k, 2 * k - 1  # the far row reaches back two slices
    band = np.zeros((2 * kl + ku + 1, n * (m + 1) * k), order="F")
    modes = np.arange(n)[:, None]
    inner = np.arange(1, m)[None, :]

    def put(j_row, shift, c, d, vals):
        """Add vals at row (p, j_row, c), column (p, j_row + shift, d)."""
        cols = (modes * (m + 1) + j_row + shift) * k + d
        band[kl + ku - shift * k + c - d, cols] += vals

    e2 = eps**2 / dt**2
    for c in range(k):
        for d in range(k):
            put(inner, -1, c, d, e2 * a[c, d] + gam[c, d] / (2.0 * dt))
            put(inner, 0, c, d, (lam[:, None] - 2.0 * e2) * a[c, d])
            put(inner, 1, c, d, e2 * a[c, d] - gam[c, d] / (2.0 * dt))
        put(0, 0, c, c, 1.0)
        for shift, w in ((0, 3.0), (-1, -4.0), (-2, 1.0)):
            put(m, shift, c, c, w * 0.5 / dt)
    # columns of the PDE rows' diagonal blocks, where -mean f' goes
    diag_cols = tuple((modes * (m + 1) + inner) * k + d for d in range(k))
    for arr in (lin.data, lin.indices, lin.indptr, band, sine, jac_rows, jac_cols, *diag_cols):
        arr.setflags(write=False)
    return lin, band, kl, ku, diag_cols, sine, jac_rows, jac_cols


@functools.lru_cache(maxsize=_OPERATOR_CACHE)
def _periodic_operator(
    sgrid: SpatialGrid, m: int, dt: float, eps: float, k: int,
    a_bytes: bytes, gamma_bytes: bytes,
):
    """Shape-only part of a _PeriodicSystem, shared read-only: the linear
    part (CSR), the time symbols, the DST-I matrix and the row/column
    pattern of the f' blocks.

    The DST-I in x and the DFT in t diagonalize the linear part: on sine
    mode p (Laplacian eigenvalue lam_p) and rfft frequency q, theta =
    2 pi q / m, it acts as the k x k symbol
    eps^2/dt^2 (2 cos theta - 2) a + lam_p a - i sin theta gamma / dt,
    stacked as (n, m // 2 + 1, k, k).
    """
    a = np.frombuffer(a_bytes).reshape(k, k)
    gam = np.frombuffer(gamma_bytes).reshape(k, k)
    lin, sine, lam, jac_rows, jac_cols = _pde_part(sgrid, dt, eps, a, gam, np.arange(m), m)
    lin = lin.tocsr()
    theta = 2.0 * math.pi * np.arange(m // 2 + 1) / m
    symbol = (
        ((eps**2 / dt**2) * (2.0 * np.cos(theta) - 2.0))[None, :, None, None] * a
        + lam[:, None, None, None] * a
        - (1j * np.sin(theta) / dt)[None, :, None, None] * gam
    )
    for arr in (lin.data, lin.indices, lin.indptr, symbol, sine, jac_rows, jac_cols):
        arr.setflags(write=False)
    return lin, symbol, sine, jac_rows, jac_cols


class _SpaceTimeSystem:
    """One cylinder solve: the cached operator of its window shape (linear
    part, Jacobian pattern, preconditioner band) and its own right-hand side.

    Unknowns are ordered (time slice, space node, component); rows are the
    initial condition (j=0), the PDE at interior slices (the slices pde),
    and the far condition du/dt = 0 (j=m).
    """

    def __init__(
        self,
        sgrid: SpatialGrid,
        cgrid: CylinderGrid,
        mats: CouplingMatrices,
        nl: Nonlinearity,
        g: Forcing,
        u_tau: Field,
    ):
        m = cgrid.m_steps
        if m < 2:
            raise ValueError("space-time solve needs at least 2 time steps")
        n, k = sgrid.n_interior, mats.k
        if mats.k != nl.k:
            raise ShapeMismatch(f"matrix k={mats.k} vs nonlinearity k={nl.k}")
        if u_tau.grid != sgrid or u_tau.k != k:
            raise ShapeMismatch("u_tau does not match the declared grids")
        self.shape3 = (m + 1, n, k)
        self.m, self.n, self.k = m, n, k
        self.pde = slice(1, m)
        self.nl = nl
        (
            self.lin, self._band, self._kl, self._ku, self._diag_cols, self._sine,
            self._jac_rows, self._jac_cols,
        ) = _space_time_operator(
            sgrid, m, cgrid.dt, cgrid.eps, k, mats.a.tobytes(), mats.gamma.tobytes()
        )

        b = np.zeros(self.shape3)
        b[0] = u_tau.values
        b[1:m] = g.window(cgrid.times[1:m])
        self.b = b.ravel()

    def residual(self, u: np.ndarray) -> np.ndarray:
        r = self.lin @ u - self.b
        r.reshape(self.shape3)[self.pde] -= self.nl.f(u.reshape(self.shape3)[self.pde])
        return r

    def jacobian(self, values: np.ndarray) -> sp.csc_matrix:
        """Linear part minus the f' blocks evaluated on the PDE slices of values."""
        import scipy.sparse as sp

        vals = self.nl.jac_f(values.reshape(self.shape3)[self.pde]).ravel()
        nuk = self.lin.shape[0]
        bump = sp.coo_matrix((vals, (self._jac_rows, self._jac_cols)), shape=(nuk, nuk))
        return (self.lin - bump).tocsc()

    def solve(
        self, values: np.ndarray, rhs: np.ndarray, rtol: float = _KRYLOV_RTOL
    ) -> np.ndarray:
        """x with J(values) x = rhs, J the Jacobian at values, to the
        relative tolerance rtol.

        GMRES preconditioned by the linear part with f' replaced by a mean
        (_preconditioner); if that operator is singular, GMRES fails, or the
        true residual misses the bound (scaled with rtol), the sparse LU of
        J solves instead.
        """
        shape3, pde = self.shape3, self.pde
        fp = self.nl.jac_f(values.reshape(shape3)[pde])
        precondition = self._preconditioner(fp)

        def apply(x):
            y = self.lin @ x
            y.reshape(shape3)[pde] -= np.einsum("jicd,jid->jic", fp, x.reshape(shape3)[pde])
            return y

        if precondition is not None:
            x, r, converged = _gmres(apply, precondition, rhs, rtol)
            if converged and np.all(np.isfinite(x)):
                check = _KRYLOV_CHECK * (rtol / _KRYLOV_RTOL)
                if np.max(np.abs(r)) <= check * np.max(np.abs(rhs)):
                    return x
        return _factor_solve(self.jacobian(values), rhs)

    def _preconditioner(self, fp: np.ndarray):
        """The stacked mode operators with f' replaced by its mean over x on
        each PDE slice, as a map of flat vectors; None if a mode is singular."""
        m, n, k = self.m, self.n, self.k
        mode_solve = _mode_solver(self._band, self._kl, self._ku, self._diag_cols, fp.mean(axis=1))
        if mode_solve is None:
            return None

        def precondition(y):
            # to sine modes, mode-major, by one product with the DST-I matrix
            # (its own inverse), then the mode solve, then back
            z = self._sine @ y.reshape(self.shape3).transpose(1, 0, 2).reshape(n, -1)
            z = self._sine @ mode_solve(z).reshape(n, -1)
            return z.reshape(n, m + 1, k).transpose(1, 0, 2).ravel()

        return precondition


class _PeriodicSystem(_SpaceTimeSystem):
    """The time-periodic cylinder: unknowns are the slices t_j = tau + j dt,
    j = 0 ... m - 1, and every row is the centered PDE row of
    _SpaceTimeSystem with the time index taken mod m.  There is no initial
    and no far row: a solution is a bounded, m-step periodic solution of the
    discrete eps-problem."""

    def __init__(
        self,
        sgrid: SpatialGrid,
        cgrid: CylinderGrid,
        mats: CouplingMatrices,
        nl: Nonlinearity,
        g: Forcing,
    ):
        m, n, k = cgrid.m_steps, sgrid.n_interior, mats.k
        if mats.k != nl.k:
            raise ShapeMismatch(f"matrix k={mats.k} vs nonlinearity k={nl.k}")
        self.shape3 = (m, n, k)
        self.m, self.n, self.k = m, n, k
        self.pde = slice(0, m)
        self.nl = nl
        self.lin, self._symbol, self._sine, self._jac_rows, self._jac_cols = _periodic_operator(
            sgrid, m, cgrid.dt, cgrid.eps, k, mats.a.tobytes(), mats.gamma.tobytes()
        )
        self.b = g.window(cgrid.times[:m]).ravel()

    def _preconditioner(self, fp: np.ndarray):
        """The linear part with f' replaced by its mean over x and t, solved
        exactly: DST-I in x, rfft in t, a k x k solve per (mode, frequency)
        and back.  None if a symbol is singular."""
        m, n, k = self.shape3
        try:
            inverse = np.linalg.inv(self._symbol - fp.mean(axis=(0, 1)))
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(inverse)):
            return None

        def precondition(y):
            z = self._sine @ y.reshape(m, n, k).transpose(1, 0, 2).reshape(n, -1)
            zh = np.fft.rfft(z.reshape(n, m, k), axis=1)
            z = np.fft.irfft(np.einsum("pqcd,pqd->pqc", inverse, zh), n=m, axis=1)
            z = self._sine @ z.reshape(n, -1)
            return z.reshape(n, m, k).transpose(1, 0, 2).ravel()

        return precondition


def _forcing_term(norm: float, previous: float | None) -> float:
    """Relative GMRES tolerance of a Newton step from a residual of sup norm
    norm, the step before having started from previous (None on the first
    step): Eisenstat & Walker's choice 2, capped at _ETA_MAX and floored at
    _KRYLOV_RTOL."""
    if previous is None:
        return _ETA_MAX
    return max(_KRYLOV_RTOL, min(_ETA_MAX, _EW_GAMMA * (norm / previous) ** 2))


def _mode_solver(band, kl, ku, diag_cols, fbar):
    """Factor the stacked mode operators with fbar (the mean over x of f' on
    each PDE slice) off their diagonal blocks.  Returns the solve of a
    mode-major right-hand side (n, (m+1)k), which it may overwrite, or None
    if a mode is singular.  For k = 1 the row operation far row -= w (row
    m-1), w = c / A+, clears the far row's entry c two slices back (A+ is
    row m-1's sub-diagonal), so gttrf factors all
    modes as one tridiagonal system.  k > 1 keeps the banded LU.
    """
    k = len(diag_cols)
    if k > 1:
        ab = band.copy(order="F")
        for c in range(k):
            for d in range(k):
                ab[kl + ku + c - d, diag_cols[d]] -= fbar[:, c, d]
        lu, piv, info = _GBTRF(ab, kl, ku, overwrite_ab=1)
        return None if info else lambda z: _GBTRS(lu, kl, ku, z.ravel(), piv)[0]
    # band row kl + ku + s holds entry (i + s, i) in column i; per mode
    n = diag_cols[0].shape[0]
    sup, diag, sub = (band[kl + ku + s].reshape(n, -1).copy() for s in (-1, 0, 1))
    m = diag.shape[1] - 1
    w = band[kl + ku + 2, m - 2] / band[kl + ku + 1, m - 2]
    diag[:, 1:m] -= fbar[:, 0, 0]
    sub[:, m - 1] -= w * diag[:, m - 1]
    diag[:, m] -= w * sup[:, m]
    dl, d, du, du2, ipiv, info = _GTTRF(sub.ravel()[:-1], diag.ravel(), sup.ravel()[1:])
    if info:
        return None

    def solve(z):
        z[:, m] -= w * z[:, m - 1]
        return _GTTRS(dl, d, du, du2, ipiv, z.ravel(), overwrite_b=1)[0]

    return solve


def _gmres(apply, precondition, b, rtol):
    """Restarted GMRES for apply(x) = b, preconditioned on the right so that
    it minimizes the true residual.  Returns (x, r, converged) with
    r = b - apply(x) from the end of the last cycle, converged when
    |r|_2 <= rtol |b|_2.  Arnoldi by classical Gram-Schmidt done twice;
    Givens rotations keep the Hessenberg matrix triangular (tri).
    """
    tol = rtol * np.linalg.norm(b)
    x, r = np.zeros_like(b), b
    basis = np.empty((_KRYLOV_RESTART + 1, b.size))
    tri = np.zeros((_KRYLOV_RESTART, _KRYLOV_RESTART))
    for _ in range(_KRYLOV_CYCLES):
        beta = np.linalg.norm(r)
        if beta <= tol:
            return x, r, True
        basis[0] = r / beta
        g, rots = [beta], []
        for j in range(_KRYLOV_RESTART):
            w = apply(precondition(basis[j]))
            v = basis[: j + 1]
            h = v @ w
            w -= h @ v
            h2 = v @ w
            w -= h2 @ v
            hn = float(np.linalg.norm(w))
            col = (h + h2).tolist() + [hn]
            for i, (c, s) in enumerate(rots):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], hn)
            if rho == 0.0:
                return x, r, False
            c, s = col[j] / rho, hn / rho
            rots.append((c, s))
            tri[: j + 1, j] = col[:j] + [rho]
            g[j:] = [c * g[j], -s * g[j]]
            if abs(g[j + 1]) <= tol:
                break
            basis[j + 1] = w / hn
        y = np.linalg.solve(tri[: j + 1, : j + 1], g[: j + 1])
        x = x + precondition(y @ basis[: j + 1])
        r = b - apply(x)
    return x, r, bool(np.linalg.norm(r) <= tol)


def splu(jac: sp.csc_matrix):
    """scipy.sparse.linalg.splu, imported on the first call.  A module
    function under scipy's name, so that it can be replaced here."""
    from scipy.sparse.linalg import splu as factor

    return factor(jac)


def _factor_solve(jac: sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
    """Sparse LU solve of jac x = rhs, the fallback of _SpaceTimeSystem.solve;
    failures surface as SingularJacobian."""
    try:
        lu = splu(jac)
    except RuntimeError as exc:
        raise SingularJacobian(str(exc)) from exc
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularJacobian("linear solve produced non-finite values")
    return x


def _window_grid(span: float, context: ProcessContext) -> tuple[float, int]:
    """(dt, steps): the largest dt <= the context's dt_target that divides
    span, and the whole steps covering span."""
    dt = span / math.ceil(span / context.dt_target - 1e-12)
    return dt, int(round(span / dt))


def solve_truncated_bvp(
    sgrid: SpatialGrid,
    cgrid: CylinderGrid,
    mats: CouplingMatrices,
    nl: Nonlinearity,
    g: Forcing,
    u_tau: Field,
    opts: NewtonOptions | None = None,
    guess: np.ndarray | None = None,
) -> CylinderField:
    """Solve the truncated cylinder problem; initial slice is met exactly.

    The optional guess (same shape as the unknowns) warm-starts Newton;
    default is the constant-in-time extension of u_tau.  Newton is inexact
    (_inexact_newton).
    """
    opts = opts or NewtonOptions()
    if cgrid.eps == 0.0:
        step = StepOptions(cgrid.dt, opts)
        traj = semigroup_evolve(u_tau, cgrid.t_len, step, mats, nl, -g, tau=cgrid.tau)
        return CylinderField(sgrid, cgrid, traj.values)
    system = _SpaceTimeSystem(sgrid, cgrid, mats, nl, g, u_tau)
    if guess is None:
        u0 = np.broadcast_to(u_tau.values, system.shape3).ravel().copy()
    else:
        u0 = np.asarray(guess, dtype=float).reshape(-1).copy()
        u0[: sgrid.n_interior * mats.k] = u_tau.values.ravel()
    u = _inexact_newton(system, u0, opts)
    vals = u.reshape(system.shape3)
    vals[0] = u_tau.values  # exact by the identity row; rewrite to kill round-off
    return CylinderField(sgrid, cgrid, vals)


def solve_periodic_bvp(
    sgrid: SpatialGrid,
    cgrid: CylinderGrid,
    mats: CouplingMatrices,
    nl: Nonlinearity,
    g: Forcing,
    u_guess: Field,
    opts: NewtonOptions | None = None,
) -> CylinderField:
    """The cgrid.t_len-periodic solution of the eps-problem on the cylinder
    (_PeriodicSystem), by inexact Newton from the constant-in-time
    extension of u_guess.

    g must be t_len-periodic; the solution is the bounded one that Newton
    reaches, not the one of an initial slice.  Its m_steps + 1 slices end
    in the wrap slice, a copy of slice 0.  Needs eps > 0.
    """
    if cgrid.eps == 0.0:
        raise ValueError("the periodic cylinder problem needs eps > 0")
    if u_guess.grid != sgrid or u_guess.k != mats.k:
        raise ShapeMismatch("u_guess does not match the declared grids")
    system = _PeriodicSystem(sgrid, cgrid, mats, nl, g)
    u0 = np.broadcast_to(u_guess.values, system.shape3).ravel().copy()
    vals = _inexact_newton(system, u0, opts or NewtonOptions()).reshape(system.shape3)
    return CylinderField(sgrid, cgrid, np.concatenate([vals, vals[:1]]))


def _inexact_newton(system: _SpaceTimeSystem, u0: np.ndarray, opts: NewtonOptions) -> np.ndarray:
    """Damped Newton on system from u0; each step runs GMRES to its forcing
    term (_forcing_term), not to _KRYLOV_RTOL."""
    previous = None  # sup norm of the residual the last step started from

    def inexact_step(u: np.ndarray, r: np.ndarray) -> np.ndarray:
        nonlocal previous
        norm = float(np.max(np.abs(r)))
        eta = _forcing_term(norm, previous)
        previous = norm
        return system.solve(u, -r, eta)

    u, _ = damped_newton(u0, system.residual, inexact_step, opts)
    return u


@dataclass(frozen=True)
class ProcessContext:
    """Everything a solving-process evaluation needs besides the data slice,
    for every eps >= 0: at eps = 0 process_map and evolve run the limit
    semigroup driven by -forcing, so the dynamics layer treats the limit
    flow as one more process.
    """

    sgrid: SpatialGrid
    mats: CouplingMatrices
    nl: Nonlinearity
    forcing: Forcing
    eps: float
    opts: NewtonOptions = NewtonOptions()
    margin: float | None = None
    dt: float | None = None

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.eps > 0 and self.margin is not None and self.margin <= 0:
            raise ValueError("margin must be positive")

    @property
    def dt_target(self) -> float:
        return self.dt if self.dt is not None else default_dt(self.eps)

    def margin_steps(self, dt: float) -> int:
        """Time steps of far margin behind a window of step dt.

        An explicit margin is ceil(margin / dt) steps.  Without one, the
        margin comes from the discrete time stencil: on a sine mode with
        Laplacian eigenvalue lam, a PDE row reads
        (A + B) u[j-1] + (mu - 2A) u[j] + (A - B) u[j+1] = 0 with
        A = eps^2 a / dt^2, B = gamma / (2 dt) and mu = lam a - f'.  An error
        at the far slice decays into the window like |r|^-d over d steps,
        r the root of larger modulus of (A - B) r^2 + (mu - 2A) r + (A + B).
        That |r| only grows as mu falls below 2A, so the lowest mode at the
        worst f' = -k_mono bounds every mode, and the margin is the d that
        takes |r|^-d below _MARGIN_TOL, capped at MARGIN_MIN.  The cap bites
        once |r| nears 1 (eps above about 0.25 at dt = 1/64): the rule would
        ask for windows of ten or more units there, on which Newton from a
        constant guess can stall.  k > 1 keeps MARGIN_MIN; eps = 0 is an
        initial-value problem and needs no margin.
        """
        if self.eps == 0.0:
            return 0
        if self.margin is not None:
            return int(math.ceil(self.margin / dt - 1e-12))
        cap = int(math.ceil(MARGIN_MIN / dt - 1e-12))
        if self.mats.k != 1:
            return cap
        a, gam = float(self.mats.a[0, 0]), float(self.mats.gamma[0, 0])
        big, b = self.eps**2 * a / dt**2, gam / (2.0 * dt)
        if big == b:  # no u[j+1] term: the far slice never reaches the window
            return 1
        n, h = self.sgrid.n_interior, self.sgrid.h
        lam1 = -(4.0 / h**2) * math.sin(math.pi / (2 * (n + 1))) ** 2
        mu = min(lam1 * a + self.nl.k_mono, 2.0 * big)
        r = float(np.max(np.abs(np.roots([big - b, mu - 2.0 * big, big + b]))))
        return min(cap, max(1, math.ceil(math.log(1.0 / _MARGIN_TOL) / math.log(r))))

    def evolve(
        self, u0: Field | Sequence[Field], tau: float, t_end: float, stride: float
    ) -> Trajectory | Ensemble:
        """Slices every stride time units from tau to tau + t_end.

        A sequence of Fields gives an Ensemble whose members are the runs
        each Field makes alone.  At every eps the step is the largest one up
        to dt_target that divides stride, so the slices sit on multiples of
        stride.  At eps = 0 the limit semigroup steps every member together
        and stores only the steps on the stride grid.
        At eps > 0 each member marches in windows of at most one time unit;
        each window after the first starts Newton from the previous solution
        shifted by one window, which keeps Newton at one or two steps once
        transients decay.
        """
        if not stride > 0:
            raise ValueError("stride must be positive")
        spw_unit = 1.0 / stride
        if abs(spw_unit - round(spw_unit)) > 1e-9:
            raise ValueError("stride must divide one time unit")
        n_strides = t_end / stride
        if abs(n_strides - round(n_strides)) > 1e-9:
            raise ValueError("t_end must be a multiple of stride")
        n_strides, spw_unit = int(round(n_strides)), int(round(spw_unit))
        grid, stack = _initial_stack(u0)
        dt, spw = _window_grid(stride, self)

        if self.eps == 0.0:
            step = StepOptions(dt, self.opts)
            starts = [Field(grid, v) for v in stack]
            ens = semigroup_evolve(
                starts, t_end, step, self.mats, self.nl, -self.forcing, tau=tau, every=spw
            )
            times, vals = ens.times, ens.values
        else:

            def march(cur: Field) -> tuple[list, np.ndarray]:
                times, slices, guess = [tau], [cur.values], None
                done = 0  # strides consumed
                while done < n_strides:
                    win = min(n_strides - done, spw_unit)  # strides this window
                    start = tau + done * stride
                    u = self._window(cur, start, dt, win * spw, guess)
                    for j in range(1, win + 1):
                        times.append(start + j * stride)
                        slices.append(u.values[j * spw])
                    cur = u.slice(win * spw)
                    guess = u.values[win * spw :]
                    done += win
                return times, np.stack(slices)

            runs = [march(Field(grid, v)) for v in stack]
            times, vals = np.array(runs[0][0]), np.stack([v for _, v in runs])
        if isinstance(u0, Field):
            return Trajectory(grid, times, vals[0])
        return Ensemble(grid, times, vals)

    def _window(
        self, u: Field, start: float, dt: float, steps: int, guess: np.ndarray | None = None
    ) -> CylinderField:
        """The cylinder solve from u at start over steps steps of dt plus the
        far margin behind them.  guess, the slices of an earlier solution
        from start on, warm-starts Newton after being cut or extended by its
        last slice to the window's length.  If Newton diverges, the solve is
        retried once from the eps = 0 march over the same window and dt."""
        m = steps + self.margin_steps(dt)
        if guess is not None:
            guess = guess[: m + 1]
            guess = np.concatenate([guess, np.repeat(guess[-1:], m + 1 - len(guess), axis=0)])
        cgrid = CylinderGrid(start, m * dt, m, self.eps)
        args = (self.sgrid, cgrid, self.mats, self.nl, self.forcing, u)
        try:
            return solve_truncated_bvp(*args, opts=self.opts, guess=guess)
        except NewtonDiverged:
            limit = semigroup_evolve(
                u, m * dt, StepOptions(dt, self.opts), self.mats, self.nl, -self.forcing, tau=start
            )
            return solve_truncated_bvp(*args, opts=self.opts, guess=limit.values)


def process_map(u_tau: Field, tau: float, t: float, context: ProcessContext) -> Field:
    """Slice at time t of the solving process started from u_tau at tau.

    The solve runs on [tau, t + margin] so the far condition sits a margin
    away from the reported slice; at eps = 0 the margin is empty and the
    window is the limit semigroup's march.
    """
    if t < tau:
        raise ValueError("t must be >= tau")
    if t == tau:
        return u_tau
    dt, steps = _window_grid(t - tau, context)
    return context._window(u_tau, tau, dt, steps).slice(steps)


def variational_process(
    base: CylinderField,
    xi: Field,
    mats: CouplingMatrices,
    nl: Nonlinearity,
) -> CylinderField:
    """Linearized flow along a converged base solution: one Jacobian solve.

    Solves a (eps^2 v_tt + v_xx) - gamma v_t - f'(u(t)) v = 0 with
    v(tau) = xi and the far condition dv/dt = 0.
    """
    if xi.grid != base.sgrid or xi.k != base.k:
        raise ShapeMismatch("xi does not match the base solution")
    if base.cgrid.eps == 0.0:
        traj = Trajectory(base.sgrid, base.cgrid.times, base.values)
        opts = StepOptions(dt=base.cgrid.dt)
        out = variational_evolve(traj, xi, opts, mats, nl)
        return CylinderField(base.sgrid, base.cgrid, out.values)
    zero_g = Constant(Field.zeros(base.sgrid, base.k))
    system = _SpaceTimeSystem(base.sgrid, base.cgrid, mats, nl, zero_g, xi)
    # rows are linear with Jacobian evaluated on the base solution
    rhs = np.zeros(system.shape3)
    rhs[0] = xi.values
    v = system.solve(base.values, rhs.ravel())
    return CylinderField(base.sgrid, base.cgrid, v.reshape(system.shape3))


_SLAB_STARTS = (0.0, 1.0, 2.0)


def regularity_probe(eps_list, h: Forcing, u0: Field, context: ProcessContext):
    """Ratios rho(eps) = slab norm of the linear solution over the data norm.

    Solves the f = 0 problem from u0 with right-hand side h on the unit slabs
    plus the far margin of each eps, then reports (eps, rho) rows.  The data
    norm takes h over the slabs only, so it does not depend on the margin.
    The interesting output is the spread max rho / min rho across eps.
    """
    zero_f = zero_nonlinearity(u0.k)
    h_times = np.linspace(0.0, _SLAB_STARTS[-1] + 1.0, 97)
    h_sq = np.array([Field(h.grid, v).l2() ** 2 for v in h.window(h_times)])
    h_norm = math.sqrt(float(np.trapezoid(h_sq, h_times)))
    if u0.l2() == 0.0 and h_norm == 0.0:
        raise DegenerateData("u0 and h both vanish")
    rows = []
    for eps in eps_list:
        probe = replace(context, nl=zero_f, forcing=h, eps=float(eps), dt=None)
        dt, unit_steps = _window_grid(1.0, probe)
        u = probe._window(u0, 0.0, dt, len(_SLAB_STARTS) * unit_steps)
        num = max(weighted_norm(u, 2.0, s) for s in _SLAB_STARTS)
        den = surrogate_v_norm(u0, float(eps)) + h_norm
        rows.append((float(eps), num / den))
    return rows
