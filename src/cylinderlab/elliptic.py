"""Space-time Newton solver for the perturbed elliptic problem on a cylinder.

Solves a (eps^2 u_tt + u_xx) - gamma u_t - f(u) = g(t) on [tau, tau + t_len]
with u(tau) = u_tau, homogeneous Dirichlet in x, and a far condition at the
right end of the truncated cylinder.  All time slices are unknowns of one
sparse block-tridiagonal system, solved by damped Newton.

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

At eps = 0 the time-second-derivative block vanishes and the problem is an
initial-value problem; every eps = 0 call goes through the parabolic
LimitContext built by _limit_context (with the forcing sign flipped: the
elliptic convention puts g on the right-hand side, the parabolic one adds
it).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.fft import dst
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

from .errors import DegenerateData, ShapeMismatch, SingularJacobian
from .forcing import Constant, Forcing
from .model import (
    CouplingMatrices,
    CylinderField,
    CylinderGrid,
    Field,
    Nonlinearity,
    SpatialGrid,
    Trajectory,
    surrogate_v_norm,
    weighted_norm,
    zero_nonlinearity,
)
from .newton import NewtonOptions, damped_newton
from .parabolic import LimitContext, StepOptions, variational_evolve

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


@dataclass(frozen=True)
class ZeroTimeDerivative:
    """Homogeneous du/dt = 0 at the far end (one-sided second order)."""


@dataclass(frozen=True)
class Clamp:
    """Pin the far slice to a fixed profile."""

    profile: Field


FarBoundary = ZeroTimeDerivative | Clamp


def default_dt(eps: float) -> float:
    """Step target resolving the eps^2 u_tt layer: eps/4, capped at 1/64."""
    if eps <= 0.0:
        return 1e-3
    return min(eps / 4.0, DT_CAP)


# window shapes whose space-time operators stay cached: an evolve uses two
# per eps (full windows and a partial last one), a period-map sweep one
_OPERATOR_CACHE = 8


@functools.lru_cache(maxsize=_OPERATOR_CACHE)
def _space_time_operator(
    sgrid: SpatialGrid, m: int, dt: float, eps: float, k: int,
    a_bytes: bytes, gamma_bytes: bytes, clamp: bool,
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
    n, h = sgrid.n_interior, sgrid.h
    a = np.frombuffer(a_bytes).reshape(k, k)
    gam = np.frombuffer(gamma_bytes).reshape(k, k)

    rows = np.arange(1, m)
    one = np.ones(m - 1)
    sz = (m + 1, m + 1)
    t2 = sp.coo_matrix(
        (
            np.concatenate([one, -2.0 * one, one]),
            (np.tile(rows, 3), np.concatenate([rows - 1, rows, rows + 1])),
        ),
        shape=sz,
    )
    t1 = sp.coo_matrix(
        (
            np.concatenate([-0.5 * one, 0.5 * one]),
            (np.tile(rows, 2), np.concatenate([rows - 1, rows + 1])),
        ),
        shape=sz,
    )
    t0 = sp.coo_matrix((one, (rows, rows)), shape=sz)
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h**2
    eye_n = sp.identity(n)
    a_sp, gam_sp = sp.csr_matrix(a), sp.csr_matrix(gam)
    lin = (
        (eps**2 / dt**2) * sp.kron(t2, sp.kron(eye_n, a_sp))
        + sp.kron(t0, sp.kron(lap, a_sp))
        - (1.0 / dt) * sp.kron(t1, sp.kron(eye_n, gam_sp))
    )
    e0 = sp.coo_matrix(([1.0], ([0], [0])), shape=sz)
    lin = lin + sp.kron(e0, sp.identity(n * k))
    if clamp:
        efar = sp.coo_matrix(([1.0], ([m], [m])), shape=sz)
    else:
        c = 0.5 / dt
        efar = sp.coo_matrix(([3.0 * c, -4.0 * c, c], ([m, m, m], [m, m - 1, m - 2])), shape=sz)
    lin = (lin + sp.kron(efar, sp.identity(n * k))).tocsr()

    kl, ku = 2 * k, 2 * k - 1  # the far row reaches back two slices
    band = np.zeros((2 * kl + ku + 1, n * (m + 1) * k), order="F")
    lam = -(4.0 / h**2) * np.sin(np.arange(1, n + 1) * math.pi / (2 * (n + 1))) ** 2
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
        if clamp:
            put(m, 0, c, c, 1.0)
        else:
            for shift, w in ((0, 3.0), (-1, -4.0), (-2, 1.0)):
                put(m, shift, c, c, w * 0.5 / dt)
    # columns of the PDE rows' diagonal blocks, where -mean f' goes
    diag_cols = tuple((modes * (m + 1) + inner) * k + d for d in range(k))
    # the orthonormal DST-I as an n x n matrix: for the grids in use one
    # matrix product is cheaper than per-slice transforms
    sine = dst(np.eye(n), type=1, norm="ortho", axis=0)

    # index pattern of the f' blocks on the PDE rows, (j, i, c, d) order
    jj, ii, cc, dd = np.meshgrid(
        np.arange(1, m), np.arange(n), np.arange(k), np.arange(k), indexing="ij"
    )
    base = jj * (n * k) + ii * k
    jac_rows, jac_cols = (base + cc).ravel(), (base + dd).ravel()
    for arr in (lin.data, lin.indices, lin.indptr, band, sine, jac_rows, jac_cols, *diag_cols):
        arr.setflags(write=False)
    return lin, band, kl, ku, diag_cols, sine, jac_rows, jac_cols


class _SpaceTimeSystem:
    """One cylinder solve: the cached operator of its window shape (linear
    part, Jacobian pattern, preconditioner band) and its own right-hand side.

    Unknowns are ordered (time slice, space node, component); rows are the
    initial condition (j=0), the PDE at interior slices, and the far
    condition (j=m).
    """

    def __init__(
        self,
        sgrid: SpatialGrid,
        cgrid: CylinderGrid,
        mats: CouplingMatrices,
        nl: Nonlinearity,
        g: Forcing,
        u_tau: Field,
        far: FarBoundary,
    ):
        m = cgrid.m_steps
        if m < 2:
            raise ValueError("space-time solve needs at least 2 time steps")
        n, k = sgrid.n_interior, mats.k
        if mats.k != nl.k:
            raise ShapeMismatch(f"matrix k={mats.k} vs nonlinearity k={nl.k}")
        if u_tau.grid != sgrid or u_tau.k != k:
            raise ShapeMismatch("u_tau does not match the declared grids")
        if isinstance(far, Clamp):
            if far.profile.grid != sgrid or far.profile.k != k:
                raise ShapeMismatch("clamp profile does not match the grids")
        elif not isinstance(far, ZeroTimeDerivative):
            raise TypeError(f"not a far boundary: {type(far)!r}")
        self.shape3 = (m + 1, n, k)
        self.m, self.n, self.k = m, n, k
        self.nl = nl
        (
            self.lin, self._band, self._kl, self._ku, self._diag_cols, self._sine,
            self._jac_rows, self._jac_cols,
        ) = _space_time_operator(
            sgrid, m, cgrid.dt, cgrid.eps, k,
            mats.a.tobytes(), mats.gamma.tobytes(), isinstance(far, Clamp),
        )

        b = np.zeros(self.shape3)
        b[0] = u_tau.values
        b[1:m] = g.window(cgrid.times[1:m])
        if isinstance(far, Clamp):
            b[m] = far.profile.values
        self.b = b.ravel()

    def residual(self, u: np.ndarray) -> np.ndarray:
        r = self.lin @ u - self.b
        v = u.reshape(self.shape3)
        r3 = r.reshape(self.shape3)
        r3[1 : self.m] -= self.nl.f(v[1 : self.m])
        return r

    def jacobian(self, values: np.ndarray) -> sp.csc_matrix:
        """Linear part minus the f' blocks evaluated on the PDE slices of values."""
        v = values.reshape(self.shape3)
        vals = self.nl.jac_f(v[1 : self.m]).ravel()
        nuk = self.lin.shape[0]
        bump = sp.coo_matrix((vals, (self._jac_rows, self._jac_cols)), shape=(nuk, nuk))
        return (self.lin - bump).tocsc()

    def solve(
        self, values: np.ndarray, rhs: np.ndarray, rtol: float = _KRYLOV_RTOL
    ) -> np.ndarray:
        """x with J(values) x = rhs, J the Jacobian at values, to the
        relative tolerance rtol.

        GMRES preconditioned by the stacked mode operators with f' replaced
        by its mean over x; if a mode is singular, GMRES fails, or the true
        residual misses the bound (scaled with rtol), the sparse LU of J
        solves instead.
        """
        m, n, k = self.m, self.n, self.k
        shape3 = self.shape3
        fp = self.nl.jac_f(values.reshape(shape3)[1:m])  # (m-1, n, k, k)
        mode_solve = _mode_solver(self._band, self._kl, self._ku, self._diag_cols, fp.mean(axis=1))

        def apply(x):
            y = self.lin @ x
            y.reshape(shape3)[1:m] -= np.einsum("jicd,jid->jic", fp, x.reshape(shape3)[1:m])
            return y

        def precondition(y):
            # to sine modes, mode-major, by one product with the DST-I matrix
            # (its own inverse), then the mode solve, then back
            z = self._sine @ y.reshape(shape3).transpose(1, 0, 2).reshape(n, -1)
            z = self._sine @ mode_solve(z).reshape(n, -1)
            return z.reshape(n, m + 1, k).transpose(1, 0, 2).ravel()

        if mode_solve is not None:
            x, r, converged = _gmres(apply, precondition, rhs, rtol)
            if converged and np.all(np.isfinite(x)):
                check = _KRYLOV_CHECK * (rtol / _KRYLOV_RTOL)
                if np.max(np.abs(r)) <= check * np.max(np.abs(rhs)):
                    return x
        return _factor_solve(self.jacobian(values), rhs)


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
    row m-1's sub-diagonal, and w = 0 for a clamp), so gttrf factors all
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


def _window_grid(span: float, context: ProcessContext) -> tuple[float, int, int]:
    """(dt, span steps, margin steps): the largest dt <= the context's
    dt_target that divides span, the whole steps covering span, and the
    context's far margin at that dt."""
    dt = span / math.ceil(span / context.dt_target - 1e-12)
    return dt, int(round(span / dt)), context.margin_steps(dt)


def solve_truncated_bvp(
    sgrid: SpatialGrid,
    cgrid: CylinderGrid,
    mats: CouplingMatrices,
    nl: Nonlinearity,
    g: Forcing,
    u_tau: Field,
    far: FarBoundary = ZeroTimeDerivative(),
    opts: NewtonOptions | None = None,
    guess: np.ndarray | None = None,
) -> CylinderField:
    """Solve the truncated cylinder problem; initial slice is met exactly.

    The optional guess (same shape as the unknowns) warm-starts Newton;
    default is the constant-in-time extension of u_tau.  Each Newton step
    runs GMRES to its forcing term (_forcing_term), not to _KRYLOV_RTOL.
    """
    opts = opts or NewtonOptions()
    if cgrid.eps == 0.0:
        limit = _limit_context(ProcessContext(sgrid, mats, nl, g, 0.0, opts=opts, dt=cgrid.dt))
        traj = limit.evolve(u_tau, cgrid.tau, cgrid.t_len, cgrid.dt)
        return CylinderField(sgrid, cgrid, traj.values)
    system = _SpaceTimeSystem(sgrid, cgrid, mats, nl, g, u_tau, far)
    if guess is None:
        u0 = np.broadcast_to(u_tau.values, system.shape3).ravel().copy()
    else:
        u0 = np.asarray(guess, dtype=float).reshape(-1).copy()
        u0[: sgrid.n_interior * mats.k] = u_tau.values.ravel()
    previous = None  # sup norm of the residual the last step started from

    def inexact_step(u: np.ndarray, r: np.ndarray) -> np.ndarray:
        nonlocal previous
        norm = float(np.max(np.abs(r)))
        eta = _forcing_term(norm, previous)
        previous = norm
        return system.solve(u, -r, eta)

    u, _ = damped_newton(u0, system.residual, inexact_step, opts)
    vals = u.reshape(system.shape3)
    vals[0] = u_tau.values  # exact by the identity row; rewrite to kill round-off
    return CylinderField(sgrid, cgrid, vals)


@dataclass(frozen=True)
class ProcessContext:
    """Everything a solving-process evaluation needs besides the data slice.

    Duck-typed with the parabolic LimitContext: map/evolve have the same
    signatures so the dynamics layer runs both.
    """

    sgrid: SpatialGrid
    mats: CouplingMatrices
    nl: Nonlinearity
    forcing: Forcing
    eps: float
    far: FarBoundary = ZeroTimeDerivative()
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

    def map(self, u0: Field, tau: float, t: float) -> Field:
        return process_map(u0, tau, t, self)

    def evolve(self, u0: Field, tau: float, t_end: float, stride: float) -> Trajectory:
        """March in windows of at most one time unit, harvesting slices every
        stride time units.

        Each window after the first starts Newton from the previous solution
        shifted by one window, cut or extended by its last slice to the new
        window's length; this keeps Newton at one or two steps once
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
        if self.eps == 0.0:
            return _limit_context(self).evolve(u0, tau, t_end, stride)
        n_strides, spw_unit = int(round(n_strides)), int(round(spw_unit))
        dt, spw, margin_steps = _window_grid(stride, self)

        times = [tau]
        slices = [u0.values]
        cur = u0
        guess = None
        done = 0  # strides consumed
        while done < n_strides:
            win = min(n_strides - done, spw_unit)  # strides this window
            m_inner = win * spw
            m = m_inner + margin_steps
            start = tau + done * stride
            cgrid = CylinderGrid(start, m * dt, m, self.eps)
            u = solve_truncated_bvp(
                self.sgrid, cgrid, self.mats, self.nl, self.forcing, cur,
                far=self.far, opts=self.opts, guess=guess,
            )
            for j in range(1, win + 1):
                times.append(start + j * stride)
                slices.append(u.values[j * spw])
            cur = u.slice(m_inner)
            done += win
            m_next = min(n_strides - done, spw_unit) * spw + margin_steps
            tail = u.values[m_inner : m_inner + m_next + 1]
            guess = np.concatenate([tail, np.repeat(tail[-1:], m_next + 1 - len(tail), axis=0)])
        return Trajectory(self.sgrid, np.array(times), np.stack(slices))


def _limit_context(context: ProcessContext) -> LimitContext:
    """The eps = 0 process as the limit semigroup, stepping at dt_target.

    The elliptic convention puts g on the right-hand side and the parabolic
    one adds it, so the limit flow is driven by -g.
    """
    step = StepOptions(dt=context.dt_target, newton=context.opts)
    return LimitContext(context.sgrid, context.mats, context.nl, -context.forcing, step)


def process_map(u_tau: Field, tau: float, t: float, context: ProcessContext) -> Field:
    """Slice at time t of the solving process started from u_tau at tau.

    Solves on [tau, t + margin] so the far condition sits a margin away
    from the reported slice.
    """
    if t < tau:
        raise ValueError("t must be >= tau")
    if t == tau:
        return u_tau
    if context.eps == 0.0:
        return _limit_context(context).map(u_tau, tau, t)
    dt, span_steps, margin_steps = _window_grid(t - tau, context)
    m = span_steps + margin_steps
    cgrid = CylinderGrid(tau, m * dt, m, context.eps)
    u = solve_truncated_bvp(
        context.sgrid, cgrid, context.mats, context.nl, context.forcing, u_tau,
        far=context.far, opts=context.opts,
    )
    return u.slice(span_steps)


def variational_process(
    base: CylinderField,
    xi: Field,
    mats: CouplingMatrices,
    nl: Nonlinearity,
    far: FarBoundary = ZeroTimeDerivative(),
) -> CylinderField:
    """Linearized flow along a converged base solution: one Jacobian solve.

    Solves a (eps^2 v_tt + v_xx) - gamma v_t - f'(u(t)) v = 0 with
    v(tau) = xi and the homogeneous version of the far condition.
    """
    if xi.grid != base.sgrid or xi.k != base.k:
        raise ShapeMismatch("xi does not match the base solution")
    if base.cgrid.eps == 0.0:
        traj = Trajectory(base.sgrid, base.cgrid.times, base.values)
        opts = StepOptions(dt=base.cgrid.dt)
        out = variational_evolve(traj, xi, opts, mats, nl)
        return CylinderField(base.sgrid, base.cgrid, out.values)
    if isinstance(far, Clamp):
        far = Clamp(Field.zeros(base.sgrid, base.k))
    zero_g = Constant(Field.zeros(base.sgrid, base.k))
    system = _SpaceTimeSystem(base.sgrid, base.cgrid, mats, nl, zero_g, xi, far)
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
        probe = replace(context, nl=zero_f, eps=float(eps), dt=None)
        dt, unit_steps, margin_steps = _window_grid(1.0, probe)
        m = len(_SLAB_STARTS) * unit_steps + margin_steps
        cgrid = CylinderGrid(0.0, m * dt, m, float(eps))
        u = solve_truncated_bvp(
            context.sgrid, cgrid, context.mats, zero_f, h, u0,
            far=context.far, opts=context.opts,
        )
        num = max(weighted_norm(u, 2.0, s) for s in _SLAB_STARTS)
        den = surrogate_v_norm(u0, float(eps)) + h_norm
        rows.append((float(eps), num / den))
    return rows
