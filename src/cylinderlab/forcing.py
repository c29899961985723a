"""Time-dependent forcing as data, and its time averages.

Every forcing is a finite sum g(t) = sum_i c_i(t) P_i of fixed spatial
profiles P_i times scalar coefficients c_i(t).  The families (Constant,
Periodic, Quasiperiodic, Heteroclinic, Patchwork, FastScaled) are
constructor functions that build the profile stack and its coefficient
function.  The patchwork family switches between two forcings on intervals
whose endpoints are consecutive integer squares; all endpoints are
nonnegative, so the literal switching rule covers t >= 0 and is extended
evenly in |t| for negative times (children are still evaluated at t itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import AverageNotConverged, ShapeMismatch
from .model import Field, SpatialGrid

__all__ = [
    "Constant",
    "Heteroclinic",
    "Periodic",
    "Quasiperiodic",
    "Patchwork",
    "FastScaled",
    "Forcing",
    "eval_forcing",
    "time_average",
    "forcing_mean",
]


@dataclass(frozen=True, eq=False)
class Forcing:
    """g(t) = sum_i coeffs(t)[:, i] * profiles[i].

    profiles is a read-only (p, n, k) stack; coeffs maps a time array of
    shape (T,) to coefficients of shape (T, p).  scale is the shortest
    intrinsic time scale (inf when autonomous), period the exact period
    (0.0 when autonomous, None when aperiodic), and mean the strong time
    mean (None where none exists).  A patchwork keeps (g1, g2, unit) in
    patches, its two children and the time unit of its square switch
    points, so that time_average can integrate each piece on its own child.
    """

    grid: SpatialGrid
    profiles: np.ndarray
    coeffs: Callable[[np.ndarray], np.ndarray]
    scale: float = math.inf
    period: float | None = None
    mean: Field | None = None
    patches: tuple | None = None

    def __post_init__(self):
        p = np.array(self.profiles, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "profiles", p)

    def window(self, times) -> np.ndarray:
        """Values at each of the times, shape (T, n, k).

        The profiles are accumulated in order, c_0 P_0 + c_1 P_1 + ...,
        elementwise, so each row is the value a scalar evaluation gives.
        """
        ts = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(ts)):
            raise ValueError("times must be finite")
        c = self.coeffs(ts)
        out = c[:, 0, None, None] * self.profiles[0]
        for i in range(1, self.profiles.shape[0]):
            out += c[:, i, None, None] * self.profiles[i]
        return out

    def __neg__(self) -> Forcing:
        """The forcing -g(t): negated profiles, same coefficients."""
        patches = self.patches
        if patches is not None:
            patches = (-patches[0], -patches[1], patches[2])
        mean = None if self.mean is None else -self.mean
        return replace(self, profiles=-self.profiles, mean=mean, patches=patches)


def _stack(fields, what: str) -> np.ndarray:
    """(p, n, k) stack of Fields that share one grid and component count."""
    if any(f.grid != fields[0].grid or f.k != fields[0].k for f in fields):
        raise ShapeMismatch(f"{what} live on different grids")
    return np.stack([f.values for f in fields])


def Constant(mean: Field) -> Forcing:
    def coeffs(ts):
        return np.ones((ts.shape[0], 1))

    return Forcing(mean.grid, _stack([mean], "constant"), coeffs, period=0.0, mean=mean)


def Heteroclinic(g_minus: Field, g_plus: Field, scale: float) -> Forcing:
    """Smooth blend g_minus -> g_plus via (1 + tanh(t/scale))/2."""
    profiles = _stack([g_minus, g_plus], "heteroclinic endpoints")
    if not scale > 0:
        raise ValueError("scale must be positive")

    def coeffs(ts):
        # math.tanh per time: np.tanh differs from it in the last bit
        w = [0.5 * (1.0 + math.tanh(t / scale)) for t in ts.tolist()]
        return np.column_stack([np.ones(len(w)), w])

    profiles = np.stack([profiles[0], profiles[1] - profiles[0]])
    return Forcing(g_minus.grid, profiles, coeffs, scale=scale)


def Periodic(mean: Field, osc: Field, omega: float) -> Forcing:
    """mean + sin(omega t) * osc."""
    profiles = _stack([mean, osc], "periodic mean/osc")
    if not omega > 0:
        raise ValueError("omega must be positive")

    def coeffs(ts):
        return np.column_stack([np.ones(ts.shape[0]), np.sin(omega * ts)])

    period = 2.0 * math.pi / omega
    return Forcing(mean.grid, profiles, coeffs, scale=period, period=period, mean=mean)


def Quasiperiodic(mean: Field, osc1: Field, omega1: float, osc2: Field, omega2: float) -> Forcing:
    """mean + sin(omega1 t) * osc1 + sin(omega2 t) * osc2."""
    profiles = _stack([mean, osc1, osc2], "quasiperiodic fields")
    if not (omega1 > 0 and omega2 > 0):
        raise ValueError("frequencies must be positive")

    def coeffs(ts):
        return np.column_stack([np.ones(ts.shape[0]), np.sin(omega1 * ts), np.sin(omega2 * ts)])

    scale = 2.0 * math.pi / max(omega1, omega2)
    return Forcing(mean.grid, profiles, coeffs, scale=scale, mean=mean)


def _first_patch(ts: np.ndarray) -> np.ndarray:
    """True where |t| falls in a g1 interval [m^2, (m+1)^2) with m even."""
    a = np.abs(ts)
    m = np.floor(np.sqrt(a))
    # floating guard at square boundaries
    m = np.where((m + 1) ** 2 <= a, m + 1, np.where(m**2 > a, m - 1, m))
    return m % 2 == 0


def Patchwork(g1: Forcing, g2: Forcing) -> Forcing:
    """g1 on [4k^2, (2k+1)^2), g2 on [(2k-1)^2, 4k^2), k integer."""
    if g1.grid != g2.grid or g1.profiles.shape[1:] != g2.profiles.shape[1:]:
        raise ShapeMismatch("patchwork children live on different grids")

    def coeffs(ts):
        first = _first_patch(ts)[:, None]
        return np.concatenate(
            [np.where(first, g1.coeffs(ts), 0.0), np.where(first, 0.0, g2.coeffs(ts))], axis=1
        )

    # zero-mean 1-periodic children give zero over every integer window, so
    # the patchwork has a mean exactly when its children share one
    mean = None
    if g1.mean is not None and g2.mean is not None and (g1.mean - g2.mean).l2() <= 1e-12:
        mean = g1.mean
    return Forcing(
        g1.grid,
        np.concatenate([g1.profiles, g2.profiles]),
        coeffs,
        scale=min(1.0, g1.scale, g2.scale),
        mean=mean,
        patches=(g1, g2, 1.0),
    )


def FastScaled(inner: Forcing, eps: float) -> Forcing:
    """g(t / eps)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    patches = inner.patches
    if patches is not None:
        patches = (FastScaled(patches[0], eps), FastScaled(patches[1], eps), patches[2] * eps)
    return Forcing(
        inner.grid,
        inner.profiles,
        lambda ts: inner.coeffs(ts / eps),
        scale=eps * inner.scale,
        period=None if inner.period is None else eps * inner.period,
        mean=inner.mean,
        patches=patches,
    )


def eval_forcing(g: Forcing, t: float) -> Field:
    """Value of the forcing at time t."""
    return Field(g.grid, g.window([t])[0])


def forcing_mean(g: Forcing) -> Field:
    """Infinite-horizon time average, where one exists in the strong sense.

    Sinusoidal oscillations average to zero exactly; a patchwork has a mean
    only when both children share one.
    """
    if g.mean is None:
        raise AverageNotConverged("forcing has no strong time mean")
    return g.mean


# nodes per intrinsic scale for the composite quadrature
_NODES_PER_SCALE = 48


def _average_smooth(g: Forcing, t0: float, window: float) -> np.ndarray:
    """Trapezoid average of a smooth (non-patchwork) forcing over [t0, t0+window]."""
    if math.isinf(g.scale):
        return g.window([t0])[0]
    steps = max(32, int(math.ceil(window / g.scale * _NODES_PER_SCALE)))
    steps = min(steps, 4_000_000)
    ts = t0 + window * np.arange(steps + 1) / steps
    acc = np.zeros(g.profiles.shape[1:])
    # chunked accumulation keeps memory flat for very long windows
    chunk = 65536
    dt = window / steps
    for lo in range(0, steps + 1, chunk):
        hi = min(lo + chunk, steps + 1)
        block = g.window(ts[lo:hi])
        w = np.ones(hi - lo)
        if lo == 0:
            w[0] = 0.5
        if hi == steps + 1:
            w[-1] = 0.5
        acc += np.einsum("t,tnk->nk", w, block) * dt
    return acc / window


def _patchwork_breaks(t0: float, t1: float):
    """Integer-square switch points strictly inside (t0, t1), plus 0 if crossed."""
    pts = set()
    if t0 < 0.0 < t1:
        pts.add(0.0)
    m = 0
    while m * m <= max(abs(t0), abs(t1)):
        for s in (m * m, -m * m):
            if t0 < s < t1:
                pts.add(float(s))
        m += 1
    return sorted(pts)


def time_average(g: Forcing, t0: float, window: float) -> Field:
    """(1/window) integral of g over [t0, t0 + window] by composite quadrature.

    Patchwork windows are split at the switch points, and each piece is
    averaged on its own child, recursively, so a child that is itself a
    patchwork is split at its own switch points too.
    """
    if not window > 0:
        raise ValueError(f"window must be positive, got {window}")
    if g.patches is None:
        return Field(g.grid, _average_smooth(g, t0, window))
    g1, g2, unit = g.patches
    t1 = t0 + window
    cuts = [t0] + [unit * s for s in _patchwork_breaks(t0 / unit, t1 / unit)] + [t1]
    acc = np.zeros(g.profiles.shape[1:])
    for a, b in zip(cuts[:-1], cuts[1:]):
        child = g1 if _first_patch(np.array([0.5 * (a + b) / unit]))[0] else g2
        acc += time_average(child, a, b - a).values * (b - a)
    return Field(g.grid, acc / window)
