"""Experiment dispatch: validated config in, report with verdicts out.

Conventions: the solve-elliptic, converge, attractor and average kinds read
the config forcing in the elliptic orientation (profiles are wrapped as
FastScaled(g, eps) per sweep point); solve-parabolic and equilibria read it
as the parabolic right-hand side directly.  Any error an experiment raises
(a library error or a bad params value) surfaces as a failed "completed"
verdict carrying the exception type, never as a crash; a NewtonDiverged
also carries the tail of its residual trace.  Sweep cells run one after
another on the calling thread, in config order.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .config import (
    MODAL_DECAY_DEFAULTS,
    STRIDE_DEFAULTS,
    ExperimentConfig,
    parse_forcing,
    parse_profile,
)
from .dynamics import (
    CloudParams,
    _eps_forcing,
    attractor_distance_experiment,
    averaging_experiment,
    find_equilibria,
    heteroclinic_classify,
    rate_fit,
    spectral_split,
    track_periodic_solution,
    trajectory_vs_limit,
)
from .elliptic import (
    ProcessContext,
    default_dt,
    regularity_probe,
    solve_truncated_bvp,
    variational_process,
)
from .errors import LabError, NewtonDiverged
from .forcing import Constant, forcing_mean
from .model import CylinderGrid, Field, cubic_nonlinearity, sine_field, symbol_A
from .newton import NewtonOptions
from .parabolic import LimitContext, StepOptions, lyapunov_value, semigroup_evolve
from .reports import Report


def _pmap(fn, arg_rows):
    """Run fn over the sweep cells in order, on the calling thread.

    Kept as one named function, rather than a list comprehension at each
    sweep, because bench/tracer.py wraps it to time and count the cells.
    """
    return [fn(*args) for args in arg_rows]


def _geometry(config: ExperimentConfig):
    p = config.problem
    return p.grid(), p.matrices(), p.nonlinearity()


def _forcing_of(config: ExperimentConfig, grid, k):
    if config.forcing is None:
        return Constant(Field.zeros(grid, k))
    return parse_forcing(config.forcing, grid, k)


def _profile_param(config: ExperimentConfig, name, grid, k, default=None) -> Field:
    spec = config.params.get(name)
    if spec is None:
        if default is None:
            raise LabError(f"params.{name} is required for {config.experiment}")
        return default
    return parse_profile(spec, grid, k, f"params.{name}")


def _context(config, grid, mats, nl, forcing, eps=0.0) -> ProcessContext:
    return ProcessContext(grid, mats, nl, forcing, eps, margin=config.margin)


def _l2(grid, values) -> float:
    return math.sqrt(grid.h * float(np.sum(values**2)))


def _need_eps(config: ExperimentConfig) -> tuple:
    if not config.eps_list:
        raise LabError(f"eps_list is required for {config.experiment}")
    return config.eps_list


# ---------------------------------------------------------------------------
# experiments


def _exp_solve(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    p = config.params
    t_len = float(p.get("t_len", 2.0))
    u0 = _profile_param(config, "u0", grid, mats.k, sine_field(grid, np.full((1, mats.k), 0.5)))

    if config.kind == "solve-parabolic":
        m = int(p.get("m_steps", round(t_len / 1e-3)))
        traj = semigroup_evolve(u0, t_len, StepOptions(dt=t_len / m), mats, nl, g)
        times, values = traj.times, traj.values
    else:
        eps = float(p.get("eps", 0.1))
        m = int(p.get("m_steps", math.ceil(t_len / default_dt(eps))))
        u = solve_truncated_bvp(grid, CylinderGrid(0.0, t_len, m, eps), mats, nl, g, u0)
        times, values = u.cgrid.times, u.values

    t_slices = report.table("slices", ["t", "l2"])
    every = max(1, values.shape[0] // 32)
    idx = list(range(0, values.shape[0], every))
    if idx[-1] != values.shape[0] - 1:
        idx.append(values.shape[0] - 1)
    for j in idx:
        t_slices.add(float(times[j]), _l2(grid, values[j]))

    t_final = report.table("final-slice", ["x"] + [f"c{c}" for c in range(mats.k)])
    for x, row in zip(grid.nodes, values[-1]):
        t_final.add(float(x), *map(float, row))

    finite = bool(np.all(np.isfinite(values)))
    report.verdict(
        "solution-finite", finite, t_slices, len(t_slices.rows) - 1,
        f"final slice l2 {_l2(grid, values[-1]):.6g}",
    )


def _exp_modal_decay(config: ExperimentConfig, report: Report):
    _need_eps(config)
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    p = config.params
    t_len = float(p.get("t_len", MODAL_DECAY_DEFAULTS["t_len"]))
    m = int(p.get("m_steps", 200))
    t_check = float(p.get("t_check", MODAL_DECAY_DEFAULTS["t_check"]))
    u0 = _profile_param(config, "u0", grid, mats.k, sine_field(grid, np.ones((1, mats.k))))
    tol = float(config.tolerances.get("rel_err", 0.01))

    def cell(eps: float):
        u = solve_truncated_bvp(grid, CylinderGrid(0.0, t_len, m, eps), mats, nl, g, u0)
        j = int(round(t_check / u.cgrid.dt))
        mu = (1.0 - math.sqrt(1.0 + 4.0 * eps**2)) / (2.0 * eps**2) if eps > 0 else -1.0
        exact = math.exp(mu * u.cgrid.times[j]) * u0.values
        rel = _l2(grid, u.values[j] - exact) / _l2(grid, exact)
        return mu, rel

    results = _pmap(cell, [(e,) for e in config.eps_list])
    table = report.table("modal-error", ["eps", "mu", "rel_err"])
    for eps, (mu, rel) in zip(config.eps_list, results):
        row = table.add(eps, mu, rel)
        report.verdict(
            f"modal-match-eps-{eps:g}", rel <= tol, table, row,
            f"relative error {rel:.3e} vs tolerance {tol:g} at t={t_check:g}",
        )


def _exp_frechet(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    p = config.params
    eps = float(p.get("eps", 0.1))
    t_len = float(p.get("t_len", 2.0))
    m = int(p.get("m_steps", 128))
    deltas = [float(d) for d in p.get("deltas", (1e-3, 1e-4))]
    opts = NewtonOptions(tol_residual=float(p.get("newton_tol", 1e-12)))
    u0 = _profile_param(config, "u0", grid, mats.k, sine_field(grid, np.full((1, mats.k), 0.5)))
    xi = _profile_param(config, "xi", grid, mats.k, sine_field(grid, np.ones((1, mats.k))))

    cgrid = CylinderGrid(0.0, t_len, m, eps)
    base = solve_truncated_bvp(grid, cgrid, mats, nl, g, u0, opts=opts)
    w = variational_process(base, xi, mats, nl)

    def cell(delta: float) -> float:
        shifted = Field(grid, u0.values + delta * xi.values)
        u_d = solve_truncated_bvp(grid, cgrid, mats, nl, g, shifted, opts=opts)
        diff = (u_d.values - base.values) / delta - w.values
        per_slice = np.sqrt(grid.h * np.sum(diff**2, axis=(1, 2)))
        return float(per_slice.max())

    errs = _pmap(cell, [(d,) for d in deltas])
    table = report.table("divided-difference", ["delta", "err"])
    for delta, err in zip(deltas, errs):
        table.add(delta, err)

    ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
    lo = float(config.tolerances.get("ratio_lo", 5.0))
    hi = float(config.tolerances.get("ratio_hi", 20.0))
    summary = report.table("summary", ["ratio", "ratio_lo", "ratio_hi"])
    row = summary.add(ratio, lo, hi)
    report.verdict(
        "first-order-ratio", lo <= ratio <= hi, summary, row,
        f"err({deltas[0]:g})/err({deltas[1]:g}) = {ratio:.3f}",
    )


def _exp_census(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    gbar = forcing_mean(_forcing_of(config, grid, mats.k))
    p = config.params
    seed_count = int(p.get("seed_count", 12))
    lams = p.get("sweep_lambda")
    cells = [(None, nl)] if lams is None else [
        (float(lam), cubic_nonlinearity(float(lam), mats.k)) for lam in lams
    ]
    streams = np.random.SeedSequence(config.seed).spawn(len(cells))

    def cell(nl_cell, stream):
        rng = np.random.default_rng(stream)
        return find_equilibria(mats, nl_cell, gbar, seed_count=seed_count, rng=rng)

    sweeps = _pmap(cell, [(nl_c, s) for (_, nl_c), s in zip(cells, streams)])

    roots = report.table("equilibria", ["lam", "root", "l2", "index", "gap_nu", "hyperbolic"])
    census = report.table("census", ["lam", "count"])
    expected_counts = config.tolerances.get("expected_counts")
    expected_indices = config.tolerances.get("expected_indices")
    for i, ((lam, _), records) in enumerate(zip(cells, sweeps)):
        lam_val = lam if lam is not None else config.problem.nl_param
        for j, rec in enumerate(records):
            roots.add(lam_val, j, rec.z.l2(), rec.index, rec.gap_nu, int(rec.hyperbolic))
        row = census.add(lam_val, len(records))
        if expected_counts is not None:
            want = int(expected_counts[i])
            report.verdict(
                f"count-lam-{lam_val:g}", len(records) == want, census, row,
                f"found {len(records)} equilibria, expected {want}",
            )
        if expected_indices is not None:
            want_idx = [int(v) for v in expected_indices[i]]
            got_idx = [rec.index for rec in records]
            report.verdict(
                f"indices-lam-{lam_val:g}", got_idx == want_idx, census, row,
                f"instability indices {got_idx}, expected {want_idx}",
            )
    if expected_counts is None and expected_indices is None:
        report.verdict(
            "census-complete", True, census, 0,
            f"{sum(len(r) for r in sweeps)} equilibria across {len(cells)} sweeps",
        )


def _exp_lyapunov(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    gbar = forcing_mean(g)
    p = config.params
    n_traj = int(p.get("n_trajectories", 20))
    t_end = float(p.get("t_end", 2.0))
    dt = float(p.get("dt", 1e-3))
    amp = float(p.get("amplitude", 1.0))
    tol = float(config.tolerances.get("max_increase", 1e-8))
    starts = []
    for stream in np.random.SeedSequence(config.seed).spawn(n_traj):
        rng = np.random.default_rng(stream)
        coeffs = amp * rng.standard_normal((4, mats.k)) / (1.0 + np.arange(4.0))[:, None] ** 2
        starts.append(sine_field(grid, coeffs, k=mats.k))
    ensemble = semigroup_evolve(starts, t_end, StepOptions(dt=dt), mats, nl, g)
    table = report.table("trajectories", ["trajectory", "l_start", "l_end", "max_increase"])
    for i in range(len(ensemble)):
        # the energy of the flow forced by +g carries -gbar
        ell = lyapunov_value(ensemble.member(i), mats, nl, -gbar)
        l0, l1, inc = float(ell[0]), float(ell[-1]), float(np.diff(ell).max())
        row = table.add(i, l0, l1, inc)
        report.verdict(
            f"monotone-trajectory-{i}", inc <= tol, table, row,
            f"max per-step increase {inc:.3e} vs tolerance {tol:g}",
        )


def _exp_structure(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    gbar = forcing_mean(_forcing_of(config, grid, mats.k))
    p = config.params
    radius = float(p.get("radius", 2e-4))
    t_grow = float(p.get("t_grow", 18.0))
    stride = float(p.get("stride", STRIDE_DEFAULTS["structure"]))
    n_rays = int(p.get("n_rays", 16))
    tol = float(config.tolerances.get("endpoint_tol", 1e-3))

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    records = find_equilibria(mats, nl, gbar, rng=rng)
    lctx = LimitContext(grid, mats, nl, Constant(gbar))
    lvals = [lyapunov_value(rec.z, mats, nl, -gbar) for rec in records]  # flow forced by +gbar

    eq_table = report.table("equilibria", ["root", "l2", "index", "lyapunov"])
    for j, rec in enumerate(records):
        eq_table.add(j, rec.z.l2(), rec.index, lvals[j])

    seeds = []
    for j, rec in enumerate(records):
        if rec.index == 0:
            continue
        split = spectral_split(rec, mats, nl)
        if split.dim == 1:
            dirs = [split.v_plus[:, 0], -split.v_plus[:, 0]]
        else:
            angles = 2.0 * math.pi * np.arange(n_rays) / n_rays
            dirs = [
                split.v_plus[:, :2] @ np.array([math.cos(a), math.sin(a)])
                for a in angles
            ]
        for d in dirs:
            seeds.append((j, rec.z.values + radius * d.reshape(grid.n_interior, mats.k)))

    reps = []
    if seeds:
        rays = lctx.evolve([Field(grid, v) for _, v in seeds], 0.0, t_grow, stride)
        reps = [heteroclinic_classify(rays.member(i), records, tol=tol) for i in range(len(rays))]
    table = report.table(
        "heteroclinics",
        ["source", "ray", "alpha", "omega", "l_alpha", "l_omega", "distinct"],
    )
    for i, ((source, _), rep) in enumerate(zip(seeds, reps)):
        a = -1 if rep.alpha_limit is None else rep.alpha_limit
        o = -1 if rep.omega_limit is None else rep.omega_limit
        la = lvals[a] if a >= 0 else math.nan
        lo = lvals[o] if o >= 0 else math.nan
        row = table.add(source, i, a, o, la, lo, int(rep.distinct))
        report.verdict(
            f"endpoints-distinct-ray-{i}", rep.distinct, table, row,
            f"alpha {a}, omega {o}",
        )
        decreasing = a >= 0 and o >= 0 and la > lo
        report.verdict(
            f"lyapunov-decreasing-ray-{i}", decreasing, table, row,
            f"L(alpha) {la:.6g} vs L(omega) {lo:.6g}",
        )
    if not seeds:
        report.verdict("endpoints-distinct", False, eq_table, 0, "no unstable equilibria")


def _exp_delegation_gap(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    p = config.params
    t_end = float(p.get("t_end", 2.0))
    stride = float(p.get("stride", STRIDE_DEFAULTS["delegation-gap"]))
    u0 = _profile_param(config, "u0", grid, mats.k, sine_field(grid, np.full((1, mats.k), 0.5)))
    tol = float(config.tolerances.get("rel_gap", 1e-6))

    ctx = _context(config, grid, mats, nl, g, eps=0.0)
    traj_e = ctx.evolve(u0, 0.0, t_end, stride)
    traj_p = semigroup_evolve(
        u0, t_end, StepOptions(dt=ctx.dt_target), mats, nl, -g
    )

    table = report.table("slice-gap", ["t", "rel_gap"])
    worst, worst_row = -1.0, 0
    for j in range(traj_e.times.shape[0]):
        t = float(traj_e.times[j])
        jp = int(np.argmin(np.abs(traj_p.times - t)))
        ref = max(_l2(grid, traj_p.values[jp]), 1e-30)
        gap = _l2(grid, traj_e.values[j] - traj_p.values[jp]) / ref
        row = table.add(t, gap)
        if gap > worst:
            worst, worst_row = gap, row
    report.verdict(
        "delegation-gap", worst <= tol, table, worst_row,
        f"max relative slice gap {worst:.3e} vs tolerance {tol:g}",
    )


def _exp_trajectory_rate(config: ExperimentConfig, report: Report):
    _need_eps(config)
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    p = config.params
    t_end = float(p.get("t_end", 3.0))
    stride = float(p.get("stride", STRIDE_DEFAULTS["trajectory-rate"]))
    u0 = _profile_param(config, "u0", grid, mats.k, sine_field(grid, np.full((1, mats.k), 0.4)))
    ctx = _context(config, grid, mats, nl, g, eps=0.0)

    def cell(eps):
        series = trajectory_vs_limit(eps, g, u0, t_end, ctx, stride=stride)
        return series.sup

    sups = _pmap(cell, [(e,) for e in config.eps_list])
    fit = rate_fit(config.eps_list, sups)
    table = report.table(
        "gaps", ["eps", "sup_gap"],
        fit={"slope": fit.slope, "intercept": fit.intercept},
    )
    for eps, sup in zip(config.eps_list, sups):
        table.add(eps, sup)

    slope_min = float(config.tolerances.get("slope_min", 0.45))
    resid_max = float(config.tolerances.get("residual_max", 0.3))
    summary = report.table("summary", ["slope", "intercept", "max_residual"])
    row = summary.add(fit.slope, fit.intercept, fit.max_residual)
    report.verdict(
        "rate-slope", fit.slope >= slope_min, summary, row,
        f"log-log slope {fit.slope:.3f} vs minimum {slope_min:g}",
    )
    report.verdict(
        "rate-residual", fit.max_residual <= resid_max, summary, row,
        f"max log residual {fit.max_residual:.3f} vs cap {resid_max:g}",
    )


def _exp_periodic_orbit(config: ExperimentConfig, report: Report):
    _need_eps(config)
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    p = config.params
    t_track = float(p.get("t_track", 40.0))
    resid_max = float(config.tolerances.get("residual_max", 1e-6))
    gbar = forcing_mean(-g)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    records = find_equilibria(mats, nl, gbar, rng=rng)
    ctx = _context(config, grid, mats, nl, g, eps=float(config.eps_list[0]))

    def cell(eps, rec):
        try:
            track = track_periodic_solution(rec, _eps_forcing(g, eps), eps, ctx, t_track=t_track)
            return track.mode, track.deviation, track.residual
        except LabError as exc:
            return f"failed: {type(exc).__name__}", math.inf, math.inf

    cells = [(float(eps), rec) for eps in config.eps_list for rec in records]
    results = _pmap(cell, cells)

    table = report.table("tracking", ["eps", "root", "mode", "deviation", "residual"])
    summary = report.table("deviation", ["eps", "max_deviation"])
    max_devs = []
    for i, eps in enumerate(config.eps_list):
        chunk = results[i * len(records) : (i + 1) * len(records)]
        ok = True
        for j, (mode, dev, resid) in enumerate(chunk):
            table.add(eps, j, mode, dev, resid)
            ok = ok and mode == "fixed-point" and resid <= resid_max
        dev_max = max(dev for _, dev, _ in chunk)
        max_devs.append(dev_max)
        row = summary.add(eps, dev_max)
        report.verdict(
            f"fixed-points-eps-{eps:g}", ok, summary, row,
            f"{len(chunk)} equilibria tracked, max deviation {dev_max:.3e}",
        )
    monotone = all(b < a for a, b in zip(max_devs, max_devs[1:]))
    report.verdict(
        "deviation-monotone", monotone, summary, len(summary.rows) - 1,
        "max deviation decreases with eps" if monotone else f"deviations {max_devs}",
    )


def _cloud_params(p: dict) -> CloudParams:
    kwargs = {}
    if "radius" in p:
        kwargs["radius"] = float(p["radius"])
    if "n_rays" in p:
        kwargs["n_rays"] = int(p["n_rays"])
    if "t_grow" in p:
        kwargs["t_grow"] = float(p["t_grow"])
    if "stride" in p:
        kwargs["stride"] = float(p["stride"])
    if "discard" in p:
        kwargs["discard"] = float(p["discard"])
    return CloudParams(**kwargs)


def _distance_table(report: Report, rows, monotone: bool, fit: dict | None = None):
    """The distances table and its distance-monotone verdict; returns the
    table and the index of its last row."""
    table = report.table("distances", ["eps", "symmetric_dist"], fit=fit)
    for eps, dist in rows:
        table.add(eps, dist)
    last = len(table.rows) - 1
    report.verdict(
        "distance-monotone", monotone, table, last,
        "cloud distance decreases along the sweep"
        if monotone
        else f"distances {[f'{d:.3e}' for _, d in rows]}",
    )
    return table, last


def _exp_distance_sweep(config: ExperimentConfig, report: Report):
    _need_eps(config)
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    ctx = _context(config, grid, mats, nl, g, eps=float(config.eps_list[0]))
    sweep = attractor_distance_experiment(
        config.eps_list, g, ctx, _cloud_params(config.params),
        rng=np.random.default_rng(np.random.SeedSequence(config.seed)),
    )

    fit = {"slope": sweep.fit.slope, "intercept": sweep.fit.intercept} if sweep.fit else None
    table, last = _distance_table(report, sweep.rows, sweep.monotone, fit)

    final_tol = float(config.tolerances.get("final_dist", 5e-2))
    final = sweep.rows[-1][1]
    report.verdict(
        "final-distance", final <= final_tol, table, last,
        f"distance {final:.3e} at eps {sweep.rows[-1][0]:g} vs tolerance {final_tol:g}",
    )


def _exp_attractor_mean(config: ExperimentConfig, report: Report):
    _need_eps(config)
    grid, mats, nl = _geometry(config)
    g = _forcing_of(config, grid, mats.k)
    p = config.params
    ctx = _context(config, grid, mats, nl, g, eps=float(config.eps_list[0]))
    result = averaging_experiment(
        g,
        config.eps_list,
        ctx,
        _cloud_params(p),
        mean_tol=float(p.get("mean_tol", 1e-2)),
        window0=float(p.get("window0", 32.0)),
        rng=np.random.default_rng(np.random.SeedSequence(config.seed)),
    )

    mean_table = report.table("mean", ["gbar_l2", "cloud_resolution"])
    mrow = mean_table.add(result.gbar.l2(), result.resolution)
    report.verdict(
        "mean-converged", True, mean_table, mrow,
        f"window-doubled mean has l2 {result.gbar.l2():.3e}",
    )

    table, last = _distance_table(report, result.rows, result.monotone)
    final = result.rows[-1][1]
    report.verdict(
        "final-within-resolution", final <= result.resolution, table, last,
        f"distance {final:.3e} vs reference cloud resolution {result.resolution:.3e}",
    )


def _exp_solution_ratios(config: ExperimentConfig, report: Report):
    _need_eps(config)
    grid, mats, nl = _geometry(config)
    h_forcing = _forcing_of(config, grid, mats.k)
    u0 = _profile_param(config, "u0", grid, mats.k, sine_field(grid, np.ones((1, mats.k))))
    ctx = _context(config, grid, mats, nl, h_forcing, eps=0.0)

    rows = regularity_probe(config.eps_list, h_forcing, u0, ctx)
    table = report.table("ratios", ["eps", "rho"])
    for eps, rho in rows:
        table.add(eps, rho)

    rhos = [rho for _, rho in rows]
    spread = max(rhos) / min(rhos)
    tol = float(config.tolerances.get("spread", 2.0))
    summary = report.table("summary", ["spread"])
    row = summary.add(spread)
    report.verdict(
        "ratio-spread", spread <= tol, summary, row,
        f"max rho / min rho = {spread:.3f} vs cap {tol:g}",
    )


def _exp_symbol_bounds(config: ExperimentConfig, report: Report):
    p = config.params
    pairs = p.get("pairs", [[1.0, 0.0]])
    eps_grid = p.get("eps_grid", [0.0, 0.01, 0.1, 1.0])
    n_xi = int(p.get("xi_points", 100))
    lo_exp, hi_exp = p.get("xi_range", [-2.0, 3.0])
    xi = np.logspace(float(lo_exp), float(hi_exp), n_xi)
    z = 1.0 + xi**2
    ratio_lo = float(config.tolerances.get("ratio_lo", 0.2))
    ratio_hi = float(config.tolerances.get("ratio_hi", 5.0))

    table = report.table(
        "symbol", ["alpha", "beta", "eps", "min_re", "min_ratio", "max_ratio"]
    )
    for alpha, beta in pairs:
        for eps in eps_grid:
            vals = np.array([symbol_A(zz, float(alpha), float(beta), float(eps)) for zz in z])
            re = vals.real
            ratio = z / (np.sqrt(1.0 + float(eps) ** 2 * z) * re)
            row = table.add(
                float(alpha), float(beta), float(eps),
                float(re.min()), float(ratio.min()), float(ratio.max()),
            )
            ok = re.min() > 0.0 and ratio.min() >= ratio_lo and ratio.max() <= ratio_hi
            report.verdict(
                f"symbol-a{alpha:g}-b{beta:g}-eps-{eps:g}", ok, table, row,
                f"Re A in [{re.min():.3g}, {re.max():.3g}], "
                f"ratio in [{ratio.min():.3g}, {ratio.max():.3g}]",
            )


def _exp_synthetic_power_law(config: ExperimentConfig, report: Report):
    p = config.params
    eps = [float(v) for v in p["eps"]]
    dists = [float(v) for v in p["distances"]]
    fit = rate_fit(eps, dists)
    table = report.table(
        "data", ["eps", "distance"],
        fit={"slope": fit.slope, "intercept": fit.intercept},
    )
    for e, d in zip(eps, dists):
        table.add(e, d)
    want = float(config.tolerances.get("slope", 0.5))
    tol = float(config.tolerances.get("slope_tol", 0.05))
    summary = report.table("summary", ["slope", "max_residual"])
    row = summary.add(fit.slope, fit.max_residual)
    report.verdict(
        "fitted-slope", abs(fit.slope - want) <= tol, summary, row,
        f"slope {fit.slope:.4f} vs expected {want:g} within {tol:g}",
    )


_EXPERIMENTS = {
    "solve": _exp_solve,
    "modal-decay": _exp_modal_decay,
    "frechet": _exp_frechet,
    "census": _exp_census,
    "lyapunov": _exp_lyapunov,
    "structure": _exp_structure,
    "delegation-gap": _exp_delegation_gap,
    "trajectory-rate": _exp_trajectory_rate,
    "periodic-orbit": _exp_periodic_orbit,
    "distance-sweep": _exp_distance_sweep,
    "attractor-mean": _exp_attractor_mean,
    "solution-ratios": _exp_solution_ratios,
    "symbol-bounds": _exp_symbol_bounds,
    "synthetic-power-law": _exp_synthetic_power_law,
}


def run(config: ExperimentConfig, fixed_clock: bool = False) -> Report:
    """Execute one experiment and return its report."""
    start = time.perf_counter()
    echo = {
        "kind": config.kind,
        "experiment": config.experiment,
        "problem": config.raw["problem"],
        "forcing": config.forcing,
        "eps_list": list(config.eps_list),
        "params": config.params,
        "tolerances": config.tolerances,
        "seed": config.seed,
        "margin": config.margin,
        "out_dir": config.out_dir,
    }
    report = Report(experiment=echo)
    try:
        _EXPERIMENTS[config.experiment](config, report)
    except Exception as exc:  # library errors and bad params values alike
        message = str(exc)
        if isinstance(exc, NewtonDiverged) and exc.trace:
            tail = ", ".join(f"{v:.3e}" for v in exc.trace[-5:])
            message = f"{message}; last residuals {tail}"
        table = report.table("error", ["error_type", "message"])
        row = table.add(type(exc).__name__, message)
        report.verdict("completed", False, table, row, message)
    report.wall_clock = 0.0 if fixed_clock else time.perf_counter() - start
    return report
