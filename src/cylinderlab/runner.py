"""Experiment dispatch: validated config in, report with verdicts out.

Each experiment reads its params, tolerances and eps_list as load_config
resolved them (config.SCHEMAS holds every key's check and default), so no
default, cast or parse happens here; only defaults that depend on other
inputs, such as the solve's m_steps, are computed below.  The report echoes
params, tolerances and forcing as the config file wrote them.

Conventions: the solve-elliptic, converge, attractor and average kinds read
the config forcing in the elliptic orientation (profiles are wrapped as
FastScaled(g, eps) per sweep point); solve-parabolic and equilibria read it
as the parabolic right-hand side directly.  Any error an experiment raises
surfaces as a failed "completed" verdict carrying the exception type, never
as a crash; a NewtonDiverged also carries the tail of its residual trace.
Sweep cells run one after another on the calling thread, in config order.
"""

from __future__ import annotations

import math
import time
from dataclasses import fields

import numpy as np

from .config import ExperimentConfig
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
    _window_grid,
    default_dt,
    regularity_probe,
    solve_truncated_bvp,
    variational_process,
)
from .errors import LabError, NewtonDiverged
from .forcing import Constant, forcing_mean
from .model import CylinderGrid, Ensemble, Field, cubic_nonlinearity, sine_field, symbol_A
from .newton import NewtonOptions
from .parabolic import StepOptions, _march, _schedule, lyapunov_value, semigroup_evolve
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


def _l2(grid, values) -> float:
    return math.sqrt(grid.h * float(np.sum(values**2)))


# ---------------------------------------------------------------------------
# experiments


def _exp_solve(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    g = config.forcing
    p = config.params
    t_len, u0 = p["t_len"], p["u0"]

    if config.kind == "solve-parabolic":
        m = p["m_steps"] or max(1, round(t_len / default_dt(0.0)))
        traj = semigroup_evolve(u0, t_len, StepOptions(dt=t_len / m), mats, nl, g)
        times, values = traj.times, traj.values
    else:
        eps = p["eps"]
        m = p["m_steps"] or max(2, math.ceil(t_len / default_dt(eps)))
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
    grid, mats, nl = _geometry(config)
    g = config.forcing
    p = config.params
    t_len, m, t_check, u0 = p["t_len"], p["m_steps"], p["t_check"], p["u0"]
    tol = config.tolerances["rel_err"]

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
    g = config.forcing
    p = config.params
    deltas, u0, xi = p["deltas"], p["u0"], p["xi"]
    opts = NewtonOptions(tol_residual=p["newton_tol"])

    cgrid = CylinderGrid(0.0, p["t_len"], p["m_steps"], p["eps"])
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
    lo, hi = config.tolerances["ratio_lo"], config.tolerances["ratio_hi"]
    summary = report.table("summary", ["ratio", "ratio_lo", "ratio_hi"])
    row = summary.add(ratio, lo, hi)
    report.verdict(
        "first-order-ratio", lo <= ratio <= hi, summary, row,
        f"err({deltas[0]:g})/err({deltas[1]:g}) = {ratio:.3f}",
    )


def _exp_census(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    gbar = forcing_mean(config.forcing)
    seed_count, lams = config.params["seed_count"], config.params["sweep_lambda"]
    # the lam column holds the cubic's lam, and None for the other nonlinearities
    if lams is None:
        cells = [(config.problem.nl_param if config.problem.nl_id == "cubic" else None, nl)]
    else:
        cells = [(lam, cubic_nonlinearity(lam, mats.k)) for lam in lams]
    streams = np.random.SeedSequence(config.seed).spawn(len(cells))

    def cell(nl_cell, stream):
        rng = np.random.default_rng(stream)
        return find_equilibria(mats, nl_cell, gbar, seed_count=seed_count, rng=rng)

    sweeps = _pmap(cell, [(nl_c, s) for (_, nl_c), s in zip(cells, streams)])

    roots = report.table("equilibria", ["lam", "root", "l2", "index", "gap_nu", "hyperbolic"])
    census = report.table("census", ["lam", "count"])
    expected_counts = config.tolerances["expected_counts"]
    expected_indices = config.tolerances["expected_indices"]
    for i, ((lam, _), records) in enumerate(zip(cells, sweeps)):
        suffix = "" if lam is None else f"-lam-{lam:g}"
        for j, rec in enumerate(records):
            roots.add(lam, j, rec.z.l2(), rec.index, rec.gap_nu, int(rec.hyperbolic))
        row = census.add(lam, len(records))
        if expected_counts is not None:
            want = expected_counts[i]
            report.verdict(
                f"count{suffix}", len(records) == want, census, row,
                f"found {len(records)} equilibria, expected {want}",
            )
        if expected_indices is not None:
            want_idx = expected_indices[i]
            got_idx = [rec.index for rec in records]
            report.verdict(
                f"indices{suffix}", got_idx == want_idx, census, row,
                f"instability indices {got_idx}, expected {want_idx}",
            )
    if expected_counts is None and expected_indices is None:
        report.verdict(
            "census-complete", True, census, 0,
            f"{sum(len(r) for r in sweeps)} equilibria across {len(cells)} sweeps",
        )


# state values whose energies one lyapunov_value call takes.  Its
# temporaries are a few arrays of about this size, 64 KiB; below glibc
# malloc's 128 KiB mmap threshold they are reused from the heap instead of
# being mapped, and faulted in page by page, afresh at every call
_ENERGY_VALUES = 8192


def _step_energies(starts, t_end, opts, mats, nl, g, gbar) -> np.ndarray:
    """(R, steps + 1) lyapunov_value of every step of the ensemble's march.

    The states pass through a buffer of _ENERGY_VALUES values (at least
    one step of every member), whose energies are taken at once each time
    it fills, so no trajectory is stored; each energy is the one
    lyapunov_value gives that step alone, to the bit.
    """
    grid, cur, steps, dt = _schedule(starts, t_end, opts)
    width = max(1, _ENERGY_VALUES // cur.size)  # steps in the buffer
    ell = np.empty((cur.shape[0], steps + 1))
    buf = np.empty((cur.shape[0], width) + cur.shape[1:])
    for j, state in enumerate(_march(grid, cur, steps, dt, opts, mats, nl, g)):
        i = j % width
        buf[:, i] = state
        if i == width - 1 or j == steps:
            part = Ensemble(grid, dt * np.arange(j - i, j + 1), buf[:, : i + 1])
            ell[:, j - i : j + 1] = lyapunov_value(part, mats, nl, gbar)
    return ell


def _exp_lyapunov(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    g = config.forcing
    gbar = forcing_mean(g)
    p = config.params
    amp, tol = p["amplitude"], config.tolerances["max_increase"]
    starts = []
    for stream in np.random.SeedSequence(config.seed).spawn(p["n_trajectories"]):
        rng = np.random.default_rng(stream)
        coeffs = amp * rng.standard_normal((4, mats.k)) / (1.0 + np.arange(4.0))[:, None] ** 2
        starts.append(sine_field(grid, coeffs, k=mats.k))
    # the energy of the flow forced by +g carries -gbar
    energies = _step_energies(starts, p["t_end"], StepOptions(dt=p["dt"]), mats, nl, g, -gbar)
    table = report.table("trajectories", ["trajectory", "l_start", "l_end", "max_increase"])
    for i, ell in enumerate(energies):
        l0, l1, inc = float(ell[0]), float(ell[-1]), float(np.diff(ell).max())
        row = table.add(i, l0, l1, inc)
        report.verdict(
            f"monotone-trajectory-{i}", inc <= tol, table, row,
            f"max per-step increase {inc:.3e} vs tolerance {tol:g}",
        )


def _exp_structure(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    gbar = forcing_mean(config.forcing)
    p = config.params
    radius, n_rays, tol = p["radius"], p["n_rays"], config.tolerances["endpoint_tol"]

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    records = find_equilibria(mats, nl, gbar, rng=rng)
    lctx = ProcessContext(grid, mats, nl, Constant(-gbar), 0.0)  # elliptic sign convention
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
        rays = lctx.evolve([Field(grid, v) for _, v in seeds], 0.0, p["t_grow"], p["stride"])
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
    g = config.forcing
    p = config.params
    t_end, u0, tol = p["t_end"], p["u0"], config.tolerances["rel_gap"]

    ctx = ProcessContext(grid, mats, nl, g, 0.0)
    traj_e = ctx.evolve(u0, 0.0, t_end, p["stride"])
    # the reference steps on evolve's grid and keeps its steps j * spw
    dt, spw = _window_grid(p["stride"], ctx)
    traj_p = semigroup_evolve(u0, t_end, StepOptions(dt=dt), mats, nl, -g, every=spw)

    table = report.table("slice-gap", ["t", "rel_gap"])
    worst, worst_row = -1.0, 0
    for j in range(traj_e.times.shape[0]):
        ref_vals = traj_p.values[j]
        gap = _l2(grid, traj_e.values[j] - ref_vals) / max(_l2(grid, ref_vals), 1e-30)
        row = table.add(float(traj_e.times[j]), gap)
        if gap > worst:
            worst, worst_row = gap, row
    report.verdict(
        "delegation-gap", worst <= tol, table, worst_row,
        f"max relative slice gap {worst:.3e} vs tolerance {tol:g}",
    )


def _exp_trajectory_rate(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    g = config.forcing
    p = config.params
    ctx = ProcessContext(grid, mats, nl, g, 0.0)

    def cell(eps):
        series = trajectory_vs_limit(eps, g, p["u0"], p["t_end"], ctx, stride=p["stride"])
        return series.sup

    sups = _pmap(cell, [(e,) for e in config.eps_list])
    fit = rate_fit(config.eps_list, sups)
    table = report.table(
        "gaps", ["eps", "sup_gap"],
        fit={"slope": fit.slope, "intercept": fit.intercept},
    )
    for eps, sup in zip(config.eps_list, sups):
        table.add(eps, sup)

    slope_min, resid_max = config.tolerances["slope_min"], config.tolerances["residual_max"]
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
    grid, mats, nl = _geometry(config)
    g = config.forcing
    t_track, resid_max = config.params["t_track"], config.tolerances["residual_max"]
    gbar = forcing_mean(-g)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    records = find_equilibria(mats, nl, gbar, rng=rng)
    ctx = ProcessContext(grid, mats, nl, g, config.eps_list[0])

    def cell(eps, rec):
        try:
            track = track_periodic_solution(rec, _eps_forcing(g, eps), eps, ctx, t_track=t_track)
            return track.mode, track.deviation, track.residual
        except LabError as exc:
            return f"failed: {type(exc).__name__}", math.inf, math.inf

    cells = [(eps, rec) for eps in config.eps_list for rec in records]
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
    grid, mats, nl = _geometry(config)
    g = config.forcing
    ctx = ProcessContext(grid, mats, nl, g, config.eps_list[0])
    cloud = CloudParams(**{f.name: config.params[f.name] for f in fields(CloudParams)})
    sweep = attractor_distance_experiment(
        config.eps_list, g, ctx, cloud,
        rng=np.random.default_rng(np.random.SeedSequence(config.seed)),
    )

    fit = {"slope": sweep.fit.slope, "intercept": sweep.fit.intercept} if sweep.fit else None
    table, last = _distance_table(report, sweep.rows, sweep.monotone, fit)

    final_tol = config.tolerances["final_dist"]
    final = sweep.rows[-1][1]
    report.verdict(
        "final-distance", final <= final_tol, table, last,
        f"distance {final:.3e} at eps {sweep.rows[-1][0]:g} vs tolerance {final_tol:g}",
    )


def _exp_attractor_mean(config: ExperimentConfig, report: Report):
    grid, mats, nl = _geometry(config)
    g = config.forcing
    p = config.params
    ctx = ProcessContext(grid, mats, nl, g, config.eps_list[0])
    result = averaging_experiment(
        g,
        config.eps_list,
        ctx,
        CloudParams(**{f.name: p[f.name] for f in fields(CloudParams)}),
        mean_tol=p["mean_tol"],
        window0=p["window0"],
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
    grid, mats, nl = _geometry(config)
    h_forcing = config.forcing
    ctx = ProcessContext(grid, mats, nl, h_forcing, 0.0)

    rows = regularity_probe(config.eps_list, h_forcing, config.params["u0"], ctx)
    table = report.table("ratios", ["eps", "rho"])
    for eps, rho in rows:
        table.add(eps, rho)

    rhos = [rho for _, rho in rows]
    spread = max(rhos) / min(rhos)
    tol = config.tolerances["spread"]
    summary = report.table("summary", ["spread"])
    row = summary.add(spread)
    report.verdict(
        "ratio-spread", spread <= tol, summary, row,
        f"max rho / min rho = {spread:.3f} vs cap {tol:g}",
    )


def _exp_symbol_bounds(config: ExperimentConfig, report: Report):
    p = config.params
    lo_exp, hi_exp = p["xi_range"]
    z = 1.0 + np.logspace(lo_exp, hi_exp, p["xi_points"]) ** 2
    ratio_lo, ratio_hi = config.tolerances["ratio_lo"], config.tolerances["ratio_hi"]

    table = report.table(
        "symbol", ["alpha", "beta", "eps", "min_re", "min_ratio", "max_ratio"]
    )
    for alpha, beta in p["pairs"]:
        for eps in p["eps_grid"]:
            vals = np.array([symbol_A(zz, alpha, beta, eps) for zz in z])
            re = vals.real
            ratio = z / (np.sqrt(1.0 + eps**2 * z) * re)
            row = table.add(
                alpha, beta, eps, float(re.min()), float(ratio.min()), float(ratio.max()),
            )
            ok = re.min() > 0.0 and ratio.min() >= ratio_lo and ratio.max() <= ratio_hi
            report.verdict(
                f"symbol-a{alpha:g}-b{beta:g}-eps-{eps:g}", ok, table, row,
                f"Re A in [{re.min():.3g}, {re.max():.3g}], "
                f"ratio in [{ratio.min():.3g}, {ratio.max():.3g}]",
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
}


def run(config: ExperimentConfig, fixed_clock: bool = False) -> Report:
    """Execute one experiment and return its report."""
    start = time.perf_counter()
    echo = {
        "kind": config.kind,
        "experiment": config.experiment,
        "problem": config.raw["problem"],
        "forcing": config.raw.get("forcing"),
        "eps_list": list(config.eps_list),
        "params": config.raw.get("params", {}),
        "tolerances": config.raw.get("tolerances", {}),
        "seed": config.seed,
        "out_dir": config.out_dir,
    }
    report = Report(experiment=echo)
    try:
        _EXPERIMENTS[config.experiment](config, report)
    except Exception as exc:  # library errors and any other failure alike
        message = str(exc)
        if isinstance(exc, NewtonDiverged) and exc.trace:
            tail = ", ".join(f"{v:.3e}" for v in exc.trace[-5:])
            message = f"{message}; last residuals {tail}"
        table = report.table("error", ["error_type", "message"])
        row = table.add(type(exc).__name__, message)
        report.verdict("completed", False, table, row, message)
    report.wall_clock = 0.0 if fixed_clock else time.perf_counter() - start
    return report
