"""Experiment reports and their on-disk form.

A report is the config echo, a list of named tables, and a list of verdicts
where each verdict points at the table row that justifies it.  export_report
writes report.json, one CSV per table, and a log-log scatter with the fitted
line (plain SVG, no plotting library) for every table that carries a rate fit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError

_FMT = "%.17g"


def _py(value):
    """JSON-safe scalar."""
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if not math.isfinite(v):
            return repr(v)
        return v
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return value


@dataclass
class Table:
    """Named rectangular table; rows are tuples matching columns."""

    name: str
    columns: list
    rows: list = field(default_factory=list)
    fit: dict | None = None

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError(f"table {self.name}: row width {len(row)} != {len(self.columns)}")
        self.rows.append([_py(v) for v in row])
        return len(self.rows) - 1

    def to_dict(self):
        d = {"name": self.name, "columns": list(self.columns), "rows": self.rows}
        if self.fit is not None:
            d["fit"] = {k: _py(v) for k, v in self.fit.items()}
        return d


@dataclass
class Verdict:
    """Pass/fail statement tied to a table row."""

    name: str
    passed: bool
    table: str
    row: int
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "table": self.table,
            "row": int(self.row),
            "detail": self.detail,
        }


@dataclass
class Report:
    experiment: dict
    tables: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    wall_clock: float = 0.0

    def table(self, name: str, columns: list, fit: dict | None = None) -> Table:
        t = Table(name, columns, fit=fit)
        self.tables.append(t)
        return t

    def verdict(self, name: str, passed: bool, table: Table | str, row: int, detail: str = ""):
        tname = table.name if isinstance(table, Table) else table
        self.verdicts.append(Verdict(name, bool(passed), tname, row, detail))

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "tables": [t.to_dict() for t in self.tables],
            "verdicts": [v.to_dict() for v in self.verdicts],
            "wall_clock": _py(self.wall_clock),
        }


# SVG geometry; fixed so tests can recompute pixel positions exactly
_W, _H = 480.0, 360.0
_ML, _MR, _MT, _MB = 60.0, 20.0, 20.0, 50.0


def _axis_map(lo: float, hi: float, pix_lo: float, pix_hi: float):
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    span = hi - lo
    lo -= 0.05 * span
    hi += 0.05 * span

    def to_px(v):
        return pix_lo + (v - lo) / (hi - lo) * (pix_hi - pix_lo)

    return to_px


def fit_plot_svg(table: Table) -> str:
    """Log-log scatter of the first two columns with the fitted line.

    Point and line coordinates are emitted with two decimals, so a reader
    can recompute them from the table data to within half a pixel.
    """
    xs = np.array([r[0] for r in table.rows], dtype=float)
    ys = np.array([r[1] for r in table.rows], dtype=float)
    keep = (xs > 0) & (ys > 0)
    lx, ly = np.log10(xs[keep]), np.log10(ys[keep])
    if lx.size == 0:
        lx = ly = np.array([0.0])
    to_x = _axis_map(float(lx.min()), float(lx.max()), _ML, _W - _MR)
    to_y = _axis_map(float(ly.min()), float(ly.max()), _H - _MB, _MT)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:g}" height="{_H:g}" '
        f'viewBox="0 0 {_W:g} {_H:g}">',
        f'<rect x="0" y="0" width="{_W:g}" height="{_H:g}" fill="white"/>',
        f'<rect x="{_ML:g}" y="{_MT:g}" width="{_W - _ML - _MR:g}" '
        f'height="{_H - _MT - _MB:g}" fill="none" stroke="#333"/>',
        f'<text x="{_W / 2:g}" y="{_H - 12:g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">log10 {table.columns[0]}</text>',
        f'<text x="16" y="{_H / 2:g}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {_H / 2:g})">log10 {table.columns[1]}</text>',
    ]
    if table.fit is not None and lx.size:
        slope = float(table.fit["slope"])
        # fits carry natural-log intercepts; the axes are log10
        intercept = float(table.fit["intercept"]) / math.log(10.0)
        x0, x1 = float(lx.min()), float(lx.max())
        parts.append(
            '<path d="M %.2f %.2f L %.2f %.2f" stroke="#c33" stroke-width="1.5" fill="none"/>'
            % (to_x(x0), to_y(slope * x0 + intercept), to_x(x1), to_y(slope * x1 + intercept))
        )
        parts.append(
            f'<text x="{_ML + 8:g}" y="{_MT + 16:g}" font-family="sans-serif" '
            f'font-size="12" fill="#c33">slope {slope:.3f}</text>'
        )
    for px, py in zip(lx, ly):
        parts.append('<circle cx="%.2f" cy="%.2f" r="3" fill="#06c"/>' % (to_x(px), to_y(py)))
    parts.append("</svg>")
    return "\n".join(parts)


def _cell(value) -> str:
    """CSV text of a table cell; a missing value (None) is an empty field."""
    if value is None:
        return ""
    return _FMT % value if isinstance(value, float) else str(value)


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc.strerror}") from exc


def report_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def export_report(report: Report, out_dir: str) -> list:
    """Write report.json plus per-table CSVs and rate-fit plots.

    Returns the list of file paths written.  A report with no tables
    produces report.json alone.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc.strerror}") from exc

    written = []
    path = os.path.join(out_dir, "report.json")
    _write(path, report_json(report))
    written.append(path)

    plot_idx = 0
    for table in report.tables:
        cpath = os.path.join(out_dir, f"{table.name}.csv")
        lines = [",".join(str(c) for c in table.columns)]
        for row in table.rows:
            lines.append(",".join(_cell(v) for v in row))
        _write(cpath, "\n".join(lines) + "\n")
        written.append(cpath)
        if table.fit is not None:
            plot_idx += 1
            name = "plots.svg" if plot_idx == 1 else f"plots-{plot_idx}.svg"
            ppath = os.path.join(out_dir, name)
            _write(ppath, fit_plot_svg(table) + "\n")
            written.append(ppath)
    return written
