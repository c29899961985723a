import json
import math
import re
import threading

import numpy as np
import pytest

from cylinderlab import (
    Field,
    FormatError,
    IoError,
    NewtonDiverged,
    Report,
    SpatialGrid,
    export_report,
    load_config,
    load_field,
    run,
    save_field,
)
from cylinderlab.cli import main
from cylinderlab.reports import fit_plot_svg, report_json
from cylinderlab import runner


# ---------------------------------------------------------------------------
# field CSV round trip


def test_field_roundtrip_is_exact(tmp_path):
    grid = SpatialGrid(math.pi, 17)
    rng = np.random.default_rng(3)
    f = Field(grid, rng.standard_normal((17, 2)) * 1e3)
    path = str(tmp_path / "f.csv")
    save_field(f, path)
    g = load_field(path)
    assert g.grid.n_interior == 17 and g.k == 2
    assert g.grid.length == pytest.approx(math.pi, rel=1e-15)
    np.testing.assert_array_equal(g.values, f.values)
    header = (tmp_path / "f.csv").read_text().splitlines()[0]
    assert header == "x,c0,c1"


def write_csv(tmp_path, text, name="bad.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_rejects_malformed_files(tmp_path):
    h = math.pi / 4

    with pytest.raises(FormatError, match="empty file"):
        load_field(write_csv(tmp_path, ""))

    with pytest.raises(FormatError, match="header must be x,c0"):
        load_field(write_csv(tmp_path, "t,c0\n0.5,1.0\n"))

    with pytest.raises(FormatError, match="header must be x,c0"):
        load_field(write_csv(tmp_path, "x,c0,c2\n0.5,1,2\n"))

    with pytest.raises(FormatError, match="no data rows"):
        load_field(write_csv(tmp_path, "x,c0\n"))

    with pytest.raises(FormatError, match=r"bad\.csv:3: expected 2 columns, got 3"):
        load_field(write_csv(tmp_path, f"x,c0\n{h},1.0\n{2 * h},1.0,9\n"))

    with pytest.raises(FormatError, match=r"bad\.csv:2:"):
        load_field(write_csv(tmp_path, f"x,c0\n{h},one\n"))

    with pytest.raises(FormatError, match="uniform interior grid"):
        load_field(write_csv(tmp_path, f"x,c0\n{h},1.0\n{2.7 * h},2.0\n{3 * h},3.0\n"))

    with pytest.raises(FormatError, match="first node must be positive"):
        load_field(write_csv(tmp_path, "x,c0\n-0.5,1.0\n"))

    with pytest.raises(IoError, match="cannot read"):
        load_field(str(tmp_path / "absent.csv"))

    grid = SpatialGrid(1.0, 3)
    with pytest.raises(IoError, match="cannot write"):
        save_field(Field.zeros(grid), str(tmp_path / "no-dir" / "f.csv"))


# ---------------------------------------------------------------------------
# reports and export


def fit_report():
    report = Report(experiment={"experiment": "demo"})
    table = report.table(
        "data", ["eps", "distance"], fit={"slope": 0.5, "intercept": math.log(0.7)}
    )
    for e in (0.4, 0.2, 0.1, 0.05):
        table.add(e, 0.7 * e**0.5)
    report.verdict("demo-check", True, table, 0, "ok")
    return report


def test_export_fit_table_writes_three_files(tmp_path):
    report = fit_report()
    out = tmp_path / "out"
    written = export_report(report, str(out))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["data.csv", "plots.svg", "report.json"]
    for p in written:
        assert open(p).read()
    payload = json.loads((out / "report.json").read_text())
    assert payload["verdicts"][0]["pass"] is True
    assert payload["verdicts"][0]["table"] == "data"
    assert payload["tables"][0]["fit"]["slope"] == 0.5
    lines = (out / "data.csv").read_text().splitlines()
    assert lines[0] == "eps,distance"
    assert [float(c) for c in lines[1].split(",")] == [0.4, 0.7 * 0.4**0.5]
    # values survive a text round trip bit-for-bit
    assert float(lines[1].split(",")[1]).hex() == (0.7 * 0.4**0.5).hex()


def test_export_without_tables_or_fits(tmp_path):
    empty = Report(experiment={})
    written = export_report(empty, str(tmp_path / "a"))
    assert [p.split("/")[-1] for p in written] == ["report.json"]

    plain = Report(experiment={})
    t = plain.table("rows", ["i", "v"])
    t.add(1, 2.0)
    written = export_report(plain, str(tmp_path / "b"))
    assert sorted(p.split("/")[-1] for p in written) == ["report.json", "rows.csv"]


def test_export_numbers_extra_plots(tmp_path):
    report = fit_report()
    second = report.table("more", ["eps", "distance"], fit={"slope": 1.0, "intercept": 0.0})
    for e in (0.4, 0.2, 0.1):
        second.add(e, e)
    written = export_report(report, str(tmp_path / "c"))
    names = sorted(p.split("/")[-1] for p in written)
    assert names == ["data.csv", "more.csv", "plots-2.svg", "plots.svg", "report.json"]


def test_table_rejects_ragged_rows():
    report = Report(experiment={})
    t = report.table("x", ["a", "b"])
    with pytest.raises(ValueError):
        t.add(1.0)
    assert report.all_pass  # vacuous until a verdict lands
    report.verdict("v", False, t, 0)
    assert not report.all_pass


def test_report_json_is_stable():
    report = fit_report()
    a = report_json(report)
    b = report_json(report)
    assert a == b
    assert json.loads(a)["wall_clock"] == 0.0


def test_svg_line_matches_scatter_geometry():
    # recover the affine data-to-pixel map from the scatter circles, then
    # check the fitted line's endpoints land where the fit says, within
    # the documented half pixel
    report = fit_report()
    table = report.tables[0]
    svg = fit_plot_svg(table)
    circles = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    assert len(circles) == len(table.rows)
    lx = np.log10([r[0] for r in table.rows])
    ly = np.log10([r[1] for r in table.rows])
    cx = np.array([float(a) for a, _ in circles])
    cy = np.array([float(b) for _, b in circles])
    ax, bx = np.polyfit(lx, cx, 1)
    ay, by = np.polyfit(ly, cy, 1)
    m = re.search(r'<path d="M ([0-9.]+) ([0-9.]+) L ([0-9.]+) ([0-9.]+)"', svg)
    assert m, "fitted line missing"
    x0, x1 = lx.min(), lx.max()
    slope = table.fit["slope"]
    b10 = table.fit["intercept"] / math.log(10.0)
    expect = [
        ax * x0 + bx, ay * (slope * x0 + b10) + by,
        ax * x1 + bx, ay * (slope * x1 + b10) + by,
    ]
    got = [float(m.group(i)) for i in range(1, 5)]
    np.testing.assert_allclose(got, expect, atol=0.5)
    # exact power-law data: the line's first endpoint sits on that scatter dot
    j = int(np.argmin(lx))
    assert abs(got[0] - cx[j]) <= 0.5 and abs(got[1] - cy[j]) <= 0.5
    assert "log10 eps" in svg and "log10 distance" in svg


# ---------------------------------------------------------------------------
# runner


def census_config(tmp_path, n=48, tolerances=None, seed=3, name="census.json"):
    cfg = {
        "version": 1,
        "kind": "equilibria",
        "experiment": "census",
        "problem": {
            "length": math.pi,
            "n_interior": n,
            "nonlinearity": {"id": "cubic", "lam": 2.0},
        },
        "seed": seed,
        "out_dir": str(tmp_path / "out"),
    }
    if tolerances:
        cfg["tolerances"] = tolerances
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_run_census_counts_and_indices(tmp_path):
    cfg = load_config(
        census_config(
            tmp_path,
            tolerances={"expected_counts": [3], "expected_indices": [[1, 0, 0]]},
        )
    )
    report = run(cfg, fixed_clock=True)
    assert report.all_pass
    assert report.wall_clock == 0.0
    names = [t.name for t in report.tables]
    assert names == ["equilibria", "census"]
    assert len(report.tables[0].rows) == 3
    assert [r[3] for r in report.tables[0].rows] == [1, 0, 0]
    assert report.tables[1].rows == [[2.0, 3]]
    assert sorted(v.name for v in report.verdicts) == ["count-lam-2", "indices-lam-2"]


def test_run_synthetic_power_law(tmp_path):
    cfg_path = tmp_path / "fit.json"
    cfg_path.write_text(json.dumps({
        "version": 1,
        "kind": "converge",
        "experiment": "synthetic-power-law",
        "problem": {"length": math.pi, "n_interior": 4,
                    "nonlinearity": {"id": "zero"}},
        "params": {"eps": [0.4, 0.2, 0.1], "distances": [0.7 * e**0.5 for e in (0.4, 0.2, 0.1)]},
        "tolerances": {"slope": 0.5, "slope_tol": 0.01},
        "out_dir": str(tmp_path / "out"),
    }))
    report = run(load_config(str(cfg_path)), fixed_clock=True)
    assert report.all_pass
    data = [t for t in report.tables if t.name == "data"][0]
    assert data.fit["slope"] == pytest.approx(0.5, abs=1e-12)
    written = export_report(report, str(tmp_path / "out"))
    assert any(p.endswith("plots.svg") for p in written)


def test_run_modal_decay_small(tmp_path):
    cfg_path = tmp_path / "modal.json"
    cfg_path.write_text(json.dumps({
        "version": 1,
        "kind": "solve-elliptic",
        "experiment": "modal-decay",
        "problem": {"length": math.pi, "n_interior": 32,
                    "nonlinearity": {"id": "zero"}},
        "eps_list": [0.1],
        "params": {"t_len": 2.0, "m_steps": 100, "t_check": 1.0},
        "tolerances": {"rel_err": 0.01},
        "out_dir": str(tmp_path / "out"),
    }))
    report = run(load_config(str(cfg_path)), fixed_clock=True)
    assert report.all_pass
    assert report.verdicts[0].name == "modal-match-eps-0.1"
    rel = report.tables[0].rows[0][2]
    assert 0 < rel < 0.01


def test_run_wraps_library_errors_as_failed_verdict(tmp_path, monkeypatch):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text(json.dumps({
        "version": 1,
        "kind": "solve-elliptic",
        "experiment": "modal-decay",
        "problem": {"length": math.pi, "n_interior": 16,
                    "nonlinearity": {"id": "zero"}},
        "out_dir": str(tmp_path / "out"),
    }))
    report = run(load_config(str(cfg_path)), fixed_clock=True)  # no eps_list
    assert not report.all_pass
    assert report.tables[0].name == "error"
    assert report.verdicts[0].name == "completed"
    assert "eps_list" in report.verdicts[0].detail

    # any other exception inside an experiment ends in the same failed
    # verdict, naming the exception
    def broken(config, report):
        raise ValueError("broken experiment")

    monkeypatch.setitem(runner._EXPERIMENTS, "modal-decay", broken)
    report = run(load_config(str(cfg_path)), fixed_clock=True)
    assert [v.name for v in report.verdicts] == ["completed"]
    assert not report.all_pass
    assert report.tables[0].name == "error"
    assert report.tables[0].rows[0][0] == "ValueError"
    assert report.verdicts[0].detail == "broken experiment"


def test_run_keeps_the_tail_of_a_newton_trace(tmp_path, monkeypatch):
    # the last five residuals of a diverged Newton run reach the error table
    cfg_path = tmp_path / "diverged.json"
    cfg_path.write_text(json.dumps({
        "version": 1,
        "kind": "solve-elliptic",
        "experiment": "modal-decay",
        "problem": {"length": math.pi, "n_interior": 16,
                    "nonlinearity": {"id": "zero"}},
        "eps_list": [0.1],
        "out_dir": str(tmp_path / "out"),
    }))
    trace = [4.0, 2.0, 1.5, 1.25, 1.125, 1.0625, 0.96875]

    def diverging(config, report):
        raise NewtonDiverged("line search stalled at residual 9.688e-01", trace)

    monkeypatch.setitem(runner._EXPERIMENTS, "modal-decay", diverging)
    report = run(load_config(str(cfg_path)), fixed_clock=True)
    assert not report.all_pass
    (table,) = report.tables
    assert table.name == "error"
    message = (
        "line search stalled at residual 9.688e-01; last residuals "
        "1.500e+00, 1.250e+00, 1.125e+00, 1.062e+00, 9.688e-01"
    )
    assert table.rows == [["NewtonDiverged", message]]
    assert report.verdicts[0].detail == message


BAD_SCALAR_PARAMS = (
    ("demo-solve", {"m_steps": 1}, "params.m_steps: must be >= 2"),
    ("demo-solve", {"t_len": "two"}, "params.t_len: expected a number"),
    ("c07-trajectory-rate", {"stride": 0.3}, "params.stride: must divide one time unit"),
    ("c02-modal-decay", {"t_check": 5.0}, "params.t_check: must not exceed t_len 2"),
    ("c07-trajectory-rate", {"t_end": 2.1}, "params.t_end: must be a multiple of stride 0.125"),
    # list-valued keys: each of these used to load and end as a failed
    # "completed" verdict with exit 1
    ("c03-frechet", {"deltas": [0.001]}, "params.deltas: expected a list of at least 2 numbers"),
    ("c12-symbol-bounds", {"xi_range": [1.0]}, "params.xi_range: expected a list of at least 2"),
    ("c12-symbol-bounds", {"eps_grid": "abc"}, "params.eps_grid: expected a nonempty list"),
    # profiles and the synthetic-power-law lists: these too used to end as a
    # failed verdict with exit 1
    ("demo-solve", {"u0": "abc"}, "params.u0: expected an object, got str"),
    ("c03-frechet", {"xi": {"kind": "sine", "coeffs": "x"}}, "params.xi.coeffs: expected a"),
    ("synthetic", {"distances": [0.3]}, "params.distances: expected a list of at least 3 numbers"),
    ("synthetic", {"distances": [0.3, 0.2, 0.1, 0.05]}, "params.distances: expected 3 distances"),
)
SYNTHETIC = {
    "version": 1, "kind": "converge", "experiment": "synthetic-power-law",
    "problem": {"length": math.pi, "n_interior": 4, "nonlinearity": {"id": "zero"}},
    "params": {"eps": [0.4, 0.2, 0.1], "distances": [0.3, 0.2, 0.15]},
}


@pytest.mark.parametrize(
    "name,params,message", BAD_SCALAR_PARAMS,
    ids=["m_steps", "t_len", "stride", "t_check", "t_end", "deltas", "xi_range", "eps_grid",
         "u0", "xi", "distances", "distances_length"],
)
def test_bad_scalar_params_exit_2(tmp_path, configs_dir, capsys, name, params, message):
    if name == "synthetic":
        raw = json.loads(json.dumps(SYNTHETIC))
    else:
        raw = json.loads((configs_dir / f"{name}.json").read_text())
    raw["params"].update(params)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    code = main([raw["kind"], "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_is_deterministic_byte_for_byte(tmp_path):
    cfg = load_config(census_config(tmp_path, tolerances={"expected_counts": [3]}))
    rep1 = run(cfg, fixed_clock=True)
    rep2 = run(cfg, fixed_clock=True)
    assert report_json(rep1) == report_json(rep2)
    export_report(rep1, str(tmp_path / "o1"))
    export_report(rep2, str(tmp_path / "o2"))
    for name in ("report.json", "equilibria.csv", "census.csv"):
        b1 = (tmp_path / "o1" / name).read_bytes()
        b2 = (tmp_path / "o2" / name).read_bytes()
        assert b1 == b2, name


def test_wall_clock_measured_without_fixed_clock(tmp_path):
    cfg = load_config(census_config(tmp_path))
    report = run(cfg)
    assert report.wall_clock > 0.0


def test_cells_run_in_order_on_the_calling_thread(monkeypatch):
    # a LAB_THREADS left in the environment is ignored
    monkeypatch.setenv("LAB_THREADS", "2")
    seen = []

    def cell(i):
        seen.append((i, threading.get_ident()))
        return 10 * i

    assert runner._pmap(cell, [(i,) for i in range(4)]) == [0, 10, 20, 30]
    assert seen == [(i, threading.get_ident()) for i in range(4)]


# ---------------------------------------------------------------------------
# command line


def test_cli_pass_exit_zero(tmp_path, capsys):
    path = census_config(tmp_path, tolerances={"expected_counts": [3]})
    code = main(["equilibria", "--config", path, "--fixed-clock"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS count-lam-2" in out
    assert "report:" in out
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["wall_clock"] == 0.0


def test_cli_failing_verdict_exit_one(tmp_path, capsys):
    path = census_config(tmp_path, tolerances={"expected_counts": [4]})
    code = main(["equilibria", "--config", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL count-lam-2" in out
    # the report is still written for post-mortem reading
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    path = census_config(tmp_path)

    code = main(["attractor", "--config", path])
    assert code == 2
    assert "does not match" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = main(["equilibria", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(r"bad\.json:1:\d+", err)

    code = main(["equilibria", "--config", str(tmp_path / "none.json")])
    assert code == 2

    code = main(["equilibria", "--config", path, "--seed", "-1"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        main(["banana", "--config", path])


def test_cli_overrides_out_and_seed(tmp_path):
    path = census_config(tmp_path)
    alt = tmp_path / "elsewhere"
    code = main(["equilibria", "--config", path, "--out", str(alt), "--seed", "5",
                 "--fixed-clock"])
    assert code == 0
    payload = json.loads((alt / "report.json").read_text())
    assert payload["experiment"]["seed"] == 5
    assert (alt / "equilibria.csv").exists()
    assert not (tmp_path / "out").exists()
