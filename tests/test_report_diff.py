"""tools/report_diff.py on synthetic report directories."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


def load_script():
    spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_diff = load_script()


def report(out_dir, rows, passed=True, slope=-1.0):
    return {
        "experiment": {"kind": "solve-parabolic", "out_dir": out_dir, "seed": 5},
        "tables": [
            {"name": "rates", "columns": ["eps", "dist", "label"], "rows": rows,
             "fit": {"slope": slope, "intercept": 0.5}},
            {"name": "other", "columns": ["x"], "rows": [[1.0]]},
        ],
        "verdicts": [
            {"name": "rate", "pass": passed, "table": "rates", "row": 0, "detail": "d"},
        ],
        "wall_clock": 0.0,
    }


ROWS = [[0.1, 2.0, "a"], [0.2, 3.0, "b"]]


def write(root, name, data):
    (root / name).mkdir(parents=True)
    (root / name / "report.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run(tmp_path, capsys, old, new):
    a, b = tmp_path / "old", tmp_path / "new"
    for name, data in old.items():
        write(a, name, data)
    for name, data in new.items():
        write(b, name, data)
    status = report_diff.main([str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    return status, dict(line.split(": ", 1) for line in lines)


def test_identical_after_masking_out_dir(tmp_path, capsys):
    status, out = run(
        tmp_path, capsys, {"c01": report("out/a", ROWS)}, {"c01": report("elsewhere", ROWS)}
    )
    assert status == 0
    assert out == {"c01": "identical"}


def test_largest_difference_is_named(tmp_path, capsys):
    rows = [[0.1, 2.0 * (1 + 3e-9), "a"], [0.2, 3.0 * (1 - 4e-11), "b"]]
    status, out = run(
        tmp_path, capsys,
        {"c05": report("o", ROWS), "c09": report("o", ROWS)},
        {"c05": report("o", rows), "c09": report("o", ROWS, slope=-1.0 - 5e-8)},
    )
    assert status == 0
    assert out["c05"].startswith("max rel diff 3.00e-09 in rates[0].dist;")
    assert out["c05"].endswith("verdicts unchanged")
    assert out["c09"].startswith("max rel diff 5.00e-08 in rates.fit.slope;")


def test_differences_below_the_floor(tmp_path, capsys):
    rows = [[0.1, 2.0 * (1 + 2e-16), "a"], [0.2, 3.0, "b"]]
    status, out = run(tmp_path, capsys, {"c02": report("o", ROWS)}, {"c02": report("o", rows)})
    assert status == 0
    assert out["c02"] == "tables within 1e-12; verdicts unchanged"


@pytest.mark.parametrize(
    "new, expect",
    [
        (report("o", ROWS, passed=False), "verdicts changed: rate pass -> FAIL"),
        (report("o", [ROWS[0]]), "table rates changed shape"),
        (report("o", [ROWS[0], [0.2, 3.0, "c"]]), "rates[1].label changed: 'b' -> 'c'"),
        ({**report("o", ROWS), "experiment": {"seed": 6}}, "experiment echo changed"),
    ],
    ids=["verdict", "shape", "label", "experiment"],
)
def test_changes_that_need_attention(tmp_path, capsys, new, expect):
    status, out = run(tmp_path, capsys, {"c03": report("o", ROWS)}, {"c03": new})
    assert status == 1
    assert expect in out["c03"]


def test_echo_change_names_its_keys(tmp_path, capsys):
    # a dropped config key shows as the one echo key removed, and still needs attention
    old = report("o", ROWS)
    old["experiment"]["margin"] = 1.0
    new = report("o", ROWS)
    new["experiment"]["seed"] = 6
    new["experiment"]["forcing"] = None
    status, out = run(
        tmp_path, capsys, {"c10": old, "c11": old}, {"c10": report("o", ROWS), "c11": new}
    )
    assert status == 1
    assert out["c10"] == (
        "tables within 1e-12; experiment echo changed: margin removed; verdicts unchanged"
    )
    assert "experiment echo changed: forcing added, margin removed, seed changed;" in out["c11"]


def test_report_on_one_side_only(tmp_path, capsys):
    status, out = run(
        tmp_path, capsys, {"c01": report("o", ROWS), "c02": report("o", ROWS)},
        {"c01": report("o", ROWS)},
    )
    assert status == 1
    assert out["c01"] == "identical"
    assert out["c02"] == f"only in {tmp_path / 'old'}"
