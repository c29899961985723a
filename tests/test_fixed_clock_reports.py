"""tools/fixed_clock_reports.py on the demo config."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fixed_clock_reports = load_script("fixed_clock_reports")
report_diff = load_script("report_diff")


def test_reports_land_where_report_diff_reads_them(tmp_path, capsys, configs_dir):
    demo = configs_dir / "demo-solve.json"
    for side in ("old", "new"):
        assert fixed_clock_reports.main([str(tmp_path / side), str(demo)]) == 0
    report = json.loads((tmp_path / "old" / "demo-solve" / "report.json").read_text())
    assert report["wall_clock"] == 0.0
    # the measured wall time lands beside the fixed-clock reports
    walls = json.loads((tmp_path / "old" / "walls.json").read_text())
    assert list(walls) == ["demo-solve"] and walls["demo-solve"] > 0.0
    # and the process's peak memory in MiB after each config
    rss = json.loads((tmp_path / "old" / "rss.json").read_text())
    assert list(rss) == ["demo-solve"] and 1.0 < rss["demo-solve"] < 1e5
    # and the cold start: the import's seconds and the scipy subpackages it loaded
    imports = json.loads((tmp_path / "old" / "import.json").read_text())
    assert (
        list(imports) == ["import_s", "scipy"] and imports["import_s"] >= 0.0
        and "scipy.linalg" in imports["scipy"] and imports["scipy"] == sorted(imports["scipy"])
    )
    assert report["experiment"]["out_dir"] == str(tmp_path / "old" / "demo-solve")
    assert all(v["pass"] for v in report["verdicts"])
    capsys.readouterr()
    assert report_diff.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out == "demo-solve: identical\n"


def test_every_shipped_config_by_default(tmp_path, monkeypatch, capsys):
    # without configs the tool runs configs/*.json, each into OUT_DIR/<name>
    runs = []

    def lab(argv):
        runs.append(argv)
        return 1 if "c02-modal-decay" in argv[2] else 0

    monkeypatch.setattr("cylinderlab.cli.main", lab)
    assert fixed_clock_reports.main([str(tmp_path)]) == 1
    shipped = sorted((TOOLS.parent / "configs").glob("*.json"))
    assert len(runs) == len(shipped) > 1
    for argv, config in zip(runs, shipped):
        kind = json.loads(config.read_text())["kind"]
        assert argv == [kind, "--config", str(config), "--out", str(tmp_path / config.stem),
                        "--fixed-clock"]
    walls = json.loads((tmp_path / "walls.json").read_text())
    assert list(walls) == [config.stem for config in shipped]
    # the peak after each config, in run order, never falls
    rss = list(json.loads((tmp_path / "rss.json").read_text()).items())
    assert [name for name, _ in rss] == list(walls)
    assert all(0.0 < a <= b for (_, a), (_, b) in zip(rss, rss[1:]))


PRELOAD_SCRIPT = """
import importlib.util, json, sys
import cylinderlab.cli

spec = importlib.util.spec_from_file_location("tool", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
seen = []

def lab(argv):
    seen.append(sorted(name for name in tool.PRELOAD if name in sys.modules))
    return 0

cylinderlab.cli.main = lab
code = tool.main([sys.argv[2], sys.argv[3]])
print(json.dumps({"code": code, "seen": seen, "preload": sorted(tool.PRELOAD)}))
"""


def test_scipy_preload_follows_the_import_record(tmp_path, configs_dir):
    # in a fresh interpreter: import.json lists what the import alone loaded,
    # and every deferred subpackage is loaded before the first timed config
    env = dict(os.environ)
    src = str(TOOLS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELOAD_SCRIPT, str(TOOLS / "fixed_clock_reports.py"),
         str(tmp_path), str(configs_dir / "demo-solve.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["code"] == 0 and seen["seen"] == [seen["preload"]]
    imports = json.loads((tmp_path / "import.json").read_text())
    assert list(imports) == ["import_s", "scipy"] and "scipy.linalg" in imports["scipy"]
    deferred = {".".join(name.split(".")[:2]) for name in seen["preload"]}
    assert deferred == {"scipy.sparse", "scipy.spatial"}
    assert not deferred & set(imports["scipy"])
