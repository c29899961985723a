"""Write the --fixed-clock report of each config, in the report_diff layout.

    python3 tools/fixed_clock_reports.py OUT_DIR [CONFIG ...]

Runs every config given, or every shipped config (configs/*.json) when none
is, as `lab <kind> --config <file> --out OUT_DIR/<name> --fixed-clock` would,
where <name> is the config's file name without .json and <kind> the kind it
declares.  Two such directories, one per commit, are what

    python3 tools/report_diff.py OLD_DIR NEW_DIR

compares.  The configs run one after another in this process, with the
package imported from the src/ directory next to this script; like `lab`,
the runs read OPENBLAS_NUM_THREADS from the environment.
The reports are fixed-clock, so the tool also writes OUT_DIR/walls.json:
each config's name and the wall seconds its run took in this process.
OUT_DIR/import.json holds the cold start: import_s, the seconds the
package's command line took to import, and scipy, the sorted public scipy
subpackages loaded right after that import.  The scipy subpackages the
package imports on first use (PRELOAD) are then imported before the first
timed config, so no config's wall carries them and the walls do not depend
on run order.
The exit status is the largest one of the runs: 0 if every verdict passed,
1 if one failed, 2 if a config could not be run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = "usage: python3 tools/fixed_clock_reports.py OUT_DIR [CONFIG ...]"
PRELOAD = ("scipy.sparse.linalg", "scipy.fft", "scipy.spatial.distance")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print(USAGE, file=sys.stderr)
        return 2
    out_dir = Path(args[0])
    configs = [Path(a) for a in args[1:]] or sorted((ROOT / "configs").glob("*.json"))
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    start = time.perf_counter()
    from cylinderlab.cli import main as lab

    imports = {
        "import_s": time.perf_counter() - start,
        "scipy": sorted(
            name for name, module in list(sys.modules.items())
            if name.startswith("scipy.") and name.count(".") == 1
            and not name.startswith("scipy._") and hasattr(module, "__path__")
        ),
    }
    for name in PRELOAD:
        importlib.import_module(name)
    status, walls = 0, {}
    for config in configs:
        try:
            kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{config}: cannot read its kind: {exc}", file=sys.stderr)
            status = 2
            continue
        print(f"== {config.stem}", flush=True)
        out = str(out_dir / config.stem)
        start = time.perf_counter()
        try:
            code = lab([str(kind), "--config", str(config), "--out", out, "--fixed-clock"])
        except SystemExit as exc:  # the command line rejected the declared kind
            code = 2
        walls[config.stem] = time.perf_counter() - start
        status = max(status, code)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "walls.json").write_text(json.dumps(walls, indent=2) + "\n", encoding="utf-8")
    (out_dir / "import.json").write_text(json.dumps(imports, indent=2) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
