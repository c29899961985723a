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
The exit status is the largest one of the runs: 0 if every verdict passed,
1 if one failed, 2 if a config could not be run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = "usage: python3 tools/fixed_clock_reports.py OUT_DIR [CONFIG ...]"


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
    from cylinderlab.cli import main as lab

    status = 0
    for config in configs:
        try:
            kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{config}: cannot read its kind: {exc}", file=sys.stderr)
            status = 2
            continue
        print(f"== {config.stem}", flush=True)
        out = str(out_dir / config.stem)
        try:
            code = lab([str(kind), "--config", str(config), "--out", out, "--fixed-clock"])
        except SystemExit as exc:  # the command line rejected the declared kind
            code = 2
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
