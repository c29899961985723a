"""Compare two directories of cylinderlab reports, config by config.

    python3 tools/report_diff.py OLD_DIR NEW_DIR

Each directory holds one report.json per config, at any depth, as
`lab <kind> --config <file> --out DIR/<name> --fixed-clock` writes them; a
report is matched with the one at the same relative path on the other side.
For each config one line is printed:

* "identical" when the two reports agree once the experiment's out_dir is
  masked (compared as canonical JSON text, so even -0.0 and 0.0 differ);
* otherwise the largest relative table difference above 1e-12, with its
  table, row and column, and whether any verdict changed.

Relative differences are |a - b| / max(|a|, |b|) over numeric cells and
rate-fit entries.  A changed experiment echo (with each top-level key that
was added, removed or changed), a changed non-numeric cell and a table
that changed shape are named as well.  The exit status is 1 if
any of those or a verdict changed, or if a report exists on one side only,
and 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REL_FLOOR = 1e-12
USAGE = "usage: python3 tools/report_diff.py OLD_DIR NEW_DIR"


def load_reports(root: Path) -> dict:
    """{relative directory: report dict with experiment.out_dir masked}."""
    reports = {}
    for path in sorted(root.rglob("report.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        report.get("experiment", {}).pop("out_dir", None)
        reports[path.parent.relative_to(root).as_posix() or "."] = report
    return reports


def _rel(a, b) -> float | None:
    """Relative difference of two numeric cells; None if either is not a number."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return None
    scale = max(abs(a), abs(b))
    return 0.0 if a == b else abs(a - b) / scale


def compare(old: dict, new: dict) -> tuple[str, bool]:
    """(one-line summary, whether the pair needs attention)."""
    if json.dumps(old, sort_keys=True) == json.dumps(new, sort_keys=True):
        return "identical", False
    notes = []
    echo_a, echo_b = old.get("experiment", {}), new.get("experiment", {})
    echo = [
        f"{key} {'added' if key not in echo_a else 'removed' if key not in echo_b else 'changed'}"
        for key in sorted(echo_a.keys() | echo_b.keys())
        if key not in echo_a or key not in echo_b or echo_a[key] != echo_b[key]
    ]
    if echo:
        notes.append("experiment echo changed: " + ", ".join(echo))
    worst = (0.0, "")
    old_tables = {t["name"]: t for t in old.get("tables", [])}
    new_tables = {t["name"]: t for t in new.get("tables", [])}
    for name in sorted(old_tables.keys() ^ new_tables.keys()):
        notes.append(f"table {name} on one side only")
    for name in sorted(old_tables.keys() & new_tables.keys()):
        a, b = old_tables[name], new_tables[name]
        if a["columns"] != b["columns"] or len(a["rows"]) != len(b["rows"]):
            notes.append(f"table {name} changed shape")
            continue
        cells = [
            (f"{name}[{i}].{col}", x, y)
            for i, (ra, rb) in enumerate(zip(a["rows"], b["rows"]))
            for col, x, y in zip(a["columns"], ra, rb)
        ]
        fa, fb = a.get("fit") or {}, b.get("fit") or {}
        cells += [
            (f"{name}.fit.{key}", fa.get(key), fb.get(key)) for key in sorted(fa.keys() | fb.keys())
        ]
        for where, x, y in cells:
            rel = _rel(x, y)
            if rel is None:
                if x != y:
                    notes.append(f"{where} changed: {x!r} -> {y!r}")
            elif rel > worst[0]:
                worst = (rel, where)
    flips = [
        f"{va['name']} {'pass' if va['pass'] else 'FAIL'} -> {'pass' if vb['pass'] else 'FAIL'}"
        for va, vb in zip(old.get("verdicts", []), new.get("verdicts", []))
        if va["pass"] != vb["pass"] or va["name"] != vb["name"]
    ]
    if len(old.get("verdicts", [])) != len(new.get("verdicts", [])):
        flips.append("verdict count changed")
    if worst[0] > REL_FLOOR:
        parts = [f"max rel diff {worst[0]:.2e} in {worst[1]}"]
    else:
        parts = [f"tables within {REL_FLOOR:g}"]
    parts += notes
    parts.append("verdicts changed: " + ", ".join(flips) if flips else "verdicts unchanged")
    return "; ".join(parts), bool(flips or notes)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    old, new = (load_reports(Path(a)) for a in args)
    status = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in new or key not in old:
            print(f"{key}: only in {args[0] if key in old else args[1]}")
            status = 1
            continue
        line, bad = compare(old[key], new[key])
        print(f"{key}: {line}")
        status |= bad
    return status


if __name__ == "__main__":
    sys.exit(main())
