"""Compare two ND-JSON sweeps of ``sqfpowers verify`` report by report.

    python tests/sweep_diff.py OLD.ndjson NEW.ndjson

Each report is keyed by (check, instance) and compared without ``millis``.
The script prints how many reports of each check went from one outcome to
another, then every (check, instance) whose reports differ; a report that
only one side has is ``absent`` on the other.  It exits 1 when anything
differs and 0 when the sweeps agree.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

ABSENT = "absent"


def load(path: str) -> dict[tuple[str, str], list[dict]]:
    """The reports of an ND-JSON file without ``millis``, by (check, instance)."""
    reports: dict[tuple[str, str], list[dict]] = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            if line.strip():
                report = json.loads(line)
                report.pop("millis", None)
                reports.setdefault((report["check"], report["instance"]), []).append(report)
    return reports


def _outcome(reports: list[dict] | None) -> str:
    return ",".join(r["outcome"] for r in reports) if reports else ABSENT


def _shown(reports: list[dict] | None) -> str:
    """The reports without the (check, instance) they are listed under."""
    if not reports:
        return ABSENT
    rest = [{k: v for k, v in r.items() if k not in ("check", "instance")} for r in reports]
    return json.dumps(rest[0] if len(rest) == 1 else rest, sort_keys=True)


def diff(
    old: dict[tuple[str, str], list[dict]], new: dict[tuple[str, str], list[dict]]
) -> tuple[Counter, list[tuple[tuple[str, str], list[dict] | None, list[dict] | None]]]:
    """The (check, old outcome, new outcome) counts, and each differing key."""
    transitions: Counter = Counter()
    changed = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a != b:
            transitions[key[0], _outcome(a), _outcome(b)] += 1
            changed.append((key, a, b))
    return transitions, changed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: sweep_diff.py OLD.ndjson NEW.ndjson", file=sys.stderr)
        return 2
    transitions, changed = diff(load(args[0]), load(args[1]))
    for (check, before, after), count in sorted(transitions.items()):
        print(f"{count:8d}  {check}: {before} -> {after}")
    for (check, instance), a, b in changed:
        print(f"{check} {instance}: {_shown(a)} -> {_shown(b)}")
    print(f"{len(changed)} (check, instance) keys differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
