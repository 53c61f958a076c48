"""One-line mutants of the library, each run against the tests that must see it.

Run from any directory, with the test extra installed:

    python tests/mutation_probe.py            # every mutant
    python tests/mutation_probe.py --list     # name, file and expected status
    python tests/mutation_probe.py NAME ...   # only the named mutants

Each mutant replaces one fragment, which must occur exactly once, of one file
under ``src``.  It is applied to a fresh copy of ``src``, ``tests`` and
``pyproject.toml`` in a temporary directory, and ``pytest -x`` runs its named
tests there in a child process with a hard timeout; the repository itself is
never edited.  A failing test or a timeout (the whole process group is
killed) makes the mutant ``caught``; passing tests make it ``survived``.  Each
mutant names its expected status: ``caught``, or ``equivalent`` for a mutant
that changes no result and so must survive.  The unmutated copy runs the named
tests first, and they must pass.  The exit status is 0 when every mutant gets
its expected status.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

SUPPORT_ORACLE = (
    "tests/test_edge_ideals.py::"
    "test_supports_and_degree_hypothesis_match_the_matching_enumerator"
)
# the pinned ND-JSON of the whole registry on every graph with n <= 7
EXHAUSTIVE_7_DIGEST = (
    "tests/test_golden.py::"
    "test_sweep_ndjson_digest[verify all --family exhaustive-7 --jobs 2]"
)


class Mutant(NamedTuple):
    name: str
    file: str  # under src/sqfpowers
    old: str
    new: str
    tests: tuple[str, ...]
    expected: str  # "caught" | "equivalent"
    timeout_s: float = 120.0


MUTANTS = (
    Mutant(
        "hypothesis-avoids-both-ends",
        "edge_ideals.py",
        "u & ab != ab and u & near",
        "not u & ab and u & near",
        (SUPPORT_ORACLE,),
        "caught",
    ),
    Mutant(
        "hypothesis-drops-n(b)",
        "edge_ideals.py",
        "near = G.adjacency[a] | G.adjacency[b]",
        "near = G.adjacency[a]",
        (SUPPORT_ORACLE,),
        "caught",
    ),
    Mutant(
        "support-walk-bound-off-by-one",
        "edge_ideals.py",
        "range(start, m - need + 1)",
        "range(start, m - need)",
        (SUPPORT_ORACLE,),
        "caught",
    ),
    # The next four break a theorem check of the registry on some graph with
    # n <= 7; the exhaustive-7 digest, the only Tier-1 test that runs these
    # checks over all such graphs, must see each.
    Mutant(
        "colon-graph-adds-loops",
        "edge_ideals.py",
        "if c != d and c not in ends and d not in ends:",
        "if c not in ends and d not in ends:",
        (EXHAUSTIVE_7_DIGEST,),
        "caught",
    ),
    Mutant(
        "l-shape-matches-through-c",
        "edge_ideals.py",
        "set(G.vertices) - {a, b, c}",
        "set(G.vertices) - {a, b}",
        (EXHAUSTIVE_7_DIGEST,),
        "caught",
    ),
    Mutant(
        "restricted-nu-ignores-the-gap",
        "matchings.py",
        "_nu(adj, full & ~_closed_edge_mask(G, e))",
        "_nu(adj, full)",
        (EXHAUSTIVE_7_DIGEST,),
        "caught",
    ),
    # swapped, the colon I^[l] : I^[k] is the unit ideal for l < k, so every
    # Ratliff verdict of an equimatchable graph with nu >= 2 turns False
    Mutant(
        "ratliff-colon-arguments-swapped",
        "ideals.py",
        "colon_ideal(Ik, Il) == Ik",
        "colon_ideal(Il, Ik) == Ik",
        (EXHAUSTIVE_7_DIGEST,),
        "caught",
    ),
    # a stored pivot whose low entry is not 1 never clears that entry from
    # the column it reduces, so the reduction loops: caught by the timeout
    Mutant(
        "reduce-unscaled-pivot",
        "betti.py",
        "if col[low] != 1:",
        "if False:",
        ("tests/test_betti.py::test_gf_rank_against_reference",),
        "caught",
        timeout_s=60.0,
    ),
    # the walk asks only about divisors of m, which no generator outside m
    # divides, so the filter changes the speed and no answer
    Mutant(
        "dividing-generators-keep-every-meeting-generator",
        "betti.py",
        "[g for g in gens if g & m == g]",
        "[g for g in gens if g & m]",
        (
            "tests/test_betti.py::test_table_faces_match_generator_scan",
            "tests/test_betti.py::test_scan_above_table_limit_matches_taylor_oracle",
        ),
        "equivalent",
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(dest: Path, mutant: Mutant) -> None:
    path = dest / "src" / "sqfpowers" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _run_tests(dest: Path, tests: tuple[str, ...], timeout_s: float) -> tuple[str, float, str]:
    """("passed" | "failed" | "timed out", seconds, the output's tail)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=dest,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
        verdict = "passed" if proc.returncode == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        verdict = "timed out"
    tail = "\n".join(out.strip().splitlines()[-5:])
    return verdict, time.monotonic() - start, tail


def probe(mutant: Mutant) -> bool:
    """Run one mutant; print its line and return whether it got its expected status."""
    with tempfile.TemporaryDirectory(prefix="sqfpowers-mutant-") as tmp:
        dest = Path(tmp)
        _copy_tree(dest)
        verdict, seconds, tail = _run_tests(dest, mutant.tests, mutant.timeout_s)
        if verdict != "passed":
            print(f"{mutant.name}: its tests do not pass unmutated ({verdict})\n{tail}")
            return False
        _apply(dest, mutant)
        verdict, seconds, tail = _run_tests(dest, mutant.tests, mutant.timeout_s)
    status = "survived" if verdict == "passed" else "caught"
    ok = (status == "caught") == (mutant.expected == "caught")
    mark = "ok" if ok else "UNEXPECTED"
    print(f"{mutant.name:50} {mutant.expected:10} {status} ({verdict}, {seconds:.1f} s) {mark}")
    if not ok:
        print(tail)
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name:50} {m.file:15} {m.expected}")
        return 0
    results = [probe(m) for m in chosen]
    print(f"{sum(results)} of {len(results)} mutants got their expected status")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
