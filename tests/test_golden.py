"""Pinned outputs: the CLI's text and JSON must stay byte-identical.

Each single-object command on c7 or fig1 has its exact standard output in
``golden/<name>.txt``, where the name is the argument list joined by "_" with
leading dashes dropped.  Larger outputs are pinned by their sha256 in
``golden/sha256.json``: the ``betti --json`` payloads of the three large
instances, the ND-JSON of three ``verify all`` sweeps with the ``millis``
timings removed from every report, and the graph6 lines (one per graph, in
order) of the largest exhaustive, tree and forest families.  Each sweep runs
once per session (``conftest.py``).  The exhaustive-8 sweep takes minutes, so
its digest (under ``slow_ndjson_without_millis``) is checked only when
``SQFPOWERS_SLOW=1`` is set.

To refresh a pinned output after an intended change, write the new standard
output (or digest) of the same arguments into its file.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sqfpowers.cli import main
from sqfpowers.families import resolve_family
from sqfpowers.graphs import to_graph6

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "sha256.json").read_text())

SINGLE_OBJECT = [
    ["invariants", "c7"],
    ["invariants", "c7", "--json"],
    ["invariants", "fig1"],
    ["invariants", "fig1", "--json"],
    ["power", "c7", "-k", "2"],
    ["power", "c7", "-k", "2", "--json"],
    ["power", "fig1", "-k", "3"],
    ["power", "fig1", "-k", "3", "--json"],
    ["betti", "c7", "-k", "2"],
    ["betti", "c7", "-k", "2", "--json"],
    ["betti", "c7", "-k", "5"],
    ["betti", "c7", "-k", "5", "--json"],
    ["betti", "fig1", "-k", "3"],
    ["betti", "fig1", "-k", "3", "--json"],
    ["linrel", "c7", "-k", "2", "--method", "both"],
    ["linrel", "c7", "-k", "2", "--method", "both", "--json"],
    ["linrel", "fig1", "-k", "2", "--method", "both"],
    ["linrel", "fig1", "-k", "2", "--method", "both", "--json"],
    ["linquot", "c7", "-k", "2"],
    ["linquot", "c7", "-k", "2", "--json"],
    ["linquot", "fig1", "-k", "2"],
    ["linquot", "fig1", "-k", "4", "--json"],
    ["lambda", "c7"],
    ["lambda", "fig1", "--json"],
    ["colon", "c7", "-k", "2", "-l", "1"],
    ["colon", "c7", "-k", "2", "-l", "1", "--json"],
    ["colon", "c7", "-k", "2", "--edge", "1", "2"],
    ["colon", "fig1", "-k", "2", "--edge", "3", "4", "--json"],
    ["classify", "fig1"],
    ["classify", "fig1", "--json"],
]


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def golden_name(argv: list[str]) -> str:
    return "_".join(arg.lstrip("-") for arg in argv) + ".txt"


@pytest.mark.parametrize("argv", SINGLE_OBJECT, ids=" ".join)
def test_single_object_output(argv):
    assert run(argv) == (GOLDEN / golden_name(argv)).read_text()


@pytest.mark.parametrize("args", sorted(DIGESTS["stdout"]))
def test_large_betti_payload_digest(args):
    out = run(args.split())
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["stdout"][args]


def ndjson_without_millis(path: Path) -> bytes:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        del row["millis"]
    return b"".join(json.dumps(row, sort_keys=True).encode() + b"\n" for row in rows)


SWEEP_DIGESTS = {**DIGESTS["ndjson_without_millis"], **DIGESTS["slow_ndjson_without_millis"]}


@pytest.mark.parametrize(
    "args",
    [
        *sorted(DIGESTS["ndjson_without_millis"]),
        *(
            pytest.param(args, marks=pytest.mark.slow)
            for args in sorted(DIGESTS["slow_ndjson_without_millis"])
        ),
    ],
)
def test_sweep_ndjson_digest(args, sweep):
    nd = sweep(args).ndjson
    digest = hashlib.sha256(ndjson_without_millis(nd)).hexdigest()
    assert digest == SWEEP_DIGESTS[args], (
        f"the reports of {args!r} changed; they are kept in {nd}. To list "
        f"each change, write the same sweep at the parent commit (OLD) and "
        f"run: python tests/sweep_diff.py OLD {nd}"
    )


@pytest.mark.parametrize("spec", sorted(DIGESTS["family_graph6"]))
def test_family_listing_digest(spec):
    text = "".join(to_graph6(G) + "\n" for G in resolve_family(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS["family_graph6"][spec]
