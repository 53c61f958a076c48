"""End-to-end tests for the command-line interface.

Each subcommand is driven through ``main(argv)`` with captured output.  Every
JSON payload is validated against the shipped output schema, pinned text
outputs are compared byte for byte, and the exit-code contract is exercised:
0 for success, 1 when a theorem check fails, 2 for bad input.  The declared
console entry point is also launched in a fresh interpreter, so that the exit
code of ``main`` is seen as a process exit status.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.metadata
import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import sqfpowers
from sqfpowers import cli
from sqfpowers.checks import CHECKS, Check, CheckReport
from sqfpowers.cli import main
from sqfpowers.defaults import DEFAULT_CHARACTERISTIC
from sqfpowers.edge_ideals import sqfree_power_via_matchings
from sqfpowers.graphs import complete_graph, path_graph, to_graph6
from sqfpowers.memo import BudgetExceeded

SCHEMA = json.loads(
    resources.files("sqfpowers").joinpath("schemas/output.schema.json").read_text()
)

GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parents[1]

P2 = "g6:A_"
P4 = "g6:Ch"
P6 = "g6:EhCG"
TWO_K2 = "g6:C`"


def run(argv: list[str]) -> tuple[int, str, str]:
    """Invoke main() with captured stdout/stderr -> (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv: list[str]) -> dict:
    """Run with --json appended, parse stdout, validate against the schema."""
    code, out, err = run(argv + ["--json"])
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


# ---------------------------------------------------------------------------
# the parser: every subcommand with every option set, and on its defaults

_PARSED = [
    (
        ["invariants", "c7", "--json"],
        {"subcommand": "invariants", "graph": "c7", "json": True,
         "func": "cmd_invariants"},
    ),
    (
        ["invariants", "c7"],
        {"subcommand": "invariants", "graph": "c7", "json": False,
         "func": "cmd_invariants"},
    ),
    (
        ["power", "c7", "-k", "3", "--json"],
        {"subcommand": "power", "graph": "c7", "k": 3, "json": True,
         "func": "cmd_power"},
    ),
    (
        ["power", "c7", "-k", "2"],
        {"subcommand": "power", "graph": "c7", "k": 2, "json": False,
         "func": "cmd_power"},
    ),
    (
        ["betti", "c7", "-k", "2", "--ideal", "I.txt", "--char", "5", "--json"],
        {"subcommand": "betti", "graph": "c7", "k": 2, "ideal": "I.txt",
         "char": 5, "json": True, "func": "cmd_betti"},
    ),
    (
        ["betti"],
        {"subcommand": "betti", "graph": None, "k": 1, "ideal": None,
         "char": 32003, "json": False, "func": "cmd_betti"},
    ),
    (
        ["linrel", "c7", "-k", "2", "--ideal", "-", "--char", "7",
         "--method", "both", "--json"],
        {"subcommand": "linrel", "graph": "c7", "k": 2, "ideal": "-", "char": 7,
         "method": "both", "json": True, "func": "cmd_linrel"},
    ),
    (
        ["linrel"],
        {"subcommand": "linrel", "graph": None, "k": 1, "ideal": None,
         "char": 32003, "method": "combinatorial", "json": False,
         "func": "cmd_linrel"},
    ),
    (
        ["linquot", "c7", "-k", "3", "--ideal", "I.txt", "--node-budget", "9",
         "--time-budget", "1.5", "--json"],
        {"subcommand": "linquot", "graph": "c7", "k": 3, "ideal": "I.txt",
         "node_budget": 9, "time_budget": 1.5, "json": True,
         "func": "cmd_linquot"},
    ),
    (
        ["linquot"],
        {"subcommand": "linquot", "graph": None, "k": 1, "ideal": None,
         "node_budget": 10_000_000, "time_budget": None, "json": False,
         "func": "cmd_linquot"},
    ),
    (
        ["lambda", "fig1", "--json"],
        {"subcommand": "lambda", "graph": "fig1", "json": True,
         "func": "cmd_lambda"},
    ),
    (
        ["lambda", "fig1"],
        {"subcommand": "lambda", "graph": "fig1", "json": False,
         "func": "cmd_lambda"},
    ),
    (
        ["colon", "c7", "-k", "3", "-l", "1", "-e", "1", "2", "--json"],
        {"subcommand": "colon", "graph": "c7", "k": 3, "l": 1, "edge": [1, 2],
         "json": True, "func": "cmd_colon"},
    ),
    (
        ["colon", "c7", "--edge", "2", "3"],
        {"subcommand": "colon", "graph": "c7", "k": 2, "l": None, "edge": [2, 3],
         "json": False, "func": "cmd_colon"},
    ),
    (
        ["colon", "c7"],
        {"subcommand": "colon", "graph": "c7", "k": 2, "l": None, "edge": None,
         "json": False, "func": "cmd_colon"},
    ),
    (
        ["classify", "fig1", "--json"],
        {"subcommand": "classify", "graph": "fig1", "json": True,
         "func": "cmd_classify"},
    ),
    (
        ["classify", "fig1"],
        {"subcommand": "classify", "graph": "fig1", "json": False,
         "func": "cmd_classify"},
    ),
    (
        ["verify", "nu0-lambda,matching-chain", "--family", "exhaustive-3",
         "--list", "--jobs", "2", "--seed", "11", "--char", "3",
         "--node-budget", "4", "--time-budget", "0", "--random-ideals", "6",
         "--random-graphs", "7", "--ndjson", "out.ndjson", "--json"],
        {"subcommand": "verify", "checks": "nu0-lambda,matching-chain",
         "family": "exhaustive-3", "list": True, "jobs": 2, "seed": 11,
         "char": 3, "node_budget": 4, "time_budget": 0.0, "random_ideals": 6,
         "random_graphs": 7, "ndjson": "out.ndjson", "json": True,
         "func": "cmd_verify"},
    ),
    (
        ["verify"],
        {"subcommand": "verify", "checks": "all", "family": None, "list": False,
         "jobs": 1, "seed": 0x5EED5EED5EED5EED, "char": 32003, "node_budget": 10_000_000,
         "time_budget": None, "random_ideals": 500, "random_graphs": 1000,
         "ndjson": None, "json": False, "func": "cmd_verify"},
    ),
]


@pytest.mark.parametrize(
    "argv, expected", _PARSED, ids=[" ".join(argv) for argv, _ in _PARSED]
)
def test_parser_namespaces(argv, expected):
    parsed = vars(cli.build_parser().parse_args(argv))
    parsed["func"] = parsed["func"].__name__
    assert parsed == expected


def test_every_subcommand_is_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv, _ in _PARSED} == set(sub.choices)


# ---------------------------------------------------------------------------
# invariants

def test_invariants_text_c7():
    code, out, err = run(["invariants", "c7"])
    assert code == 0 and err == ""
    assert out == (
        "graph6: FhCKG\n"
        "n: 7\n"
        "edge_count: 7\n"
        "nu: 3\n"
        "nu1: 2\n"
        "nu0: 2\n"
        "equimatchable: True\n"
        "has_perfect_matching: False\n"
        "gap_free: False\n"
        "is_forest: False\n"
        "is_tree: False\n"
        "is_chordal: False\n"
        "complement_chordal: False\n"
    )


@pytest.mark.parametrize(
    "name, nu, nu1, nu0",
    [("c7", 3, 2, 2), ("fig1", 4, 2, 3), ("fig2", 4, 2, 3)],
)
def test_invariants_json_builtins(name, nu, nu1, nu0):
    payload = run_json(["invariants", name])
    assert payload["command"] == "invariants"
    assert (payload["nu"], payload["nu1"], payload["nu0"]) == (nu, nu1, nu0)


# ---------------------------------------------------------------------------
# graph argument forms

def test_graph_spec_forms_agree(tmp_path, monkeypatch):
    g6_file = tmp_path / "c7.g6"
    g6_file.write_text("FhCKG\n")
    edges_file = tmp_path / "c7.edges"
    edges_file.write_text("n 7\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n1 7\n")
    payloads = [
        run_json(["invariants", spec])
        for spec in ("c7", "builtin:c7", "g6:FhCKG", str(g6_file), str(edges_file))
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO("FhCKG\n"))
    payloads.append(run_json(["invariants", "-"]))
    assert all(p == payloads[0] for p in payloads[1:])


def test_graph_spec_errors(tmp_path):
    two = tmp_path / "two.g6"
    two.write_text("A_\nA?\n")
    # g6:A_zzzz runs past the body of the one-edge graph; g6:A` sets a padding bit
    for spec in ("/nonexistent/file.g6", "builtin:nope", str(two), "g6:C", "g6:A_zzzz",
                 "g6:A`"):
        code, out, err = run(["invariants", spec])
        assert code == 2, spec
        assert out == "" and err.startswith("error:")
    code, _, err = run(["invariants", str(two)])
    assert code == 2 and "2 graphs" in err


# ---------------------------------------------------------------------------
# power

def test_power_text():
    code, out, _ = run(["power", P4, "-k", "2"])
    assert code == 0 and out == "n 4\n1 2 3 4\n"
    code, out, _ = run(["power", P4, "-k", "3"])  # above nu: zero ideal
    assert code == 0 and out == "n 4\n"


def test_power_json():
    payload = run_json(["power", "c7", "-k", "2"])
    assert payload["zero"] is False
    assert payload["generator_count"] == 14 == len(payload["generators"])
    assert all(len(g) == 4 for g in payload["generators"])
    assert payload["nu"] == 3
    payload = run_json(["power", "c7", "-k", "4"])
    assert payload["zero"] is True and payload["generators"] == []


# ---------------------------------------------------------------------------
# betti

def test_betti_text_fig1_cubed():
    code, out, _ = run(["betti", "fig1", "-k", "3"])
    assert code == 0
    assert out == (
        "       0   1  2\n"
        "  6:  14  19  6\n"
        "  7:   -   1  1\n"
        "Tot:  14  20  7\n"
        "\n"
        "regularity: 7\n"
        "projective dimension: 2\n"
        "linear resolution: False\n"
        "linearly related: False\n"
    )


def test_betti_text_zero_ideal():
    code, out, _ = run(["betti", P4, "-k", "3"])
    assert code == 0
    assert out == (
        "(zero ideal: empty Betti diagram, regularity 1 by convention)\n"
        "\n"
        "regularity: 1\n"
        "projective dimension: None\n"
        "linear resolution: True\n"
        "linearly related: True\n"
    )


def test_betti_json_c7_squared():
    payload = run_json(["betti", "c7", "-k", "2"])
    assert payload["characteristic"] == 32003  # default
    assert payload["generator_degree"] == 4
    assert payload["graded"] == [[0, 4, 14], [1, 5, 21], [2, 6, 7], [2, 7, 1]]
    assert payload["regularity"] == 5
    assert payload["projective_dimension"] == 2
    assert payload["linear_resolution"] is False
    assert payload["linearly_related"] is True
    # the graded table must be the degree-wise aggregation of the entries
    aggregated: dict[tuple[int, int], int] = {}
    for i, m, v in payload["entries"]:
        key = (i, len(m))
        aggregated[key] = aggregated.get(key, 0) + v
    assert sorted([i, j, v] for (i, j), v in aggregated.items()) == payload["graded"]


def test_betti_char_option():
    payload = run_json(["betti", P4, "--char", "2"])
    assert payload["characteristic"] == 2
    assert payload["linear_resolution"] is True  # path edge ideal, k = 1


def test_betti_from_ideal_file(tmp_path, monkeypatch):
    path = tmp_path / "p3.ideal"
    path.write_text("n 3\n1 2\n2 3\n")
    payload = run_json(["betti", "--ideal", str(path)])
    assert payload["graded"] == [[0, 2, 2], [1, 3, 1]]
    monkeypatch.setattr(sys, "stdin", io.StringIO("n 3\n1 2\n2 3\n"))
    assert run_json(["betti", "--ideal", "-"]) == payload
    code, _, err = run(["betti"])
    assert code == 2 and "GRAPH argument or --ideal" in err


def test_betti_mixed_degrees(tmp_path):
    # (x1x2, x3): the table is defined, but neither linear nor linearly related
    path = tmp_path / "mixed.ideal"
    path.write_text("n 3\n1 2\n3\n")
    code, out, err = run(["betti", "--ideal", str(path)])
    assert (code, err) == (0, "")
    assert out == (
        "      0  1\n"
        "  1:  1  -\n"
        "  2:  1  1\n"
        "Tot:  2  1\n"
        "\n"
        "regularity: 2\n"
        "projective dimension: 1\n"
        "linear resolution: False\n"
        "linearly related: False\n"
    )
    payload = run_json(["betti", "--ideal", str(path)])
    assert payload["generator_degree"] is None
    assert payload["entries"] == [[0, [1, 2], 1], [0, [3], 1], [1, [1, 2, 3], 1]]
    assert payload["linear_resolution"] is False
    assert payload["linearly_related"] is False
    for command in ("linrel", "linquot"):
        code, out, err = run([command, "--ideal", str(path)])
        assert code == 2 and out == "" and "mixed degrees (1, 2)" in err


def test_betti_rejects_a_repeated_variable(tmp_path):
    # the line "1 1" is x1 * x1, whose ideal (x1^2) is not squarefree
    path = tmp_path / "square.ideal"
    path.write_text("n 2\n1 1\n")
    code, out, err = run(["betti", "--ideal", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["betti", "linrel", "linquot"])
def test_a_graph_and_an_ideal_file_are_not_both_taken(tmp_path, command):
    path = tmp_path / "p3.ideal"
    path.write_text("n 3\n1 2\n2 3\n")
    code, out, err = run([command, "c7", "-k", "2", "--ideal", str(path)])
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", ["betti", "linrel", "linquot"])
def test_a_power_of_an_ideal_file_is_rejected(tmp_path, command):
    # -k powers a GRAPH argument; an ideal file is taken as it is
    path = tmp_path / "p4.ideal"
    path.write_text("n 4\n1 2\n2 3\n3 4\n")
    code, out, err = run([command, "-k", "2", "--ideal", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert run([command, "-k", "1", "--ideal", str(path)])[0] == 0


def test_betti_large_characteristic():
    _, want, _ = run(["betti", "c7", "-k", "2"])
    code, out, err = run(["betti", "c7", "-k", "2", "--char", str(2**61 - 1)])
    assert code == 0, err
    assert out == want
    code, _, err = run(["betti", "c7", "-k", "2", "--char", str(2**89 - 1)])
    assert code == 2 and "below 2^64" in err


@pytest.mark.parametrize("k", ["2", "5"])  # I(C7)^[5] is the zero ideal
def test_betti_rejects_a_bad_characteristic(k):
    for extra in ([], ["--json"]):
        code, out, err = run(["betti", "c7", "-k", k, "--char", "4", *extra])
        assert code == 2 and out == "", (k, extra)
        assert err == "error: characteristic 4 is not prime\n"


def test_betti_builds_one_table(monkeypatch):
    real = sqfpowers.betti.multigraded_betti
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("sqfpowers.betti.multigraded_betti", counted)
    for argv in (["betti", "c7", "-k", "2"], ["betti", "c7", "-k", "2", "--json"]):
        calls.clear()
        code, _, err = run(argv)
        assert code == 0, err
        assert len(calls) == 1, argv


class _CountingStdout(io.StringIO):
    """A captured standard output that counts its writes."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def test_betti_json_is_written_in_blocks():
    # I(P12)^[3] gives a 69 KB payload, several blocks of encoder chunks; a
    # write per chunk would be a system call each on an unbuffered stdout.
    G = path_graph(12)
    fields, _ = cli._betti_payload(
        sqfree_power_via_matchings(G, 3), DEFAULT_CHARACTERISTIC
    )
    payload = {"command": "betti", **fields}
    chunks = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload))
    assert chunks > cli._WRITE_BLOCK

    out = _CountingStdout()
    with redirect_stdout(out):
        code = main(["betti", "g6:" + to_graph6(G), "-k", "3", "--json"])
    assert code == 0
    assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert out.writes <= math.ceil(chunks / cli._WRITE_BLOCK) + 1


# ---------------------------------------------------------------------------
# linrel / linquot

def test_linrel_methods():
    payload = run_json(["linrel", "c7", "-k", "2"])
    assert payload["method"] == "combinatorial"
    assert payload["combinatorial"] is True and payload["homological"] is None
    assert payload["linearly_related"] is True and payload["agree"] is None

    payload = run_json(["linrel", "c7", "-k", "2", "--method", "homological"])
    assert payload["combinatorial"] is None and payload["homological"] is True

    payload = run_json(["linrel", "c7", "-k", "2", "--method", "both"])
    assert payload["agree"] is True

    code, out, _ = run(["linrel", "c7", "-k", "2", "--method", "both"])
    assert code == 0
    assert out == (
        "linearly related: True\n"
        "combinatorial: True\n"
        "homological (char 32003): True\n"
        "agree: True\n"
    )


def test_linrel_homological_rejects_a_bad_characteristic():
    for bad in ("4", "1"):
        code, out, err = run(["linrel", "c7", "-k", "2", "--method", "homological", "--char", bad])
        assert code == 2 and out == "" and "error:" in err, bad
    code, out, err = run(["linrel", "c7", "-k", "2", "--method", "homological"])
    assert code == 0, err
    assert out == "linearly related: True\n"


def test_linquot_statuses():
    payload = run_json(["linquot", "c7", "-k", "3"])
    assert payload["status"] == "found"
    assert len(payload["order"]) == 7
    assert all(len(g) == 6 for g in payload["order"])

    payload = run_json(["linquot", "c7", "-k", "2"])
    assert payload["status"] == "none" and payload["order"] is None
    assert payload["nodes"] > 0

    payload = run_json(["linquot", "c7", "-k", "2", "--node-budget", "1"])
    assert payload["status"] == "inconclusive" and payload["order"] is None

    code, out, _ = run(["linquot", "c7", "-k", "3"])
    assert code == 0
    assert out.startswith("status: found\nnodes explored: 7\norder: 1.2.3.4.5.6; ")


def test_linquot_certified_none():
    # the square of this 7-vertex graph is not linearly related, so it has no
    # linear quotients; the search alone runs past 10^7 nodes on it
    payload = run_json(["linquot", "g6:FtK}?", "-k", "2"])
    assert payload == {
        "command": "linquot",
        "status": "none",
        "nodes": 0,
        "order": None,
        "reason": "not linearly related",
    }
    code, out, _ = run(["linquot", "g6:FtK}?", "-k", "2"])
    assert code == 0
    assert out == "status: none\nnodes explored: 0\nreason: not linearly related\n"
    # only a certified "none" carries a reason
    for k in ("2", "3"):
        assert "reason" not in run_json(["linquot", "c7", "-k", k])


def test_zero_time_budget_is_spent():
    # 0 seconds is a budget that has run out, not the absence of a budget
    payload = run_json(["linquot", "c7", "-k", "2", "--time-budget", "0"])
    assert payload["status"] == "inconclusive" and payload["order"] is None
    payload = run_json(
        ["verify", "nu0-lambda", "--family", "exhaustive-4", "--time-budget", "0"]
    )
    assert payload["summary"] == {"nu0-lambda": {"inconclusive": 18}}


# bench/reference.gnp(48, 0.07, random.Random(3)), 78 edges: nu1 alone
# takes about 4 s on it
G48 = (
    "o??CCo???A???????_??????C????_AB@??????CO?_C?A?@@A?@?A?TG?G_??_?@?A??_@G?A?C_?G"
    "????@????GA@?@??????????O_?GG???@G??C?_??@?o????c?????H????????@?AC???OA?????_?"
    "??????G??c_A??C????Ia?CG?????AO"
)


@pytest.mark.parametrize(
    "graph, outcome",
    [
        (
            f"parse_graph6({G48!r})",
            "run_check_on_instance('matching-chain', G, CheckContext(time_budget_s=0.5))[0].outcome",
        ),
        ("complete_graph(14)", "spent(0.2, lambda: is_equimatchable(G))"),
        (
            "path_graph(22)",
            "run_check_on_instance('chordal-oracle', G, CheckContext(time_budget_s=0.3))[0].outcome",
        ),
    ],
    ids=["matching-chain-G48", "equimatchable-K14", "chordal-oracle-P22"],
)
def test_a_spent_budget_stops_an_exhaustive_search(tmp_path, graph, outcome):
    # in a child process with a hard timeout, so a search that ignores the
    # budget fails here in seconds, not at the job's time limit
    probe = (
        "import time\n"
        "from sqfpowers.checks import CheckContext, run_check_on_instance\n"
        "from sqfpowers.graphs import complete_graph, parse_graph6, path_graph\n"
        "from sqfpowers.matchings import is_equimatchable\n"
        "from sqfpowers.memo import BudgetExceeded, time_budget\n"
        "def spent(seconds, search):\n"
        "    try:\n"
        "        with time_budget(seconds):\n"
        "            search()\n"
        "    except BudgetExceeded:\n"
        "        return 'inconclusive'\n"
        "    return 'finished'\n"
        f"G = {graph}\n"
        "start = time.monotonic()\n"
        f"print({outcome}, time.monotonic() - start)\n"
    )
    proc = _run_fresh(["-c", probe], tmp_path, timeout=10)
    assert proc.returncode == 0, proc.stderr
    verdict, seconds = proc.stdout.split()
    assert verdict == "inconclusive" and float(seconds) < 1.5, proc.stdout


@pytest.mark.parametrize("budget", ["-1", "-0.5", "nan"])
def test_linquot_rejects_a_bad_time_budget(budget):
    code, out, err = run(["linquot", "c7", "-k", "2", "--time-budget", budget])
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("budget", ["-1", "-5"])
def test_linquot_rejects_a_negative_node_budget(budget):
    code, out, err = run(["linquot", "c7", "-k", "2", "--node-budget", budget])
    assert code == 2 and out == "" and err.startswith("error:")


# ---------------------------------------------------------------------------
# lambda

def test_lambda_command():
    payload = run_json(["lambda", "c7"])
    assert payload["lambda"] == 2 and payload["nu"] == 3 and payload["nu0"] == 2
    assert [row["linearly_related"] for row in payload["per_power"]] == [
        False,
        True,
        True,
    ]

    payload = run_json(["lambda", "fig1"])
    assert payload["lambda"] == 4 and payload["nu0"] == 3

    code, out, _ = run(["lambda", P4])
    assert code == 0
    assert out == (
        "lambda: 1\n"
        "nu: 2\n"
        "nu0: 1\n"
        "  k=1: linearly related = True\n"
        "  k=2: linearly related = True\n"
    )

    code, _, err = run(["lambda", "g6:A?"])  # edgeless graph
    assert code == 2 and "at least one edge" in err


# ---------------------------------------------------------------------------
# colon

def test_colon_power_mode():
    payload = run_json(["colon", "c7", "-k", "2", "-l", "1"])
    assert payload["l"] == 1 and payload["edge"] is None
    assert payload["equals_power"] is True
    assert len(payload["generators"]) == 14
    assert payload["colon_graph_edges"] is None
    assert payload["matches_derived_graph"] is None

    code, out, _ = run(["colon", "c7", "-k", "2", "-l", "1"])
    assert code == 0
    assert out.startswith("n 7\n1 2 3 4\n")
    assert out.endswith("# equals I(G)^[2]: True\n")

    payload = run_json(["colon", "c7", "-k", "3", "-l", "2"])
    assert payload["equals_power"] is True


def test_colon_edge_mode():
    payload = run_json(["colon", "c7", "-k", "2", "--edge", "1", "2"])
    assert payload["edge"] == [1, 2] and payload["l"] is None
    assert payload["generators"] == [[3, 4], [3, 7], [4, 5], [5, 6], [6, 7]]
    assert payload["colon_graph_edges"] == [[3, 4], [3, 7], [4, 5], [5, 6], [6, 7]]
    assert payload["matches_derived_graph"] is True
    assert payload["equals_power"] is None

    code, out, _ = run(["colon", "c7", "-k", "2", "--edge", "1", "2"])
    assert code == 0
    assert out == (
        "n 7\n"
        "3 4\n"
        "3 7\n"
        "4 5\n"
        "5 6\n"
        "6 7\n"
        "# derived graph edges: [[3, 4], [3, 7], [4, 5], [5, 6], [6, 7]]\n"
        "# matches derived graph: True\n"
    )

    # the derived-graph cross-check only applies at k = 2
    payload = run_json(["colon", "c7", "-k", "3", "--edge", "1", "2"])
    assert payload["colon_graph_edges"] is None
    assert payload["matches_derived_graph"] is None
    code, out, _ = run(["colon", "c7", "-k", "3", "--edge", "1", "2"])
    assert code == 0 and "# derived" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["colon", "c7", "-k", "2"],  # neither mode chosen
        ["colon", "c7", "-k", "2", "-l", "1", "--edge", "1", "2"],  # both modes
        ["colon", "c7", "-k", "2", "--edge", "1", "3"],  # not an edge
        ["colon", "c7", "-k", "2", "-l", "5"],  # zero divisor ideal
    ],
)
def test_colon_errors(argv):
    code, out, err = run(argv)
    assert code == 2 and out == "" and err.startswith("error:")


# ---------------------------------------------------------------------------
# classify

def test_classify_paths():
    payload = run_json(["classify", P4])
    assert payload["matched"] is True and payload["kinds"] == ["G1"]
    assert sorted(m["spine"] for m in payload["matches"]) == [[1, 2, 3], [2, 3, 4]]

    payload = run_json(["classify", P6])
    assert payload["matched"] is True and "G2" in payload["kinds"]

    payload = run_json(["classify", TWO_K2])
    assert payload["matched"] is True and set(payload["kinds"]) == {"G3"}

    payload = run_json(["classify", P2])
    assert payload["matched"] is False and payload["matches"] == []

    code, out, _ = run(["classify", P4])
    assert code == 0
    assert out == (
        "matched: True\n"
        "  G1: spine=[1, 2, 3] bouquets=[[], [], [4]]\n"
        "  G1: spine=[2, 3, 4] bouquets=[[1], [], []]\n"
    )

    code, _, err = run(["classify", "c7"])
    assert code == 2 and "forests only" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_list():
    code, out, _ = run(["verify", "--list"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == len(CHECKS)
    assert all("[theorem/" in line or "[exploration/" in line for line in lines)

    payload = run_json(["verify", "--list"])
    assert {row["name"] for row in payload["registry"]} == set(CHECKS)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["verify", "--list"], "verify_list.txt"),
        (["verify", "--list", "--json"], "verify_list.json"),
    ],
)
def test_verify_list_golden(argv, golden):
    # registry order, kinds, scopes and statements are part of the output
    code, out, err = run(argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()


def test_verify_text_run():
    code, out, err = run(["verify", "matching-chain", "--family", "exhaustive-4"])
    assert code == 0 and err == ""
    lines = out.rstrip("\n").split("\n")
    assert lines[0].startswith("check")
    assert lines[1].startswith("matching-chain")
    assert lines[1].split()[1:] == ["18", "0", "0", "0"]
    assert lines[-1] == "18 graphs, 18 reports, 0 theorem failures"


def test_verify_json_and_ndjson_roundtrip(tmp_path):
    nd = tmp_path / "reports.ndjson"
    payload = run_json(
        [
            "verify",
            "matching-chain,chordal-oracle",
            "--family",
            "exhaustive-3",
            "--ndjson",
            str(nd),
        ]
    )
    assert payload["graph_count"] == 7
    assert payload["checks"] == ["chordal-oracle", "matching-chain"]
    assert payload["total_reports"] == 14
    assert payload["theorem_failures"] == 0 and payload["failing"] == []
    assert payload["summary"] == {
        "chordal-oracle": {"pass": 7},
        "matching-chain": {"pass": 7},
    }
    assert payload["ndjson"] == str(nd)

    lines = nd.read_text().splitlines()
    assert len(lines) == 14
    parsed = [json.loads(line) for line in lines]
    assert [(p["check"], p["instance"]) for p in parsed] == sorted(
        (p["check"], p["instance"]) for p in parsed
    )
    for line, p in zip(lines, parsed):
        assert p["outcome"] in {"pass", "fail", "vacuous", "inconclusive"}
        assert isinstance(p["millis"], (int, float))
        report = CheckReport(
            p["check"], p["instance"], p["outcome"], p.get("witness"), p["millis"]
        )
        assert report.to_json_line() == line


SMALL_SWEEP = ["verify", "all", "--family", "exhaustive-5",
               "--random-ideals", "20", "--random-graphs", "20"]


def _ndjson_without_millis(path: Path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        del row["millis"]
    return rows


def test_verify_ndjson_holds_the_returned_reports(tmp_path, monkeypatch, sweep):
    # a serial sweep writes what run_checks returned, and agrees with the
    # same sweep on two workers, whose digest tests/test_golden.py pins
    parallel = sweep(" ".join(SMALL_SWEEP + ["--jobs", "2"])).ndjson
    real = sqfpowers.checks.run_checks
    returned = []

    def recorded(*args, **kwargs):
        returned.extend(real(*args, **kwargs))
        return returned

    monkeypatch.setattr(sqfpowers.checks, "run_checks", recorded)
    nd = tmp_path / "reports.ndjson"
    code, _, err = run(SMALL_SWEEP + ["--jobs", "1", "--ndjson", str(nd)])
    assert code == 0, err
    assert len(returned) > 100
    assert nd.read_bytes() == b"".join(
        r.to_json_line().encode() + b"\n" for r in returned
    )
    assert _ndjson_without_millis(nd) == _ndjson_without_millis(parallel)


def test_a_check_with_nothing_to_run_gives_one_vacuous_report(tmp_path):
    nd = tmp_path / "reports.ndjson"
    for name, flag in (
        ("ratliff-random", "--random-ideals"),
        ("matching-chain-random", "--random-graphs"),
    ):
        code, out, err = run(
            ["verify", name, "--family", "exhaustive-2",
             flag, "0", "--seed", "7", "--ndjson", str(nd)]
        )
        assert code == 0, err
        assert out.rstrip("\n").split("\n")[-1] == "3 graphs, 1 reports, 0 theorem failures"
        assert _ndjson_without_millis(nd) == [
            {"check": name, "instance": "collection:seed=7", "outcome": "vacuous"}
        ]


def test_verify_ndjson_path_is_checked_before_the_sweep(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before the --ndjson path was opened")

    monkeypatch.setattr(sqfpowers.checks, "run_checks", never)
    missing = tmp_path / "no-such-dir" / "reports.ndjson"
    code, out, err = run(SMALL_SWEEP + ["--ndjson", str(missing)])
    assert code == 2 and out == "" and err.startswith("error:")
    assert not missing.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bogus-check", "--family", "exhaustive-3"],
        ["verify", "matching-chain"],  # no --family
        ["verify", "all", "--family", "bogus-family"],
        ["verify", ",", "--family", "exhaustive-3"],  # empty name list
        ["verify", "all", "--family", "exhaustive-3", "--time-budget", "-1"],
        ["verify", "all", "--family", "exhaustive-3", "--char", "4"],
        ["verify", "all", "--family", "exhaustive-3", "--char", "1"],
        ["verify", "ratliff-random", "--family", "exhaustive-3", "--random-ideals", "-5"],
        ["verify", "all", "--family", "exhaustive-3", "--random-graphs", "-5"],
        ["verify", "all", "--family", "exhaustive-3", "--jobs", "0"],
        ["verify", "all", "--family", "exhaustive-3", "--jobs", "-3"],
        ["verify", "all", "--family", "exhaustive-3", "--node-budget", "-5"],
        ["verify", "top-power-linear-quotients", "--family", "exhaustive-4",
         "--node-budget", "-1"],
        ["verify", "nu0-lambda", "--family", "exhaustive-0"],
        ["verify", "nu0-lambda", "--family", "trees-0"],
        ["verify", "nu0-lambda", "--family", "forests-1"],
        ["verify", "nu0-lambda", "--family", "random-3-0"],
        ["verify", "matching-chain", "--family", "random-65-3"],
    ],
)
def test_verify_bad_input(argv):
    code, out, err = run(argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("family", ["trees-13", "forests-13"])
def test_verify_rejects_a_tree_family_beyond_the_cap(family):
    # uncapped, trees-30 would list about 1.5 * 10^10 trees before any check ran
    code, out, err = run(["verify", "nu0-lambda", "--family", family])
    assert code == 2 and out == "" and err.startswith("error:")
    assert "capped at n = 12" in err


@pytest.mark.parametrize("text", ["", "# no graphs here\n\n"])
def test_a_family_file_without_a_graph_is_rejected(tmp_path, text):
    empty = tmp_path / "EMPTY.g6"
    empty.write_text(text)
    for argv in (
        ["verify", "nu0-lambda", "--family", str(empty)],
        ["invariants", str(empty)],
    ):
        code, out, err = run(argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_verify_failing_check_exits_1(monkeypatch):
    def boom(G, ctx):
        raise RuntimeError("synthetic defect")

    fake = Check("fake-fail", "theorem", "graph", "always fails", boom)
    monkeypatch.setitem(CHECKS, "fake-fail", fake)

    code, out, _ = run(["verify", "fake-fail", "--family", "exhaustive-2"])
    assert code == 1
    assert "3 theorem failures" in out
    assert "FAIL fake-fail on" in out

    code, out, _ = run(
        ["verify", "fake-fail", "--family", "exhaustive-2", "--json"]
    )
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["theorem_failures"] == 3
    assert len(payload["failing"]) == 3
    assert all("synthetic defect" in f["witness"]["error"] for f in payload["failing"])


def test_verify_budget_keeps_finished_reports(monkeypatch):
    def two_then_out(ctx):
        yield "first", True, None
        yield "second", True, None
        raise BudgetExceeded("time budget exhausted")

    fake = Check("fake-budget", "theorem", "ideals", "runs out", two_then_out)
    monkeypatch.setitem(CHECKS, "fake-budget", fake)

    code, out, _ = run(["verify", "fake-budget", "--family", "exhaustive-2", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["summary"] == {"fake-budget": {"pass": 2, "inconclusive": 1}}
    assert payload["total_reports"] == 3


# ---------------------------------------------------------------------------
# output stability and the installed entry point

@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "c7"],
        ["power", "c7", "-k", "2"],
        ["betti", "c7", "-k", "2"],
        ["betti", "c7", "-k", "2", "--json"],
        ["linrel", "c7", "-k", "2", "--method", "both"],
        ["lambda", "fig2"],
        ["colon", "c7", "-k", "2", "-l", "1", "--json"],
        ["classify", P6, "--json"],
        ["verify", "matching-chain", "--family", "exhaustive-4"],
        ["verify", "matching-chain", "--family", "exhaustive-4", "--json"],
    ],
)
def test_text_outputs_byte_stable(argv):
    first = run(argv)
    second = run(argv)
    assert first == second
    assert first[0] == 0


def _declared_entry_point(name: str) -> importlib.metadata.EntryPoint:
    """The console-script entry point *name* as the package declares it.

    An installed distribution answers from its metadata; a source checkout
    answers from ``[project.scripts]`` in the ``pyproject.toml`` beside the
    ``src/`` tree that holds the imported package.
    """
    try:
        dist = importlib.metadata.distribution("sqfpowers")
    except importlib.metadata.PackageNotFoundError:
        scripts = _source_pyproject()["project"]["scripts"]
        assert name in scripts, f"pyproject.toml declares no {name!r} script"
        return importlib.metadata.EntryPoint(name, scripts[name], "console_scripts")
    matches = dist.entry_points.select(group="console_scripts", name=name)
    assert matches, f"installed sqfpowers declares no {name!r} script"
    return next(iter(matches))


def _source_pyproject() -> dict:
    """The ``pyproject.toml`` beside the ``src/`` tree that holds the imported package."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(sqfpowers.__file__).resolve().parents[2] / "pyproject.toml"
    assert pyproject.is_file(), f"no {pyproject}"
    return tomllib.loads(pyproject.read_text())


def _run_entry_point(
    ep: importlib.metadata.EntryPoint, argv: list[str], cwd: Path
) -> subprocess.CompletedProcess:
    """Run *ep* in a fresh interpreter the way pip's generated script does.

    The child's ``PYTHONPATH`` starts with the directory holding the imported
    ``sqfpowers``, so it runs the package under test; *cwd*, which ``-c`` puts
    ahead of that on ``sys.path``, should hold no copy of its own.
    """
    wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    return _run_fresh(["-c", wrapper, *argv], cwd)


def _run_fresh(
    args: list[str], cwd: Path, stdout=subprocess.PIPE, timeout: float = 120
) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a fresh interpreter on the package under test."""
    src_root = str(Path(sqfpowers.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        cwd=cwd,
        env=env,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "c7"],  # held in the buffer until main flushes it
        ["power", "g6:" + to_graph6(complete_graph(12)), "-k", "3", "--json"],  # 60 KB
    ],
)
def test_a_closed_stdout_exits_141_without_an_error_line(tmp_path, argv):
    # the reader of stdout is gone before the command starts, as after
    # `sqfpowers ... | head -1` once head has read its line
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        wrapper = "import sys; from sqfpowers.cli import main; sys.exit(main())"
        proc = _run_fresh(["-c", wrapper, *argv], tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_console_script(tmp_path):
    ep = _declared_entry_point("sqfpowers")
    proc = _run_entry_point(ep, ["invariants", "c7"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "nu: 3" in proc.stdout and "nu0: 2" in proc.stdout
    # main()'s return value must become the process exit status
    proc = _run_entry_point(ep, ["invariants", "nosuchgraph"], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error:")


def _modules_after(code: str, tmp_path: Path) -> tuple[set[str], set[str]]:
    """The names in sys.modules after a fresh interpreter runs *code*, and
    those of them whose body has run.

    A module registered for lazy loading stays an instance of a subclass of
    ``types.ModuleType`` until its first use runs its body.
    """
    probe = (
        f"{code}\nimport sys, types\n"
        "print(' '.join(f'{name}:{type(module) is types.ModuleType:d}'"
        " for name, module in list(sys.modules.items())), file=sys.stderr)"
    )
    proc = _run_fresh(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    pairs = [item.rsplit(":", 1) for item in proc.stderr.split()]
    return {name for name, _ in pairs}, {name for name, ran in pairs if ran == "1"}


# Besides cli, defaults and graphs, the package modules whose bodies each
# command runs: the Start-up table of the README
EVERY_CALL = {"cli", "defaults", "graphs"}
ALGEBRA = {"ideals", "matchings", "edge_ideals", "betti", "memo"}
STARTUP = (
    (["invariants", "c7"], {"matchings", "memo"}),
    (["betti", "--ideal", "IDEAL"], {"ideals", "betti", "memo"}),
    (["betti", "c7", "-k", "2", "--json"], ALGEBRA),
    (["linquot", "c7", "-k", "2"], ALGEBRA),
    (["verify", "nu0-lambda", "--family", "exhaustive-7", "--jobs", "1"],
     ALGEBRA | {"checks", "families"}),
)


def test_import_does_not_load_numpy(tmp_path):
    # numpy is for the tests only, and the process pool only for
    # verify --jobs N with N > 1; neither may load on the way to a result.
    # Nor may dataclasses and the inspect it imports: about 27 ms of every
    # call went to importing them and generating record methods.  Nor may a
    # command run the body of a package module it does not use: without
    # bytecode caches every module run is also compiled from source.
    for module in ("sqfpowers", "sqfpowers.cli"):
        loaded, _ = _modules_after(f"import {module}", tmp_path)
        for absent in ("numpy", "dataclasses", "inspect"):
            assert absent not in loaded, (module, absent)
    (tmp_path / "ideal.txt").write_text("n 3\n1 2\n2 3\n")
    call = "import sqfpowers.cli\nif sqfpowers.cli.main({!r}): raise SystemExit(1)"
    for argv, runs in STARTUP:
        argv = [str(tmp_path / "ideal.txt") if a == "IDEAL" else a for a in argv]
        loaded, ran = _modules_after(call.format(argv), tmp_path)
        for absent in ("concurrent.futures", "numpy", "dataclasses", "inspect"):
            assert absent not in loaded, (argv, absent)
        package = {name[len("sqfpowers."):] for name in ran if name.startswith("sqfpowers.")}
        assert package == EVERY_CALL | runs, argv


# the modules cli.py imports; bench/tracer.py wraps functions of them and
# looks them up in sys.modules after importing sqfpowers.cli
CLI_MODULES = {"betti", "checks", "edge_ideals", "families", "graphs", "ideals", "matchings", "memo"}


def test_import_registers_modules_without_running_them(tmp_path):
    loaded, _ = _modules_after("import sqfpowers", tmp_path)
    assert not {name for name in loaded if name.startswith("sqfpowers.")}
    # the help text reads the builtin graph names, so graphs alone has run
    loaded, ran = _modules_after("import sqfpowers.cli", tmp_path)
    package = {name for name in loaded if name.startswith("sqfpowers.")}
    assert package == {f"sqfpowers.{name}" for name in CLI_MODULES | {"cli", "defaults"}}
    assert package & ran == {"sqfpowers.cli", "sqfpowers.defaults", "sqfpowers.graphs"}


def test_submodule_resolves_before_any_import(tmp_path):
    probe = (
        "import sys, types, sqfpowers\n"
        "betti = sqfpowers.betti\n"
        "assert sys.modules['sqfpowers.betti'] is betti\n"
        "assert type(betti) is not types.ModuleType  # registered, not yet run\n"
        "assert betti.multigraded_betti is sqfpowers.multigraded_betti\n"
        "assert type(betti) is types.ModuleType\n"
        "from sqfpowers import betti as again\n"
        "assert again is betti\n"
    )
    proc = _run_fresh(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_runs_without_numpy(tmp_path):
    # the package ships with no runtime dependency; numpy is for the tests
    assert _source_pyproject()["project"]["dependencies"] == []
    call = (
        "import sys\nsys.modules['numpy'] = None  # any import of it raises\n"
        "import sqfpowers.cli\nraise SystemExit(sqfpowers.cli.main({!r}))"
    )
    for argv in (
        ["invariants", "c7"],
        ["betti", "c7", "-k", "2", "--json"],
        ["verify", "all", "--family", "exhaustive-4"],
    ):
        proc = _run_fresh(["-c", call.format(argv)], tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_package_surface_resolves_lazily(tmp_path):
    exports = sqfpowers._EXPORTS
    assert sqfpowers.__all__ == list(exports)
    for name, module in exports.items():
        defining = importlib.import_module(f"sqfpowers.{module}")
        assert getattr(sqfpowers, name) is getattr(defining, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        sqfpowers.no_such_name
    assert "__all__" in dir(sqfpowers)
    assert set(exports) <= set(dir(sqfpowers))
    namespace: dict = {}
    exec("from sqfpowers import *", namespace)
    assert all(namespace[name] is getattr(sqfpowers, name) for name in exports)
    # a defining submodule is an attribute of the package before its import
    proc = _run_fresh(
        ["-c", "import sqfpowers; print(sqfpowers.matchings.matching_number.__name__)"],
        tmp_path,
    )
    assert proc.returncode == 0 and proc.stdout == "matching_number\n", proc.stderr


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is public in the module that defines it
    for path in sorted(Path(sqfpowers.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert private == [], (path.name, node.module, private)


def _tracer_names() -> list[str]:
    """Dotted names (module.attr...) that bench/tracer.py looks up in the package.

    They are its TRACED pairs and every attribute chain it reads from a module
    it imports with ``from sqfpowers import ...``.
    """
    tree = ast.parse((REPO / "bench" / "tracer.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == ["TRACED"]:
            names += [f"{mod}.{fn}" for mod, fn in ast.literal_eval(node.value)]
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sqfpowers"
        for alias in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain = ast.unparse(node)
            if chain.split(".")[0] in imported:
                names.append(chain)
    return names


def test_tracer_names_resolve():
    # the benchmark's tracer wraps these by name; a renamed or deleted one
    # would break a traced benchmark run, not a test
    names = _tracer_names()
    assert "betti.multigraded_betti" in names
    assert "ideals.MonomialIdeal.contains" in names
    importlib.import_module("sqfpowers.cli")
    for name in names:
        first, *rest = name.split(".")
        obj = sys.modules[f"sqfpowers.{first}"]
        for attr in rest:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


@pytest.mark.skipif(
    shutil.which("sqfpowers") is None,
    reason="no sqfpowers console script on PATH (package not installed)",
)
def test_installed_console_script():
    exe = shutil.which("sqfpowers")
    proc = subprocess.run(
        [exe, "invariants", "c7"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert "nu: 3" in proc.stdout and "nu0: 2" in proc.stdout
