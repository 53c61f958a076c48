"""The benchmark's checkers accept the program's real outputs and reject corrupted ones.

    python3 -m pytest bench

Each test runs the CLI on a small instance, checks that the genuine output
passes, corrupts it the way a wrong program could, and expects a rejection.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checkers
import reference as ref
import run
import tracer
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent


def cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "sqfpowers.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


@pytest.fixture(scope="module")
def ctx() -> checkers.Context:
    registry = json.loads(cli("verify", "--list", "--json"))
    return checkers.Context.load(run.SCHEMA, registry, seed=7)


def graded_taylor(gens: list[int]) -> dict[tuple[int, int], int]:
    table: dict[tuple[int, int], int] = {}
    for m in ref.lcm_lattice(gens)[1:]:
        for i, v in ref.taylor_betti(gens, m).items():
            table[(i, m.bit_count())] = table.get((i, m.bit_count()), 0) + v
    return table


def test_reference_knowns() -> None:
    # I(C5)^[2] is generated by all five squarefree quartics in five variables
    # (a squarefree Veronese ideal, linear resolution 5 <- 4); two disjoint
    # edges give the Koszul complex 2 <- 1 in degree 4.
    veronese = sorted(ref.matching_supports(ref.cycle(5), 2))
    assert graded_taylor(veronese) == {(0, 4): 5, (1, 5): 4}
    koszul = [ref.mask((1, 2)), ref.mask((3, 4))]
    assert graded_taylor(koszul) == {(0, 2): 2, (1, 4): 1}
    top = ref.mask(range(1, 6))
    assert ref.moebius_from_bottom(ref.lcm_lattice(veronese))[top] == 4  # -(0 - 4)
    assert ref.moebius_from_bottom(ref.lcm_lattice(koszul))[ref.mask(range(1, 5))] == 1
    assert ref.linearly_related(veronese)
    assert not ref.linearly_related(koszul)
    assert ref.graph6(ref.from_graph6("FtK}?")) == "FtK}?"


def test_betti_checker_rejects_changed_and_negated_entries(ctx) -> None:
    G = ref.relabel(ref.cycle(8), random.Random(1))
    facts = {"graph": G, "k": 2}
    text = cli("betti", "g6:" + ref.graph6(G), "-k", "2", "--json")
    assert checkers.check_betti(facts, text, ctx) == []
    payload = json.loads(text)
    index = next(n for n, (i, _, _) in enumerate(payload["entries"]) if i == 1)
    for corrupt in (lambda v: v + 1, lambda v: -v):
        bad = json.loads(text)
        bad["entries"][index][2] = corrupt(bad["entries"][index][2])
        assert checkers.check_betti(facts, json.dumps(bad), ctx)


def test_betti_checker_rejects_a_shift_the_euler_characteristic_misses(ctx, monkeypatch) -> None:
    # one more unit in degrees i and i + 1 at the same multidegree keeps every
    # alternating sum, so the Moebius check passes and the Taylor check must fail
    monkeypatch.setattr(checkers, "TAYLOR_SAMPLE", 10_000)
    G = ref.path(6)
    facts = {"graph": G, "k": 2}
    text = cli("betti", "g6:" + ref.graph6(G), "-k", "2", "--json")
    bad = json.loads(text)
    entry = next(e for e in bad["entries"] if e[0] == 1)
    entry[2] += 1
    above = next((e for e in bad["entries"] if e[:2] == [2, entry[1]]), None)
    if above is None:
        bad["entries"].append([2, entry[1], 1])
    else:
        above[2] += 1
    problems = checkers.check_betti(facts, json.dumps(bad), ctx)
    assert any("Taylor" in p for p in problems)
    assert not any("mu(1, m)" in p for p in problems)


def test_invariants_checker_rejects_nu_off_by_one(ctx) -> None:
    G = ref.gnp(14, 0.3, random.Random(3))
    facts = {"graph": G}
    text = cli("invariants", "g6:" + ref.graph6(G), "--json")
    assert checkers.check_invariants(facts, text, ctx) == []
    for delta in (1, -1):
        bad = json.loads(text)
        bad["nu"] += delta
        assert any(p.startswith("nu:") for p in checkers.check_invariants(facts, json.dumps(bad), ctx))


def test_linquot_checker_rejects_an_order_without_linear_quotients(ctx) -> None:
    G = ref.from_graph6("FLr??")
    facts = {"graph": G, "k": 2, "node_budget": 1000}
    text = cli("linquot", "g6:FLr??", "-k", "2", "--node-budget", "1000", "--json")
    assert checkers.check_linquot(facts, text, ctx) == []
    order = json.loads(text)["order"]
    masks = [ref.mask(vs) for vs in order]
    broken = next(
        swapped
        for a in range(len(order)) for b in range(a + 1, len(order))
        for swapped in [order[:a] + [order[b]] + order[a + 1 : b] + [order[a]] + order[b + 1 :]]
        if not all(ref.colon_is_linear([ref.mask(v) for v in swapped[:j]], ref.mask(swapped[j]))
                   for j in range(1, len(swapped)))
    )
    assert sorted(map(ref.mask, broken)) == sorted(masks)
    bad = json.loads(text)
    bad["order"] = broken
    assert any("colon" in p for p in checkers.check_linquot(facts, json.dumps(bad), ctx))


def test_linquot_checker_rejects_none_for_a_linearly_related_ideal(ctx) -> None:
    facts = {"graph": ref.from_graph6("FLr??"), "k": 2, "node_budget": 1000}
    bad = {"command": "linquot", "status": "none", "nodes": 12, "order": None}
    assert checkers.check_linquot(facts, json.dumps(bad), ctx)


def test_verify_checker_rejects_a_theorem_failure(ctx, tmp_path) -> None:
    ndjson = tmp_path / "reports.ndjson"
    facts = {"family": "exhaustive-4", "max_n": 4, "ndjson": ndjson, "jobs": 1}
    text = cli("verify", "lower-bound,matching-chain", "--family", "exhaustive-4",
               "--json", "--ndjson", str(ndjson))
    assert checkers.check_verify(facts, text, ctx) == []
    lines = ndjson.read_text().splitlines()
    report = json.loads(lines[-1])
    assert ctx.kinds[report["check"]] == "theorem"
    report["outcome"] = "fail"
    lines[-1] = json.dumps(report, sort_keys=True)
    ndjson.write_text("\n".join(lines) + "\n")
    assert any("theorem failure" in p for p in checkers.check_verify(facts, text, ctx))


def test_metric_names_match_the_benchmark_declaration() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run.Result(op=Op("op", ()), wall_s=1.0, cpu_s=1.0, rss_kb=1024, failed=False)
    e2e = run.end_to_end([[result]], setup_s=1.0)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layers = run.layer_report(tracer.layer_metrics([]), [], [result], [result])
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: u for k, (_, u) in layers.items()}
