"""Acceptance suite: ten end-to-end criteria, each with pinned expected values.

Every test prints one ``ACCEPTANCE <n> <name>: PASS`` line on success (visible
under ``pytest -s``) after enforcing its runtime budget where one applies.
Failures surface as ordinary pytest failures, one per criterion.
"""

from __future__ import annotations

import time
from collections import Counter

from sqfpowers.betti import (
    has_linear_resolution,
    is_linearly_related_combinatorial,
    multigraded_betti,
)
from sqfpowers.checks import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    VACUOUS,
    CheckContext,
    run_checks,
    summarize,
    theorem_failures,
)
from sqfpowers.edge_ideals import lambda_number, sqfree_power_via_matchings
from sqfpowers.families import resolve_family
from sqfpowers.graphs import builtin_graph, cycle_graph
from sqfpowers.matchings import restricted_matching_number

JOBS = 4
CHARACTERISTIC = 32003


def _totals(table) -> list[int]:
    graded = table.graded()
    top = max(i for i, _ in graded)
    return [sum(v for (i, _), v in graded.items() if i == col) for col in range(top + 1)]


def _finish(num: int, name: str, t0: float, limit_s: float | None = None) -> None:
    elapsed = time.monotonic() - t0
    if limit_s is not None:
        assert elapsed < limit_s, (
            f"criterion {num} took {elapsed:.1f}s, budget {limit_s:.0f}s"
        )
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_01_first_bundled_graph_cube_diagram():
    t0 = time.monotonic()
    I = sqfree_power_via_matchings(builtin_graph("fig1"), 3)
    table = multigraded_betti(I, CHARACTERISTIC)
    # diagram rows 6: (14, 19, 6) and 7: (-, 1, 1); row r column i is degree i+r
    assert table.graded() == {
        (0, 6): 14,
        (1, 7): 19,
        (2, 8): 6,
        (1, 8): 1,
        (2, 9): 1,
    }
    assert _totals(table) == [14, 20, 7]
    _finish(1, "first bundled graph, cube diagram", t0, 60.0)


def test_criterion_02_second_bundled_graph_cube_diagram():
    t0 = time.monotonic()
    I = sqfree_power_via_matchings(builtin_graph("fig2"), 3)
    table = multigraded_betti(I, CHARACTERISTIC)
    # diagram rows 6: (8, 8, 2) and 7: (-, 1, -); row r column i is degree i+r
    assert table.graded() == {(0, 6): 8, (1, 7): 8, (2, 8): 2, (1, 8): 1}
    assert _totals(table) == [8, 9, 2]
    _finish(2, "second bundled graph, cube diagram", t0, 30.0)


def test_criterion_03_heptagon_square_diagram_and_verdicts():
    t0 = time.monotonic()
    G = cycle_graph(7)
    I = sqfree_power_via_matchings(G, 2)
    table = multigraded_betti(I, CHARACTERISTIC)
    assert table.graded() == {(0, 4): 14, (1, 5): 21, (2, 6): 7, (2, 7): 1}
    assert _totals(table) == [14, 21, 8]
    assert restricted_matching_number(G) == 2
    assert is_linearly_related_combinatorial(I) is True
    assert has_linear_resolution(I, CHARACTERISTIC) is False
    _finish(3, "heptagon square diagram and verdicts", t0, 30.0)


def test_criterion_04_linear_relatedness_oracles_agree(exhaustive_7):
    t0 = time.monotonic()
    reports = exhaustive_7.of(["linrel-oracle-agreement"])
    assert theorem_failures(reports) == []
    outcomes = Counter(r.outcome for r in reports)
    assert outcomes[FAIL] == 0 and outcomes[INCONCLUSIVE] == 0
    assert outcomes[PASS] == 3528  # one verdict pair per (graph, power)
    _finish(4, "linear-relatedness oracles agree, n <= 7", t0)


def test_criterion_05_theorem_suite_small_exhaustive(exhaustive_7):
    t0 = time.monotonic()
    names_n7 = [
        "lower-bound",
        "upper-bound-k2",
        "linrel-monotone",
        "nu0-lambda",
        "nu0-le-2-linrel",
        "ratliff-surprised",
        "ratliff-easy",
        "ratliff-equimatchable",
        "generator-unimodality",
        "first-syzygy-degree-bound",
        "froberg",
    ]
    names_n6 = ["restriction-table", "betti-induced-monotone"]  # Betti-heavy pair
    reports = exhaustive_7.of(names_n7) + exhaustive_7.of(names_n6, "exhaustive-6")
    assert theorem_failures(reports) == []
    by_check = summarize(reports)
    assert set(by_check) == set(names_n7) | set(names_n6)
    for name in names_n7 + names_n6:
        assert by_check[name].get(FAIL, 0) == 0, name
        assert by_check[name].get(PASS, 0) > 0, name
    _finish(5, "theorem suite, n <= 7 (Betti-heavy pair n <= 6)", t0)


def test_criterion_06_forest_five_way_equivalence():
    t0 = time.monotonic()
    reports = run_checks(
        ["forest-five-way"], resolve_family("forests-10"), CheckContext(), jobs=JOBS
    )
    assert theorem_failures(reports) == []
    outcomes = Counter(r.outcome for r in reports)
    assert outcomes[FAIL] == 0 and outcomes[INCONCLUSIVE] == 0
    vacuous = [r for r in reports if r.outcome == VACUOUS]
    assert len(vacuous) == 1 and "A_" in vacuous[0].instance  # the single edge
    _finish(6, "forest five-way equivalence, n <= 10", t0, 1800.0)


def test_criterion_07_perfect_matching_trees():
    t0 = time.monotonic()
    trees = resolve_family("trees-12")
    assert len(trees) == 987
    reports = run_checks(
        ["tree-criterion-agreement", "tree-perfect-linres", "nu0-perfect-tree"],
        trees,
        CheckContext(),
        jobs=JOBS,
    )
    assert theorem_failures(reports) == []
    by_check = summarize(reports)
    assert by_check["tree-criterion-agreement"].get(PASS, 0) == 987
    assert by_check["tree-criterion-agreement"].get(FAIL, 0) == 0
    for name in ("tree-perfect-linres", "nu0-perfect-tree"):
        assert by_check[name].get(FAIL, 0) == 0, name
        assert by_check[name].get(PASS, 0) > 70, name
    _finish(7, "perfect-matching trees, n <= 12", t0)


def test_criterion_08_top_power_linear_quotients(exhaustive_7):
    t0 = time.monotonic()
    reports = exhaustive_7.of(["top-power-linear-quotients"])
    outcomes = Counter(r.outcome for r in reports)
    assert outcomes[FAIL] == 0 and outcomes[INCONCLUSIVE] == 0
    assert outcomes[PASS] == 1245 and outcomes[VACUOUS] == 7  # edgeless graphs
    _finish(8, "top-power linear quotients, n <= 7", t0)


def test_criterion_09_random_squarefree_colon_stability(exhaustive_7):
    # the sweep's ratliff-random: 500 ideals from the default seed
    t0 = time.monotonic()
    reports = exhaustive_7.of(["ratliff-random"])
    assert len(reports) == 500
    assert theorem_failures(reports) == []
    assert all(r.outcome in (PASS, VACUOUS) for r in reports)
    assert all(r.instance.startswith("seed=") for r in reports)
    _finish(9, "random squarefree colon stability, 500 ideals", t0)


def test_criterion_10_lambda_exceeds_restricted_matching_number():
    t0 = time.monotonic()
    for name in ("fig1", "fig2"):
        G = builtin_graph(name)
        lam = lambda_number(G)
        nu0 = restricted_matching_number(G)
        assert lam == 4 and nu0 == 3 and lam > nu0, name
    _finish(10, "lambda exceeds the restricted matching number", t0)
