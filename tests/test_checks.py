"""The verification harness: registry, execution, reports, invariant sweeps."""

import json

import pytest

from sqfpowers.betti import BudgetExceeded
from sqfpowers.checks import (
    CHECKS,
    FAIL,
    GRAPH_SCOPES,
    INCONCLUSIVE,
    PASS,
    VACUOUS,
    Check,
    CheckContext,
    CheckReport,
    ratliff_suite,
    run_check_on_instance,
    run_checks,
    summarize,
    theorem_failures,
)
from sqfpowers.families import (
    all_forests_up_to,
    all_graphs_up_to,
    all_trees_up_to,
    random_graphs,
    resolve_family,
)
from sqfpowers.graphs import builtin_graph, cycle_graph, path_graph

JOBS = 4


# ---------------------------------------------------------------------------
# registry shape

def test_registry_integrity():
    assert len(CHECKS) >= 35
    for name, check in CHECKS.items():
        assert check.name == name
        assert check.kind in ("theorem", "exploration")
        assert check.scope in ("graph", "tree", "forest", "ideals", "builtin")
        assert check.statement and isinstance(check.statement, str)
        assert callable(check.runner)
    # the ones the acceptance suite depends on by name
    for required in (
        "lower-bound",
        "upper-bound-k2",
        "linrel-monotone",
        "nu0-lambda",
        "nu0-le-2-linrel",
        "ratliff-surprised",
        "ratliff-easy",
        "ratliff-equimatchable",
        "ratliff-random",
        "generator-unimodality",
        "first-syzygy-degree-bound",
        "restriction-table",
        "betti-induced-monotone",
        "froberg",
        "linrel-oracle-agreement",
        "top-power-linear-quotients",
        "forest-five-way",
        "tree-criterion-agreement",
        "tree-perfect-linres",
        "nu0-perfect-tree",
        "figure-diagrams",
        "lambda-counterexamples",
    ):
        assert required in CHECKS, required


# ---------------------------------------------------------------------------
# report serialization

def test_report_json_roundtrip():
    for report in (
        CheckReport("lower-bound", "g6:F???", PASS, None, 1.25),
        CheckReport("froberg", "g6:F???", FAIL, {"expected": True, "got": False}, 0.5),
        CheckReport("ratliff-random", "collection:seed=1", INCONCLUSIVE, {"reason": "x"}),
    ):
        line = report.to_json_line()
        parsed = json.loads(line)
        assert set(parsed) <= {"check", "instance", "outcome", "witness", "millis"}
        back = CheckReport.from_json_line(line)
        assert back.check == report.check
        assert back.instance == report.instance
        assert back.outcome == report.outcome
        assert back.witness == report.witness
        assert back.millis == round(report.millis, 3)


# ---------------------------------------------------------------------------
# execution semantics

def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_checks(["no-such-check"], [])


def _strip_millis(reports):
    return [(r.check, r.instance, r.outcome, r.witness) for r in reports]


def test_reports_are_deterministic_and_sorted():
    graphs = resolve_family("exhaustive-4")
    a = run_checks(["matching-chain", "froberg"], graphs)
    b = run_checks(["matching-chain", "froberg"], graphs)
    assert _strip_millis(a) == _strip_millis(b)
    assert a == sorted(a, key=lambda r: (r.check, r.instance))


def test_parallel_equals_serial():
    graphs = resolve_family("exhaustive-4")
    names = ["matching-chain", "froberg", "nu0-lambda"]
    serial = run_checks(names, graphs, jobs=1)
    parallel = run_checks(names, graphs, jobs=2)
    assert _strip_millis(serial) == _strip_millis(parallel)


def test_crash_becomes_failure_report(monkeypatch):
    def boom(G, ctx, deadline):
        raise RuntimeError("synthetic defect")

    fake = Check("fake-crash", "theorem", "graph", "always crashes", boom)
    monkeypatch.setitem(CHECKS, "fake-crash", fake)
    reports = run_checks(["fake-crash"], [path_graph(2)])
    assert len(reports) == 1
    assert reports[0].outcome == FAIL
    assert "synthetic defect" in reports[0].witness["error"]
    assert theorem_failures(reports) == reports


def test_budget_exhaustion_becomes_inconclusive(monkeypatch):
    def slow(G, ctx, deadline):
        raise BudgetExceeded("node budget exhausted")

    fake = Check("fake-slow", "theorem", "graph", "always times out", slow)
    monkeypatch.setitem(CHECKS, "fake-slow", fake)
    reports = run_checks(["fake-slow"], [path_graph(2)])
    assert reports[0].outcome == INCONCLUSIVE
    assert theorem_failures(reports) == []


def test_zero_time_budget_is_inconclusive_not_failing():
    ctx = CheckContext(time_budget_s=0.0)
    reports = run_check_on_instance("linrel-oracle-agreement", cycle_graph(7), ctx)
    assert [r.outcome for r in reports] == [INCONCLUSIVE]
    assert theorem_failures(reports) == []


@pytest.mark.parametrize(
    "name",
    ["colon-regularity", "first-syzygy-degree-bound", "disjoint-regularity", "colon-reg-bound"],
)
def test_regularity_runners_honour_the_time_budget(name):
    ctx = CheckContext(time_budget_s=-1.0)
    instance = cycle_graph(7) if CHECKS[name].scope in GRAPH_SCOPES else None
    reports = run_check_on_instance(name, instance, ctx)
    assert {r.outcome for r in reports} == {INCONCLUSIVE}


def test_five_way_nonforest_budget_exhaustion_is_inconclusive():
    ctx = CheckContext(node_budget=1)
    reports = run_check_on_instance("five-way-nonforest", cycle_graph(5), ctx)
    assert [r.outcome for r in reports] == [INCONCLUSIVE]
    assert set(reports[0].witness) == {"nodes"}


def test_scope_filtering():
    graphs = [path_graph(4), cycle_graph(4)]  # one tree, one cycle
    tree_reports = run_checks(["tree-criterion-agreement"], graphs)
    assert len(tree_reports) == 1  # the cycle is filtered out, not failed
    ideals_reports = run_checks(["ratliff-random"], graphs, CheckContext(random_ideal_count=20))
    assert {r.check for r in ideals_reports} == {"ratliff-random"}
    assert len(ideals_reports) == 20  # one collection run, not one per graph
    assert all(r.instance.startswith("seed=") for r in ideals_reports)


def test_summarize_counts():
    reports = [
        CheckReport("a", "x", PASS),
        CheckReport("a", "y", PASS),
        CheckReport("a", "z", VACUOUS),
        CheckReport("b", "x", FAIL),
    ]
    assert summarize(reports) == {
        "a": {"pass": 2, "vacuous": 1},
        "b": {"fail": 1},
    }


def test_ratliff_suite_modes():
    G = cycle_graph(7)
    for mode in ("surprised", "easy", "equimatchable"):
        reports = ratliff_suite(G, mode)
        assert reports and all(r.outcome in (PASS, VACUOUS) for r in reports)
    with pytest.raises(ValueError):
        ratliff_suite(G, "bogus")


# ---------------------------------------------------------------------------
# invariant sweeps (the registered statements hold on their stated ranges)

def test_whole_registry_passes_on_small_graphs():
    reports = run_checks(None, resolve_family("exhaustive-5"), jobs=JOBS)
    failures = theorem_failures(reports)
    assert failures == [], [
        (r.check, r.instance, r.witness) for r in failures[:10]
    ]
    # every registered check produced at least one report
    assert set(summarize(reports)) == set(CHECKS)


def test_builtin_family_passes():
    reports = run_checks(None, resolve_family("builtin"), jobs=JOBS)
    assert theorem_failures(reports) == []


def test_resolution_invariants_full_range():
    # Betti-table restriction and induced-subgraph monotonicity on every
    # graph with at most 7 vertices
    reports = run_checks(
        ["restriction-table", "betti-induced-monotone"],
        all_graphs_up_to(7),
        jobs=JOBS,
    )
    assert theorem_failures(reports) == []
    counts = summarize(reports)
    assert counts["restriction-table"][PASS] > 3000
    assert counts["betti-induced-monotone"][PASS] > 1200


def test_edge_ideal_invariants_full_range():
    # colon formula on every edge, and power-route agreement, for n <= 8
    reports = run_checks(
        ["colon-formula", "power-matching-agreement"],
        all_graphs_up_to(8),
        jobs=JOBS,
    )
    assert theorem_failures(reports) == []
    counts = summarize(reports)
    assert counts["colon-formula"][PASS] > 13000
    assert counts["power-matching-agreement"][PASS] > 13000


def test_colon_regularity_full_range():
    reports = run_checks(["colon-regularity"], all_graphs_up_to(7), jobs=JOBS)
    assert theorem_failures(reports) == []


def test_forest_five_way_full_range():
    reports = run_checks(["forest-five-way"], all_forests_up_to(10), jobs=JOBS)
    assert theorem_failures(reports) == []
    counts = summarize(reports)["forest-five-way"]
    assert counts.get(VACUOUS, 0) == 1  # the single edge
    assert counts.get(INCONCLUSIVE, 0) == 0


def test_tree_checks_full_range():
    reports = run_checks(
        ["tree-criterion-agreement", "tree-perfect-linres", "nu0-perfect-tree"],
        all_trees_up_to(12),
        jobs=JOBS,
    )
    assert theorem_failures(reports) == []
    counts = summarize(reports)
    assert counts["tree-criterion-agreement"][PASS] == 987
    assert counts["tree-perfect-linres"][PASS] > 70
    assert counts["nu0-perfect-tree"][PASS] > 70


def test_generated_by_variables_on_random_graphs():
    graphs = random_graphs(100, 8, seed=20260816)
    reports = run_checks(["generated-by-variables"], graphs, jobs=JOBS)
    assert theorem_failures(reports) == []
    assert summarize(reports)["generated-by-variables"][PASS] > 50
