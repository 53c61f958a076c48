"""The verification harness: registry, execution, reports, invariant sweeps."""

import concurrent.futures
import inspect
import json
import os

import pytest

import sqfpowers
from sqfpowers import betti, checks
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
    run_check_on_instance,
    run_checks,
    summarize,
    theorem_failures,
)
from sqfpowers.edge_ideals import edge_ideal
from sqfpowers.families import disjoint_edges_graph, random_graphs, resolve_family
from sqfpowers.graphs import builtin_graph, cycle_graph, path_graph
from sqfpowers.memo import BudgetExceeded

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
        assert parsed["check"] == report.check
        assert parsed["instance"] == report.instance
        assert parsed["outcome"] == report.outcome
        assert parsed.get("witness") == report.witness
        assert parsed["millis"] == round(report.millis, 3)


# ---------------------------------------------------------------------------
# execution semantics

def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_checks(["no-such-check"], [])


@pytest.mark.parametrize("characteristic", [4, 1])
def test_run_checks_rejects_a_bad_characteristic(characteristic, monkeypatch):
    def never(G, ctx):
        raise AssertionError("a task ran")

    monkeypatch.setitem(CHECKS, "fake-never", Check("fake-never", "theorem", "graph", "", never))
    with pytest.raises(ValueError, match="not prime"):
        run_checks(
            ["froberg", "fake-never"],
            resolve_family("exhaustive-3"),
            CheckContext(characteristic=characteristic),
        )


@pytest.mark.parametrize("field", ["random_ideal_count", "random_graph_count"])
def test_run_checks_rejects_a_negative_random_count(field, monkeypatch):
    def never(G, ctx):
        raise AssertionError("a task ran")

    monkeypatch.setitem(CHECKS, "fake-never", Check("fake-never", "theorem", "graph", "", never))
    with pytest.raises(ValueError, match=f"{field} must be >= 0"):
        run_checks(
            ["ratliff-random", "matching-chain-random", "fake-never"],
            resolve_family("exhaustive-3"),
            CheckContext(**{field: -5}),
        )


@pytest.mark.parametrize(
    "names, ctx, jobs, message",
    [
        (["fake-never"], CheckContext(), 0, "jobs must be >= 1"),
        (["fake-never"], CheckContext(), -3, "jobs must be >= 1"),
        ([], CheckContext(), 1, "no check names"),
        (["fake-never"], CheckContext(time_budget_s=float("nan")), 1, "time budget"),
        (["fake-never"], CheckContext(time_budget_s=-1.0), 1, "time budget"),
        (["fake-never"], CheckContext(node_budget=-1), 1, "node budget"),
    ],
)
def test_run_checks_rejects_a_bad_request_before_any_task(names, ctx, jobs, message, monkeypatch):
    def never(G, ctx):
        raise AssertionError("a task ran")

    monkeypatch.setitem(CHECKS, "fake-never", Check("fake-never", "theorem", "graph", "", never))
    with pytest.raises(ValueError, match=message):
        run_checks(names, resolve_family("exhaustive-3"), ctx, jobs=jobs)


@pytest.mark.parametrize(
    "ctx, message",
    [
        (CheckContext(characteristic=4), "not prime"),
        (CheckContext(time_budget_s=-1.0), "time budget"),
    ],
)
def test_run_check_on_instance_rejects_a_bad_context(ctx, message):
    # a bad request is an input error, not a theorem failure of the check
    with pytest.raises(ValueError, match=message):
        run_check_on_instance("froberg", cycle_graph(5), ctx)


def test_run_checks_validates_a_request_once(monkeypatch):
    calls = []
    validate = checks.validate_request

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(checks, "validate_request", counted)
    run_checks(["froberg", "matching-chain"], resolve_family("exhaustive-4"))
    assert len(calls) == 1


def test_every_selected_check_reports_on_every_instance_in_its_scope():
    # a runner that yields nothing, or a collection with nothing in it, still
    # gives its instance one (vacuous) report
    graphs = resolve_family("exhaustive-4")
    ctx = CheckContext(random_ideal_count=0, random_graph_count=0)
    reports = run_checks(None, graphs, ctx)
    named = {(r.check, r.instance.split(";")[0]) for r in reports}
    for c in CHECKS.values():
        if c.scope not in GRAPH_SCOPES:
            assert any(check == c.name for check, _ in named), c.name
            continue
        for G in graphs:
            if GRAPH_SCOPES[c.scope](G):
                assert (c.name, checks._gid(G)) in named, (c.name, G)
    for name in ("ratliff-random", "matching-chain-random"):
        assert [(r.instance, r.outcome) for r in reports if r.check == name] == [
            (f"collection:seed={ctx.seed}", "vacuous")
        ], name


def test_a_graph_outside_the_scope_is_vacuous_without_a_run(monkeypatch):
    def yes(G, ctx):
        yield "", True, None

    monkeypatch.setitem(CHECKS, "fake-tree", Check("fake-tree", "theorem", "tree", "", yes))
    reports = run_check_on_instance("fake-tree", path_graph(4), CheckContext())
    assert [r.outcome for r in reports] == [PASS]
    for name in CHECKS:
        if CHECKS[name].scope in ("tree", "forest"):
            reports = run_check_on_instance(name, cycle_graph(4), CheckContext())
            assert [(r.instance, r.outcome, r.witness) for r in reports] == [
                ("g6:Cl", VACUOUS, None)
            ], name


def _strip_millis(reports):
    return [(r.check, r.instance, r.outcome, r.witness) for r in reports]


def test_reports_are_deterministic_and_sorted():
    graphs = resolve_family("exhaustive-4")
    a = run_checks(["matching-chain", "froberg"], graphs)
    b = run_checks(["matching-chain", "froberg"], graphs)
    assert _strip_millis(a) == _strip_millis(b)
    assert a == sorted(a, key=lambda r: (r.check, r.instance))


@pytest.mark.parametrize(
    "affinity, cpu_count, workers",
    [
        (set(range(64)), None, 7),  # one worker per task
        ({0, 1}, None, 2),  # one worker per usable CPU
        (None, 3, 3),  # no affinity: every CPU
        (None, None, 1),  # no CPU count either
    ],
)
def test_the_pool_starts_no_more_workers_than_tasks_or_cpus(
    affinity, cpu_count, workers, monkeypatch
):
    # a pool starts all of its workers at once, so --jobs 1000000 must not
    # ask for a million processes; a serial stand-in records the pool size
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    graphs = resolve_family("exhaustive-3")  # 7 graphs, so 7 tasks
    reports = run_checks(["froberg"], graphs, jobs=10**6)
    assert sizes == [workers]
    assert _strip_millis(reports) == _strip_millis(run_checks(["froberg"], graphs))


def test_crash_becomes_failure_report(monkeypatch):
    def boom(G, ctx):
        raise RuntimeError("synthetic defect")

    fake = Check("fake-crash", "theorem", "graph", "always crashes", boom)
    monkeypatch.setitem(CHECKS, "fake-crash", fake)
    reports = run_checks(["fake-crash"], [path_graph(2)])
    assert len(reports) == 1
    assert reports[0].outcome == FAIL
    assert "synthetic defect" in reports[0].witness["error"]
    assert theorem_failures(reports) == reports


def test_budget_exhaustion_becomes_inconclusive(monkeypatch):
    def slow(G, ctx):
        raise BudgetExceeded("node budget exhausted")

    fake = Check("fake-slow", "theorem", "graph", "always times out", slow)
    monkeypatch.setitem(CHECKS, "fake-slow", fake)
    reports = run_checks(["fake-slow"], [path_graph(2)])
    assert reports[0].outcome == INCONCLUSIVE
    assert theorem_failures(reports) == []


@pytest.mark.parametrize(
    "name, G",
    [
        ("linrel-monotone", path_graph(3)),  # nu = 1: no pair of powers
        ("nu0-le-2-linrel", path_graph(3)),  # nu = 1: no k in 2..nu
        ("taylor-witness", path_graph(2)),  # one generator: no (1, m) entry
        ("betti-induced-monotone", path_graph(2)),  # no proper induced subgraph
    ],
)
def test_a_runner_with_no_case_to_check_is_vacuous(name, G):
    reports = run_check_on_instance(name, G, CheckContext())
    assert [(r.instance, r.outcome) for r in reports] == [(checks._gid(G), VACUOUS)]


def test_ratliff_powers_exploration_reports_only_ideals_with_a_pair(monkeypatch):
    # I^[3] = 0 for a path on four vertices, I^[3] != 0 for three disjoint edges
    zero_cube = edge_ideal(path_graph(4))
    cube = edge_ideal(disjoint_edges_graph(3))
    monkeypatch.setattr(
        checks, "random_squarefree_ideals", lambda *args, **kwargs: [zero_cube, cube]
    )
    reports = run_check_on_instance("ratliff-powers-exploration", None, CheckContext())
    assert [r.instance.split(";")[1] for r in reports] == ["index=1"]
    monkeypatch.setattr(
        checks, "random_squarefree_ideals", lambda *args, **kwargs: [zero_cube]
    )
    reports = run_check_on_instance("ratliff-powers-exploration", None, CheckContext())
    assert [r.outcome for r in reports] == [VACUOUS]


def test_zero_time_budget_is_inconclusive_not_failing():
    ctx = CheckContext(time_budget_s=0.0)
    reports = run_check_on_instance("linrel-oracle-agreement", cycle_graph(7), ctx)
    assert [r.outcome for r in reports] == [INCONCLUSIVE]
    assert theorem_failures(reports) == []


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_regularity_runners_honour_the_time_budget(name):
    ctx = CheckContext(time_budget_s=0.0)
    instance = cycle_graph(7) if CHECKS[name].scope in GRAPH_SCOPES else None
    reports = run_check_on_instance(name, instance, ctx)
    assert {r.outcome for r in reports} == {INCONCLUSIVE}


def test_no_deadline_is_passed_by_hand():
    # the time budget belongs to the request (memo.time_budget), so no
    # exported callable takes a deadline and every runner takes (G, ctx) or
    # (ctx) alone
    for name in sqfpowers.__all__:
        obj = getattr(sqfpowers, name)
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # BudgetExceeded inherits a builtin signature
                continue
            assert "deadline" not in params, name
    for c in CHECKS.values():
        params = list(inspect.signature(c.runner).parameters)
        assert params == (["G", "ctx"] if c.scope in GRAPH_SCOPES else ["ctx"]), c.name


def test_five_way_nonforest_budget_exhaustion_is_inconclusive():
    ctx = CheckContext(node_budget=1)
    reports = run_check_on_instance("five-way-nonforest", cycle_graph(5), ctx)
    assert [r.outcome for r in reports] == [INCONCLUSIVE]
    assert set(reports[0].witness) == {"nodes"}


def test_theorem_checks_search_without_the_certificate(monkeypatch):
    # forest-five-way and top-power-linear-quotients compare linear quotients
    # with linear relatedness, so their search must not consult the latter
    def boom(I):
        raise RuntimeError("certificate consulted")

    monkeypatch.setattr(betti, "is_linearly_related_combinatorial", boom)
    ctx = CheckContext()
    for name, G in (
        ("top-power-linear-quotients", cycle_graph(7)),
        ("forest-five-way", path_graph(6)),
    ):
        reports = run_check_on_instance(name, G, ctx)
        assert [r.outcome for r in reports] == [PASS], (name, reports)
    # the public search does consult it
    reports = run_check_on_instance("five-way-nonforest", cycle_graph(5), ctx)
    assert [r.outcome for r in reports] == [FAIL]
    assert "certificate consulted" in reports[0].witness["error"]


def test_five_way_nonforest_pass_keeps_its_pattern():
    # the one check whose passing report carries a witness
    reports = run_check_on_instance("five-way-nonforest", cycle_graph(5), CheckContext())
    pattern = {
        "linear_quotients": True,
        "linear_resolution": True,
        "linearly_related": True,
        "nu0_le_2": True,
    }
    assert [(r.instance, r.outcome, r.witness) for r in reports] == [
        ("g6:Dhc", PASS, {"pattern": pattern})
    ]


def test_vacuous_and_passing_reports_carry_no_witness():
    ctx = CheckContext(random_ideal_count=20, random_graph_count=20)
    reports = run_checks(None, resolve_family("exhaustive-4"), ctx)
    assert {r.outcome for r in reports} == {PASS, VACUOUS}
    assert {r.check for r in reports if r.witness is not None} == {"five-way-nonforest"}


def test_failing_verdict_keeps_its_witness(monkeypatch):
    monkeypatch.setattr(checks, "restricted_matching_number", lambda G: 99)
    reports = run_check_on_instance("matching-chain", cycle_graph(7), CheckContext())
    assert [(r.instance, r.outcome, r.witness) for r in reports] == [
        ("g6:FhCKG", FAIL, {"nu1": 2, "nu0": 99, "nu": 3})
    ]


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


def test_ratliff_checks_on_c7():
    G = cycle_graph(7)
    for name in ("ratliff-surprised", "ratliff-easy", "ratliff-equimatchable"):
        reports = run_check_on_instance(name, G, CheckContext())
        assert [(r.instance, r.outcome) for r in reports] == [("g6:FhCKG", PASS)]


# ---------------------------------------------------------------------------
# invariant sweeps (the registered statements hold on their stated ranges)

def test_whole_registry_passes_on_small_graphs(exhaustive_7):
    reports = exhaustive_7.of(family="exhaustive-5")
    failures = theorem_failures(reports)
    assert failures == [], [
        (r.check, r.instance, r.witness) for r in failures[:10]
    ]
    # every registered check produced at least one report
    assert set(summarize(reports)) == set(CHECKS)


def test_builtin_family_passes():
    reports = run_checks(None, resolve_family("builtin"), jobs=JOBS)
    assert theorem_failures(reports) == []


def test_resolution_invariants_full_range(exhaustive_7):
    # Betti-table restriction and induced-subgraph monotonicity on every
    # graph with at most 7 vertices
    reports = exhaustive_7.of(["restriction-table", "betti-induced-monotone"])
    assert theorem_failures(reports) == []
    counts = summarize(reports)
    assert counts["restriction-table"][PASS] > 3000
    assert counts["betti-induced-monotone"][PASS] > 1200


def test_colon_regularity_full_range(exhaustive_7):
    reports = exhaustive_7.of(["colon-regularity"])
    assert theorem_failures(reports) == []


def test_generated_by_variables_on_random_graphs():
    graphs = random_graphs(100, 8, seed=20260816)
    reports = run_checks(["generated-by-variables"], graphs, jobs=JOBS)
    assert theorem_failures(reports) == []
    assert summarize(reports)["generated-by-variables"][PASS] > 50
