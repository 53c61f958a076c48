"""Each memoised object is computed once per request, and only then.

The objects and their keys: the lcm lattice (``gens``), the Betti table
(``(gens, p)``), the power I(G)^[k] via matchings (``(n, edges, k)``), which
at k = 1 is the edge ideal, the matching numbers nu, nu0 and nu1 and
equimatchability (each by ``edges``), the combinatorial linear-relatedness
verdict (``gens``) and the Ratliff verdict of ``ratliff_check``
(``(gens, k, l)``).
"""

import itertools
import multiprocessing
from contextlib import contextmanager

import pytest

from sqfpowers import betti, checks, edge_ideals, ideals, matchings, memo
from sqfpowers.betti import (
    is_linearly_related_combinatorial,
    lcm_lattice,
    linear_quotients_order,
    multigraded_betti,
)
from sqfpowers.checks import CHECKS, PASS, Check, CheckContext, run_check_on_instance, run_checks
from sqfpowers.edge_ideals import edge_ideal, sqfree_power_via_matchings
from sqfpowers.graphs import Graph, cycle_graph, path_graph
from sqfpowers.ideals import MonomialIdeal, monomial, ratliff_check, sqfree_power
from sqfpowers.matchings import (
    induced_matching_number,
    is_equimatchable,
    matching_number,
    restricted_matching_number,
)
from sqfpowers.memo import BudgetExceeded, time_budget


def _count_calls(monkeypatch, module, name) -> list[int]:
    """Wrap module.name so that each call adds one to the returned counter."""
    calls = [0]
    kernel = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def kernels(monkeypatch):
    """Build counters of the lattices, tables, powers and matching numbers."""
    return (
        _count_calls(monkeypatch, betti, "_lattice_joins"),
        _count_calls(monkeypatch, betti, "_betti_table"),
        _count_calls(monkeypatch, edge_ideals, "_power_from_matchings"),
        _count_calls(monkeypatch, matchings, "_nu"),
    )


@contextmanager
def request():
    """Hold the memo open for the body, as run_checks does for its loop."""
    memo.open()
    try:
        yield
    finally:
        memo.close()


def _twice(G, ctx):
    for _ in range(2):
        I = sqfree_power_via_matchings(G, 1)
        multigraded_betti(I, ctx.characteristic)
        lcm_lattice(I.gens)
        matching_number(G)
    yield "", True, None


def test_a_request_computes_each_object_once(monkeypatch, kernels):
    monkeypatch.setitem(CHECKS, "fake-twice", Check("fake-twice", "theorem", "graph", "", _twice))
    # C5 recurs as a second instance: all it needs comes from the memo
    reports = run_checks(["fake-twice"], [cycle_graph(5), path_graph(4), cycle_graph(5)])
    assert [r.outcome for r in reports] == [PASS] * 3
    assert [calls[0] for calls in kernels] == [2, 2, 2, 2]

    # outside run_checks nothing is held: every call computes afresh
    list(_twice(cycle_graph(5), CheckContext()))
    assert [calls[0] for calls in kernels] == [6, 4, 4, 4]


@pytest.fixture
def verdicts(monkeypatch):
    """Build counters of the edge ideals (first powers) and the verdicts computed."""
    return (
        _count_calls(monkeypatch, edge_ideals, "_power_from_matchings"),
        _count_calls(monkeypatch, betti, "_linearly_related"),
        _count_calls(monkeypatch, matchings, "_restricted_nu"),
        _count_calls(monkeypatch, matchings, "_induced_nu"),
        _count_calls(monkeypatch, matchings, "_equimatchable"),
        _count_calls(monkeypatch, ideals, "_ratliff"),
    )


def _verdicts_twice(G, ctx):
    for _ in range(2):
        I = edge_ideal(G)
        is_linearly_related_combinatorial(I)
        restricted_matching_number(G)
        induced_matching_number(G)
        is_equimatchable(G)
        ratliff_check(I, 2, 1)
    yield "", True, None


def test_a_request_decides_each_verdict_once(monkeypatch, verdicts):
    monkeypatch.setitem(
        CHECKS, "fake-verdicts", Check("fake-verdicts", "theorem", "graph", "", _verdicts_twice)
    )
    reports = run_checks(["fake-verdicts"], [cycle_graph(5), path_graph(4), cycle_graph(5)])
    assert [r.outcome for r in reports] == [PASS] * 3
    assert [calls[0] for calls in verdicts] == [2] * 6

    # outside run_checks nothing is held: every call computes afresh
    list(_verdicts_twice(cycle_graph(5), CheckContext()))
    assert [calls[0] for calls in verdicts] == [4] * 6


def _identical(G, ctx):
    # a value served from the memo is the very object stored
    I = sqfree_power_via_matchings(G, 2)
    yield "", (
        I is sqfree_power_via_matchings(G, 2)
        and lcm_lattice(I.gens) is lcm_lattice(I.gens)
        and multigraded_betti(I) is multigraded_betti(I)
    ), None


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the workers see the test's check only when forked",
)
def test_pool_workers_open_the_memo(monkeypatch):
    monkeypatch.setitem(CHECKS, "fake-same", Check("fake-same", "theorem", "graph", "", _identical))
    graphs = [cycle_graph(n) for n in range(4, 9)]
    assert [r.outcome for r in run_checks(["fake-same"], graphs, jobs=2)] == [PASS] * 5
    assert not next(_identical(cycle_graph(7), CheckContext()))[1]


def test_first_syzygy_checks_read_one_table_per_power(monkeypatch):
    # every b_{1,m} these checks need comes from the memoised Betti tables,
    # so the only lcm lattices built are those of the three powers of C7
    lattices = [_count_calls(monkeypatch, m, "lcm_lattice") for m in (betti, checks)]
    ctx = CheckContext()
    with request():
        for name in ("first-syzygy-degree-bound", "taylor-witness", "linrel-oracle-agreement"):
            reports = run_check_on_instance(name, cycle_graph(7), ctx)
            assert [r.outcome for r in reports] == [PASS] * len(reports), name
    assert sum(calls[0] for calls in lattices) == 3


def test_a_request_builds_each_lattice_once(monkeypatch, kernels):
    # restriction-table samples multidegrees from the lattice the table of
    # its power already built, and char2-cross-check reads one lattice at
    # both primes: one build per distinct generator tuple
    builds = kernels[0]
    asked: list[tuple[int, ...]] = []
    memoised = betti.lcm_lattice

    def recorded(gens):
        asked.append(tuple(gens))
        return memoised(gens)

    for module in (betti, checks):
        monkeypatch.setattr(module, "lcm_lattice", recorded)
    reports = run_checks(["restriction-table", "char2-cross-check"], [cycle_graph(7)])
    assert [r.outcome for r in reports] == [PASS] * len(reports)
    assert builds[0] == len(set(asked)) < len(asked)


def test_only_a_finished_table_is_stored(kernels):
    _, tables, _, _ = kernels
    I = sqfree_power_via_matchings(cycle_graph(7), 2)
    fresh = multigraded_betti(I)
    with request():
        with pytest.raises(BudgetExceeded), time_budget(0):
            multigraded_betti(I)
        assert multigraded_betti(I) == fresh
        assert multigraded_betti(I) == fresh
        for _ in range(2):
            with pytest.raises(ValueError):
                multigraded_betti(I, characteristic=4)
    # fresh, interrupted, full, then twice the bad characteristic; the second
    # full table came from the memo
    assert tables[0] == 5


def test_only_a_finished_verdict_is_stored(verdicts):
    _, linrel, _, _, _, ratliff = verdicts
    I = sqfree_power_via_matchings(cycle_graph(7), 2)
    fresh = linear_quotients_order(I)
    mixed = MonomialIdeal.from_supports(3, [[1], [2, 3]])
    with request():
        # the verdict checks the budget once per generator, so the first
        # call stops inside it and the search never starts
        with time_budget(0):
            assert linear_quotients_order(I).status == "inconclusive"
        assert linear_quotients_order(I) == fresh
        assert linear_quotients_order(I) == fresh
        for _ in range(2):
            with pytest.raises(ValueError):
                is_linearly_related_combinatorial(mixed)
            with pytest.raises(ValueError):
                ratliff_check(I, 1, 2)
    # fresh, interrupted, then full once; neither bad input reached a compute
    assert linrel[0] == 3
    assert ratliff[0] == 0


def test_an_interrupted_lattice_is_not_stored(kernels):
    # the lattice checks the budget once per generator joined in, so a
    # budgeted check stops before the whole lattice is built
    builds = kernels[0]
    gens = sqfree_power_via_matchings(cycle_graph(7), 2).gens
    with request():
        with pytest.raises(BudgetExceeded), time_budget(0):
            lcm_lattice(gens)
        assert lcm_lattice(gens) is lcm_lattice(gens)
    assert builds[0] == 2


def test_a_memoised_table_validates_the_characteristic_once(monkeypatch):
    # the table is the one place that validates it, and only on a memo miss
    calls = _count_calls(monkeypatch, betti, "check_characteristic")
    I = sqfree_power_via_matchings(cycle_graph(7), 2)
    with request():
        multigraded_betti(I)
        assert betti.regularity(I) == 5
        assert not betti.has_linear_resolution(I)
        assert betti.is_linearly_related_homological(I)
    assert calls[0] == 1


def test_the_characteristic_is_part_of_the_key(kernels):
    _, tables, _, _ = kernels
    # Stanley-Reisner ideal of the 6-vertex real projective plane, whose
    # table differs between p = 2 and every other p (see test_betti)
    facets = {
        frozenset(map(int, f))
        for f in ("123", "134", "145", "156", "162", "235", "346", "452", "563", "624")
    }
    rp2 = MonomialIdeal.from_supports(
        6, [t for t in itertools.combinations(range(1, 7), 3) if frozenset(t) not in facets]
    )
    fresh = {p: multigraded_betti(rp2, p) for p in (2, 3)}
    assert fresh[2] != fresh[3]
    with request():
        assert {p: multigraded_betti(rp2, p) for p in (2, 3, 2, 3)} == fresh
    # two fresh tables, then one per characteristic inside the request
    assert tables[0] == 4


def test_tables_and_nu_are_keyed_without_the_number_of_variables(kernels):
    # a table depends on the generators and p, and nu on the edges: the same
    # ideal or graph on more variables is served from the memo, while the
    # power carries n and so stays keyed by it
    _, tables, powers, nus = kernels
    edge = monomial([1, 2])
    with request():
        small = multigraded_betti(MonomialIdeal(2, (edge,)))
        assert multigraded_betti(MonomialIdeal(3, (edge,))) is small
        for n in (2, 3):
            G = Graph.from_edges(n, [(1, 2)])
            assert sqfree_power_via_matchings(G, 1) == edge_ideal(G)
            assert sqfree_power_via_matchings(G, 1).n == n
            assert matching_number(G) == matching_number(G) == 1
    assert tables[0] == 1 and powers[0] == 2 and nus[0] == 1


def test_call_sites_keep_apart_equal_keys():
    # nu, nu0, nu1 and equimatchability are all keyed by the edge set; on P4
    # (nu = 2, nu0 = nu1 = 1, not equimatchable) each call site must return
    # its own value, whichever of them stores its value first
    P4 = path_graph(4)
    expected = [
        (matching_number, 2),
        (restricted_matching_number, 1),
        (induced_matching_number, 1),
        (is_equimatchable, False),
    ]
    for order in (expected, expected[::-1]):
        with request():
            for _ in range(2):
                assert [f(P4) for f, _ in order] == [value for _, value in order]


P4 = path_graph(4)
I_P4 = edge_ideal(P4)


@pytest.mark.parametrize(
    "search",
    [
        pytest.param(lambda: induced_matching_number(P4), id="nu1"),
        pytest.param(lambda: is_equimatchable(cycle_graph(5)), id="equimatchable"),
        pytest.param(lambda: sqfree_power_via_matchings(P4, 1), id="power-via-matchings"),
        pytest.param(lambda: sqfree_power(I_P4, 1), id="power-ideal-side"),
        pytest.param(lambda: lcm_lattice(I_P4.gens), id="lattice"),
        pytest.param(lambda: multigraded_betti(I_P4), id="betti"),
        pytest.param(lambda: is_linearly_related_combinatorial(I_P4), id="linrel"),
    ],
)
def test_every_exhaustive_search_reads_the_deadline(search):
    # each runs to its end without a budget, and a spent one stops it
    search()
    with pytest.raises(BudgetExceeded), time_budget(0):
        search()
