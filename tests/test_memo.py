"""Betti tables and squarefree powers are computed once per request, and only then."""

import itertools

import pytest

from sqfpowers import betti, checks, edge_ideals
from sqfpowers.betti import (
    LATTICES,
    TABLES,
    BudgetExceeded,
    lcm_lattice,
    multigraded_betti,
    time_budget,
)
from sqfpowers.checks import CHECKS, PASS, Check, CheckContext, run_check_on_instance, run_checks
from sqfpowers.edge_ideals import POWERS, edge_ideal, sqfree_power_via_matchings
from sqfpowers.graphs import Graph, cycle_graph, path_graph
from sqfpowers.ideals import MonomialIdeal, monomial
from sqfpowers.memo import opened


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
    return (
        _count_calls(monkeypatch, betti, "_betti_table"),
        _count_calls(monkeypatch, edge_ideals, "_power_from_matchings"),
    )


def test_a_request_computes_each_table_and_power_once(monkeypatch, kernels):
    tables, powers = kernels

    def twice(G, ctx):
        for _ in range(2):
            multigraded_betti(sqfree_power_via_matchings(G, 1), ctx.characteristic)
        yield "", True, None

    monkeypatch.setitem(CHECKS, "fake-twice", Check("fake-twice", "theorem", "graph", "", twice))
    # C5 recurs as a second instance: its table and power come from the memo
    reports = run_checks(["fake-twice"], [cycle_graph(5), path_graph(4), cycle_graph(5)])
    assert [r.outcome for r in reports] == [PASS] * 3
    assert tables[0] == 2 and powers[0] == 2

    # outside run_checks every call computes afresh
    G = cycle_graph(5)
    for _ in range(2):
        multigraded_betti(sqfree_power_via_matchings(G, 1))
    assert tables[0] == 4 and powers[0] == 4


def test_first_syzygy_checks_read_one_table_per_power(monkeypatch):
    # every b_{1,m} these checks need comes from the memoised Betti tables,
    # so the only lcm lattices built are those of the three powers of C7
    lattices = [_count_calls(monkeypatch, m, "lcm_lattice") for m in (betti, checks)]
    ctx = CheckContext()
    with opened(TABLES, POWERS):
        for name in ("first-syzygy-degree-bound", "taylor-witness", "linrel-oracle-agreement"):
            reports = run_check_on_instance(name, cycle_graph(7), ctx)
            assert [r.outcome for r in reports] == [PASS] * len(reports), name
    assert sum(calls[0] for calls in lattices) == 3


def test_a_request_builds_each_lattice_once(monkeypatch):
    # restriction-table samples multidegrees from the lattice the table of
    # its power already built, and char2-cross-check reads one lattice at
    # both primes: one build per distinct generator tuple
    builds = _count_calls(monkeypatch, betti, "_lattice_joins")
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

    # inside opened(...) one build serves both calls; outside, each builds
    gens = sqfree_power_via_matchings(cycle_graph(7), 2).gens
    with opened(LATTICES):
        assert lcm_lattice(gens) is lcm_lattice(gens)
    assert builds[0] == len(set(asked)) + 1
    assert lcm_lattice(gens) == lcm_lattice(gens)
    assert builds[0] == len(set(asked)) + 3


def test_only_a_finished_table_is_stored(kernels):
    tables, _ = kernels
    I = sqfree_power_via_matchings(cycle_graph(7), 2)
    fresh = multigraded_betti(I)
    with opened(TABLES, POWERS):
        with pytest.raises(BudgetExceeded), time_budget(-1):
            multigraded_betti(I)
        assert multigraded_betti(I) == fresh
        assert multigraded_betti(I) == fresh
        for _ in range(2):
            with pytest.raises(ValueError):
                multigraded_betti(I, characteristic=4)
    # fresh, interrupted, full, then twice the bad characteristic; the second
    # full table came from the memo
    assert tables[0] == 5


def test_a_memoised_table_validates_the_characteristic_once(monkeypatch):
    # the table is the one place that validates it, and only on a memo miss
    calls = _count_calls(monkeypatch, betti, "_check_characteristic")
    I = sqfree_power_via_matchings(cycle_graph(7), 2)
    with opened(TABLES):
        multigraded_betti(I)
        assert betti.regularity(I) == 5
        assert not betti.has_linear_resolution(I)
        assert betti.is_linearly_related_homological(I)
    assert calls[0] == 1


def test_an_interrupted_lattice_is_not_stored(monkeypatch):
    # the lattice checks the budget once per generator joined in, so a
    # budgeted check stops before the whole lattice is built
    builds = _count_calls(monkeypatch, betti, "_lattice_joins")
    gens = sqfree_power_via_matchings(cycle_graph(7), 2).gens
    with opened(LATTICES):
        with pytest.raises(BudgetExceeded), time_budget(-1):
            lcm_lattice(gens)
        assert lcm_lattice(gens) is lcm_lattice(gens)
    assert builds[0] == 2


def test_the_characteristic_is_part_of_the_key():
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
    with opened(TABLES, POWERS):
        assert {p: multigraded_betti(rp2, p) for p in (2, 3, 2, 3)} == fresh
        assert multigraded_betti(rp2, 3).characteristic == 3


def test_the_number_of_variables_is_part_of_the_key(kernels):
    tables, powers = kernels
    edge = monomial([1, 2])
    with opened(TABLES, POWERS):
        small = multigraded_betti(MonomialIdeal(2, (edge,)))
        large = multigraded_betti(MonomialIdeal(3, (edge,)))
        assert (small.n, large.n) == (2, 3)
        for n in (2, 3):
            G = Graph.from_edges(n, [(1, 2)])
            assert sqfree_power_via_matchings(G, 1) == edge_ideal(G)
            assert sqfree_power_via_matchings(G, 1).n == n
    assert tables[0] == 2 and powers[0] == 2
