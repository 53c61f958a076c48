"""Multigraded Betti numbers over GF(p) against an exact-arithmetic oracle."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sqfpowers import betti, memo
from sqfpowers.betti import (
    DEFAULT_CHARACTERISTIC,
    GENERATOR_CAP,
    TABLE_MAX_VARS,
    first_syzygy_witness,
    gf_rank,
    has_linear_resolution,
    is_linearly_related_combinatorial,
    is_linearly_related_homological,
    lcm_lattice,
    linear_quotients_order,
    multigraded_betti,
    projective_dimension,
    regularity,
    render_betti_diagram,
    search_linear_quotients,
    _DividingGenerators,
    _face_levels,
    _homology_dims,
    _is_prime,
    _membership_table,
    _precedence,
)
from sqfpowers.checks import INCONCLUSIVE, CheckContext, CheckReport, run_check_on_instance
from sqfpowers.defaults import DEFAULT_NODE_BUDGET
from sqfpowers.edge_ideals import edge_ideal, lambda_number, sqfree_power_via_matchings
from sqfpowers.families import all_graphs, random_graphs, random_squarefree_ideals
from sqfpowers.graphs import (
    builtin_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    to_graph6,
)
from sqfpowers.ideals import (
    MonomialIdeal,
    monomial,
    monomial_sort_key,
    monomial_vars,
    sqfree_power,
)
from sqfpowers.memo import BudgetExceeded, time_budget
from sqfpowers.matchings import matching_number
from strategies import mixed_ideals_st, squarefree_ideals_st


# ---------------------------------------------------------------------------
# rank over GF(p)

def _reference_gf_rank(matrix, p):
    """Simple textbook row reduction mod p, independent of the library's."""
    A = [[int(x) % p for x in row] for row in matrix]
    rank = 0
    rows = len(A)
    cols = len(A[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if A[r][c]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = pow(A[rank][c], p - 2, p)
        A[rank] = [(x * inv) % p for x in A[rank]]
        for r in range(rows):
            if r != rank and A[r][c]:
                f = A[r][c]
                A[r] = [(x - f * y) % p for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def test_gf_rank_small_knowns():
    assert gf_rank(np.eye(3, dtype=np.int64), 5) == 3
    assert gf_rank(np.zeros((2, 4), dtype=np.int64), 5) == 0
    assert gf_rank(np.zeros((0, 0), dtype=np.int64), 5) == 0
    # rank drops over GF(2): [[1,1],[1,-1]] is singular mod 2
    M = np.array([[1, 1], [1, -1]], dtype=np.int64)
    assert gf_rank(M, 2) == 1
    assert gf_rank(M, 32003) == 2
    # any sequence of integer rows; mod 2 every row is (1, 0)
    rows = [[1, 2], [3, 4], (5, -6)]
    assert gf_rank(rows, 2) == 1
    assert gf_rank(rows, 32003) == 2


def _random_matrix(rng, rows, cols):
    return np.array(
        [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    ).reshape(rows, cols)


def test_gf_rank_against_reference():
    rng = random.Random(42)
    # from 4294967311 on a product of two residues overflows int64
    for p in (2, 3, 32003, 4294967311):
        for _ in range(25):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            M = _random_matrix(rng, rows, cols)
            # random matrices are nearly always of full rank, which a wrong
            # nonzero entry keeps; a product of two factors has rank at most
            # the inner size, so a miscomputed entry changes it
            inner = rng.randint(0, min(rows, cols))
            L = _random_matrix(rng, rows, inner) @ _random_matrix(rng, inner, cols)
            for A in (M, L):
                assert gf_rank(A, p) == _reference_gf_rank(A.tolist(), p)


def _dense_boundary(prev_level, level):
    rows = {f: i for i, f in enumerate(prev_level)}
    A = [[0] * len(level) for _ in prev_level]
    for col, face in enumerate(level):
        for j, v in enumerate(monomial_vars(face)):
            A[rows[face ^ (1 << (v - 1))]][col] = (-1) ** j
    return A


def _full_complex(I, m):
    """Faces {F subset of m : m ^ F in I} by cardinality, every submask tested."""
    levels = [[] for _ in range(m.bit_count() + 1)]
    sub = m
    while True:
        if I.contains(m ^ sub):
            levels[sub.bit_count()].append(sub)
        if not sub:
            break
        sub = (sub - 1) & m
    return levels


def _trimmed(dims):
    dims = list(dims)
    while dims and not dims[-1]:
        dims.pop()
    return dims


# lcm lattice with degrees from 3 up to 12, so complexes on up to 12
# variables
BOTH_WALKS = MonomialIdeal.from_supports(
    12, [(1, 2, 3), (3, 4, 5), (6, 7, 8), (9, 10, 11), (11, 12, 1)]
)


@settings(max_examples=60, deadline=None)
@given(mixed_ideals_st(max_n=8), st.sampled_from([2, 3, 32003, 4294967311]))
# x4 is in no generator, so K^(x1x2x3x4) is a cone: many pivots get cleared
@example(MonomialIdeal.from_supports(4, [(1, 3), (2,)]), 3)
# the unit ideal: at m = 1 the complex is the empty face, with no vertex
@example(MonomialIdeal.unit(3), 2)
# x1 divides every generator, so at m = x1x2x3 it is not a vertex of K^m
@example(MonomialIdeal.from_supports(3, [(1, 2), (1, 3)]), 32003)
@example(BOTH_WALKS, 4294967311)
def test_homology_dims_with_clearing_match_separate_ranks(I, p):
    # the full complex, every boundary matrix ranked on its own, densely,
    # with no cone and no clearing, against the kernel's relative complex
    if I.is_zero:
        return
    table = _membership_table(I)
    for m in lcm_lattice(I.gens) + [(1 << I.n) - 1]:
        levels = _full_complex(I, m)
        ranks = [0] * (len(levels) + 1)
        for c in range(1, len(levels)):
            A = _dense_boundary(levels[c - 1], levels[c])
            ranks[c] = _reference_gf_rank(A, p)
        want = [len(levels[i]) - ranks[i] - ranks[i + 1] for i in range(len(levels))]
        got = _homology_dims(_face_levels(table, m), p)
        assert _trimmed(got) == _trimmed(want), (I, monomial_vars(m))


def test_is_prime_against_trial_division():
    def trial_division(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert all(_is_prime(p) == trial_division(p) for p in range(10**5))
    assert _is_prime(2**61 - 1)
    assert _is_prime(4294967311)
    # strong pseudoprime to every base up to 23
    assert not _is_prime(3825123056546413051)


# ---------------------------------------------------------------------------
# lcm lattice

def _subset_joins(gens):
    """The join of each nonempty subset of gens, one subset at a time."""
    return {
        functools.reduce(operator.or_, combo)
        for r in range(1, len(gens) + 1)
        for combo in itertools.combinations(gens, r)
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 255), unique=True, max_size=8))
@example([1, 2, 4])
@example([1 << v for v in range(8)])
def test_lattice_joins_are_the_joins_of_all_generator_subsets(gens):
    # g - 1 join passes suffice; dropping one more loses the joins of the
    # subsets with two members outside the generators joined in, as the
    # distinct variables of the examples show
    want = sorted(_subset_joins(gens), key=lambda m: (m.bit_count(), monomial_sort_key(m)))
    assert betti._lattice_joins(tuple(gens)) == want


def test_lcm_lattice_matches_subset_joins():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        gens = list(
            {
                monomial(rng.sample(range(1, n + 1), rng.randint(1, n)))
                for _ in range(rng.randint(1, 5))
            }
        )
        got = lcm_lattice(gens)
        assert set(got) == _subset_joins(gens)
        assert got == sorted(got, key=lambda m: (m.bit_count(), monomial_vars(m)))


# ---------------------------------------------------------------------------
# Betti tables against the exact-arithmetic oracle

def _oracle_cases(max_n):
    for n in range(2, max_n + 1):
        for G in all_graphs(n):
            I = edge_ideal(G)
            if I.is_zero:
                continue
            for k in range(1, matching_number(G) + 1):
                P = sqfree_power(I, k)
                if 0 < len(P.gens) <= 10:
                    yield to_graph6(G), k, P


def test_multigraded_betti_matches_taylor_oracle_exhaustively():
    for tag, k, P in _oracle_cases(5):
        want = oracles.taylor_betti_table(P)
        for p in (32003, 2):
            table = multigraded_betti(P, characteristic=p)
            assert table.entries == want, (tag, k, p)


@settings(max_examples=40, deadline=None)
@given(squarefree_ideals_st(max_n=5, max_gens=6))
def test_multigraded_betti_matches_taylor_oracle_property(I):
    if I.is_zero or I.is_unit:
        return
    want = oracles.taylor_betti_table(I)
    assert multigraded_betti(I).entries == want
    assert multigraded_betti(I, characteristic=2).entries == want


def test_large_characteristic_matches_default():
    P = sqfree_power_via_matchings(cycle_graph(7), 2)
    want = multigraded_betti(P).entries
    for p in (4294967311, 2**61 - 1):
        assert multigraded_betti(P, characteristic=p).entries == want


# Stanley-Reisner ideal of the 6-vertex real projective plane: the ten
# triangles that are not among its ten facets (every pair is an edge)
RP2_FACETS = {
    frozenset(map(int, f))
    for f in ("123", "134", "145", "156", "162", "235", "346", "452", "563", "624")
}
RP2 = MonomialIdeal.from_supports(
    6, [t for t in itertools.combinations(range(1, 7), 3) if frozenset(t) not in RP2_FACETS]
)


def test_rp2_table_depends_on_the_characteristic():
    # Hochster: b_{i,x1...x6} = dim H~_{4-i}(RP^2), which is nonzero only
    # mod 2 (H~_1 and H~_2 are GF(2)); it needs -1 = 1 in GF(2)
    want = oracles.taylor_betti_table(RP2)
    assert len(RP2.gens) == 10
    for p in (3, 32003):
        assert multigraded_betti(RP2, characteristic=p).entries == want
    full = monomial(range(1, 7))
    assert all(m != full for (_, m) in want)
    assert multigraded_betti(RP2, characteristic=2).entries == {
        **want,
        (2, full): 1,
        (3, full): 1,
    }


def _alternating_sums(table):
    """sum_i (-1)^i b_{i,m} per multidegree m != 1, where nonzero."""
    sums: dict[int, int] = {}
    for (i, m), v in table.entries.items():
        sums[m] = sums.get(m, 0) + (-1) ** i * v
    return {m: s for m, s in sums.items() if s and m}


@settings(max_examples=100, deadline=None)
@given(mixed_ideals_st(max_n=8), st.sampled_from([2, 32003]))
@example(MonomialIdeal.unit(3), 2)
@example(RP2, 2)
def test_alternating_sums_match_the_k_polynomial(I, p):
    # every multidegree, lattice or not, in both directions
    assert _alternating_sums(multigraded_betti(I, p)) == oracles.alternating_betti_sums(I)


@pytest.mark.parametrize(
    "G, k",
    [(path_graph(12), 3), (cycle_graph(12), 3), (path_graph(14), 4)],
    ids=["P12^[3]", "C12^[3]", "P14^[4]"],
)
def test_large_powers_match_the_k_polynomial(G, k):
    # the three powers whose tables the golden digests pin
    I = sqfree_power_via_matchings(G, k)
    assert _alternating_sums(multigraded_betti(I)) == oracles.alternating_betti_sums(I)


def _fraction_rank(rows):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = [x / mat[rank][col] for x in mat[rank]]
        mat[rank] = top
        for r in range(len(mat)):
            factor = mat[r][col]
            if r != rank and factor:
                mat[r] = [a - factor * b for a, b in zip(mat[r], top)]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), max_size=7
        )
    )
)
def test_oracle_rank_agrees_with_fraction_elimination(rows):
    assert oracles.rational_rank(rows) == _fraction_rank(rows)


def _sorted_levels(levels):
    return [sorted(level) for level in levels]


@settings(max_examples=60, deadline=None)
@given(squarefree_ideals_st(max_n=12, max_gens=6))
@example(BOTH_WALKS)
def test_table_faces_match_generator_scan(I):
    # membership from the table against the generators used above
    # TABLE_MAX_VARS, through the same walk
    if I.is_zero:
        return
    table = _membership_table(I)
    for m in lcm_lattice(I.gens) + [(1 << I.n) - 1]:
        scan = _face_levels(_DividingGenerators(I.gens, m), m)
        assert _sorted_levels(_face_levels(table, m)) == _sorted_levels(scan)


def test_scan_above_table_limit_matches_taylor_oracle():
    # edge ideal of a 9-cycle spread over 26 variables: no membership table
    cycle = [1, 4, 8, 12, 16, 20, 23, 25, 26]
    I = MonomialIdeal.from_supports(26, [(cycle[i - 1], cycle[i]) for i in range(9)])
    assert I.n > TABLE_MAX_VARS and _membership_table(I) is None
    assert multigraded_betti(I).entries == oracles.taylor_betti_table(I)


@settings(max_examples=40, deadline=None)
@given(mixed_ideals_st(max_n=9, max_gens=6), st.sampled_from([2, 32003]))
def test_table_does_not_depend_on_the_number_of_variables(I, p):
    # the same generators on n, n + 3 and 26 > TABLE_MAX_VARS variables, so
    # through both membership lookups: the walk of K^m only visits divisors
    # of m, which is why the table memo may leave n out of its key
    first, *rest = (
        multigraded_betti(MonomialIdeal(n2, I.gens), p)
        for n2 in (I.n, I.n + 3, TABLE_MAX_VARS + 2)
    )
    for table in rest:
        assert (table.entries, table.gen_degree) == (first.entries, first.gen_degree)


def test_variable_ideal_is_koszul():
    # the ideal of all n variables resolves with binomial Betti numbers,
    # one for each multidegree
    for n in (2, 3, 4, 5):
        I = MonomialIdeal.from_supports(n, [(v,) for v in range(1, n + 1)])
        table = multigraded_betti(I)
        graded = table.graded()
        for i in range(n):
            assert sum(v for (j, _), v in graded.items() if j == i) == math.comb(n, i + 1)
        assert all(v == 1 for v in table.entries.values())
        assert all(m.bit_count() == i + 1 for (i, m) in table.entries)
        assert table.regularity() == 1
        assert table.projective_dimension() == n - 1


def test_pinned_diagrams():
    # I(C7)^[2]: 14 generators, regularity 5, one top socle class
    P = sqfree_power_via_matchings(cycle_graph(7), 2)
    table = multigraded_betti(P)
    assert table.graded() == {(0, 4): 14, (1, 5): 21, (2, 6): 7, (2, 7): 1}
    graded = table.graded()
    assert [sum(v for (j, _), v in graded.items() if j == i) for i in range(3)] == [14, 21, 8]
    assert table.regularity() == 5
    assert table.projective_dimension() == 2
    assert render_betti_diagram(table) == (
        "       0   1  2\n"
        "  4:  14  21  7\n"
        "  5:   -   -  1\n"
        "Tot:  14  21  8"
    )


def test_render_small_diagram():
    I = edge_ideal(path_graph(3))
    assert render_betti_diagram(multigraded_betti(I)) == (
        "      0  1\n"
        "  2:  2  1\n"
        "Tot:  2  1"
    )


def test_render_betti_diagram_zero_ideal():
    text = render_betti_diagram(multigraded_betti(MonomialIdeal.zero(4)))
    assert text == "(zero ideal: empty Betti diagram, regularity 1 by convention)"


def test_zero_ideal_conventions():
    # the zero ideal has the zero resolution: the empty table
    table = multigraded_betti(MonomialIdeal.zero(3))
    assert table.entries == {} and table.graded() == {}
    assert table.regularity() == 1
    assert table.is_linear()
    assert table.projective_dimension() is None
    assert regularity(MonomialIdeal.zero(3)) == 1
    with pytest.raises(ValueError):
        projective_dimension(MonomialIdeal.zero(3))
    assert has_linear_resolution(MonomialIdeal.zero(3))
    assert is_linearly_related_homological(MonomialIdeal.zero(3))
    assert is_linearly_related_combinatorial(MonomialIdeal.zero(3))


def test_the_zero_ideal_builds_no_membership_table(monkeypatch):
    # 2^24 bytes would take most of a second; the empty table needs none
    def refuse(I):
        raise AssertionError("membership table built")

    monkeypatch.setattr("sqfpowers.betti._membership_table", refuse)
    assert multigraded_betti(MonomialIdeal.zero(TABLE_MAX_VARS)).entries == {}


def test_input_validation():
    I = edge_ideal(path_graph(3))
    with pytest.raises(ValueError):
        multigraded_betti(I, characteristic=4)
    with pytest.raises(ValueError):
        multigraded_betti(I, characteristic=1)
    with pytest.raises(ValueError):
        multigraded_betti(I, characteristic=2**89 - 1)  # prime, above 2^64
    with pytest.raises(BudgetExceeded), time_budget(0):
        multigraded_betti(I)


def test_every_homological_route_rejects_a_bad_characteristic():
    I = sqfree_power_via_matchings(cycle_graph(7), 2)
    routes = (
        multigraded_betti,
        projective_dimension,
        is_linearly_related_homological,
        regularity,
        has_linear_resolution,
    )
    for bad in (4, 1, 2**89 - 1):
        # every route reads the table, which validates the characteristic,
        # the zero ideal's empty table included
        for J in (I, MonomialIdeal.zero(3)):
            for route in routes:
                with pytest.raises(ValueError):
                    route(J, bad)
    assert is_linearly_related_homological(I)
    # the route reads the Betti table, so it keeps the table's budget and cap
    with pytest.raises(BudgetExceeded), time_budget(0):
        is_linearly_related_homological(I)
    big = MonomialIdeal.from_supports(14, itertools.combinations(range(1, 15), 5))
    assert len(big.gens) == 2002 > GENERATOR_CAP
    with pytest.raises(ValueError):
        is_linearly_related_homological(big)


def test_time_budget_restores_the_outer_bound():
    I = edge_ideal(path_graph(3))
    with time_budget(600):
        with time_budget(0):
            with pytest.raises(BudgetExceeded):
                multigraded_betti(I)
        assert multigraded_betti(I).regularity() == 2
        with pytest.raises(RuntimeError), time_budget(0):
            raise RuntimeError("left by an exception")
        assert multigraded_betti(I).regularity() == 2
        with time_budget(None):
            assert multigraded_betti(I).regularity() == 2
    with pytest.raises(BudgetExceeded), time_budget(0):
        with time_budget(600):
            assert multigraded_betti(I).regularity() == 2
        multigraded_betti(I)
    assert multigraded_betti(I).regularity() == 2


def test_the_budget_is_checked_inside_one_face_walk(monkeypatch):
    # a clock that stands still until a walk starts, then reads one tick
    # later at each reading; a budget of 1.5 ticks expires at the second
    # budget check inside the walks
    I = sqfree_power_via_matchings(cycle_graph(7), 2)
    table = _membership_table(I)
    top = lcm_lattice(I.gens)[-1]
    assert len(_face_levels(table, top)) >= 2
    interrupted = []

    def walk(member, m):
        clock.started = True
        try:
            return _face_levels(member, m)
        except BudgetExceeded:
            interrupted.append(m)
            raise

    def monotonic():
        clock.ticks += clock.started
        return clock.ticks

    monkeypatch.setattr(betti, "_face_levels", walk)
    monkeypatch.setattr(memo, "time", SimpleNamespace(monotonic=monotonic))
    clock = SimpleNamespace(started=False, ticks=0)
    with pytest.raises(BudgetExceeded), time_budget(1.5):
        betti._face_levels(table, top)
    assert interrupted == [top]
    # a budgeted check that runs out inside a walk reports inconclusive
    clock = SimpleNamespace(started=False, ticks=0)
    ctx = CheckContext(time_budget_s=1.5)
    [report] = run_check_on_instance("first-syzygy-degree-bound", cycle_graph(7), ctx)
    assert report._replace(millis=0) == CheckReport(
        "first-syzygy-degree-bound", "g6:FhCKG", INCONCLUSIVE,
        {"reason": "time budget exhausted"}, 0,
    )
    assert len(interrupted) == 2


def test_time_budget_bounds_nested_library_calls():
    # lambda_number passes nothing on; its linear-relatedness tests read the
    # request's budget
    with pytest.raises(BudgetExceeded), time_budget(0):
        lambda_number(cycle_graph(7))
    assert lambda_number(cycle_graph(7)) == 2


@pytest.mark.parametrize("seconds", [float("nan"), -1, -0.5])
def test_time_budget_rejects_a_negative_or_nan_budget(seconds):
    with pytest.raises(ValueError, match="time budget"):
        with time_budget(seconds):
            raise AssertionError("the body ran")


def test_a_zero_time_budget_is_spent_at_the_first_check(monkeypatch):
    # a clock that stands still: the deadline is the moment of entry
    monkeypatch.setattr(memo, "time", SimpleNamespace(monotonic=lambda: 5.0))
    with pytest.raises(BudgetExceeded), time_budget(0):
        memo.check_deadline()
    with time_budget(1):
        memo.check_deadline()


@pytest.mark.parametrize("node_budget", [-1, 1.5])
def test_linear_quotients_order_rejects_a_bad_node_budget(node_budget):
    with pytest.raises(ValueError, match="node budget"):
        linear_quotients_order(edge_ideal(cycle_graph(4)), node_budget)


def test_regularity_knowns():
    assert regularity(edge_ideal(path_graph(3))) == 2
    assert regularity(edge_ideal(cycle_graph(7))) == 3
    assert regularity(edge_ideal(complete_graph(4))) == 2
    assert regularity(MonomialIdeal.unit(3)) == 0


# ---------------------------------------------------------------------------
# linear resolution and linear relatedness

def test_linear_resolution_knowns():
    assert has_linear_resolution(edge_ideal(path_graph(3)))
    assert has_linear_resolution(edge_ideal(complete_graph(5)))
    assert not has_linear_resolution(edge_ideal(cycle_graph(7)))
    assert not has_linear_resolution(
        sqfree_power_via_matchings(cycle_graph(7), 2)
    )
    assert has_linear_resolution(sqfree_power_via_matchings(cycle_graph(7), 3))


def test_linearly_related_knowns():
    P = sqfree_power_via_matchings(cycle_graph(7), 2)
    assert is_linearly_related_combinatorial(P)
    assert is_linearly_related_homological(P)
    F = sqfree_power_via_matchings(builtin_graph("fig1"), 3)
    assert not is_linearly_related_combinatorial(F)
    assert not is_linearly_related_homological(F)


def test_linrel_routes_agree_exhaustively():
    for tag, k, P in _oracle_cases(5):
        assert is_linearly_related_combinatorial(P) == is_linearly_related_homological(P), (tag, k)


@settings(max_examples=50, deadline=None)
@given(squarefree_ideals_st(max_n=6, max_gens=7))
def test_linrel_routes_agree_property(I):
    assert is_linearly_related_combinatorial(I) == is_linearly_related_homological(I)


@settings(max_examples=50, deadline=None)
@given(squarefree_ideals_st(max_n=7, max_gens=8))
def test_homological_linrel_matches_taylor_oracle(I):
    # linearly related: no first syzygy of the Taylor resolution off degree d + 1
    d = I.pure_degree()
    expected = all(
        m.bit_count() == d + 1
        for (i, m) in oracles.taylor_betti_table(I)
        if i == 1
    )
    assert is_linearly_related_homological(I) == expected


# ---------------------------------------------------------------------------
# syzygy witnesses

def test_witness_structure():
    I = edge_ideal(path_graph(3))
    m = monomial([1, 2, 3])
    report = first_syzygy_witness(I, m)
    assert report.pairs == ((monomial([1, 2]), monomial([2, 3]), None),)
    assert not report.all_covered


def test_witness_soundness():
    # a fully covered witness report certifies a vanishing first syzygy
    # space; squarefree powers of edge ideals give many covered reports
    ideals = list(random_squarefree_ideals(60, max_n=7, max_gens=7, seed=5))
    ideals += [
        sqfree_power_via_matchings(G, k)
        for G in random_graphs(60, max_n=7, seed=5)
        for k in range(1, matching_number(G) + 1)
    ]
    covered = 0
    for I in ideals:
        if I.is_zero:
            continue
        entries = multigraded_betti(I).entries
        for m in lcm_lattice(I.gens):
            report = first_syzygy_witness(I, m)
            if report.pairs and report.all_covered:
                covered += 1
                assert (1, m) not in entries, (I, monomial_vars(m))
    assert covered >= 300


# ---------------------------------------------------------------------------
# linear quotients

def test_is_linear_quotients_order_knowns():
    x12, x23, x34 = monomial([1, 2]), monomial([2, 3]), monomial([3, 4])
    assert oracles.is_linear_quotients_order((x12, x23))
    assert oracles.is_linear_quotients_order((x12, x23, x34))
    assert not oracles.is_linear_quotients_order((x12, x34))
    assert oracles.is_linear_quotients_order(())
    assert oracles.is_linear_quotients_order((x12,))


def test_linear_quotients_search_knowns():
    # a disjoint pair of edges never has linear quotients
    I = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
    res = linear_quotients_order(I)
    assert res.status == "none" and res.order is None and not res.found
    # the path ideal does, in some order
    J = edge_ideal(path_graph(4))
    res = linear_quotients_order(J)
    assert res.found and oracles.is_linear_quotients_order(res.order)
    assert set(res.order) == set(J.gens)
    # the square of the 7-cycle is linearly related but has no linear
    # quotients (its resolution is not linear)
    P = sqfree_power_via_matchings(cycle_graph(7), 2)
    assert linear_quotients_order(P).status == "none"
    # the top power does
    T = sqfree_power_via_matchings(cycle_graph(7), 3)
    res = linear_quotients_order(T)
    assert res.found and oracles.is_linear_quotients_order(res.order)


def test_linear_quotients_edge_cases():
    assert linear_quotients_order(MonomialIdeal.zero(3)).found
    assert linear_quotients_order(MonomialIdeal.unit(3)).found
    single = MonomialIdeal.from_supports(3, [(1, 2)])
    assert linear_quotients_order(single).order == single.gens
    with pytest.raises(ValueError):
        linear_quotients_order(MonomialIdeal.from_supports(3, [(1,), (2, 3)]))


def test_linear_quotients_budget():
    I = edge_ideal(complete_graph(5))
    res = linear_quotients_order(I, node_budget=0)
    assert res.status == "inconclusive" and res.order is None


def test_linear_quotients_certificate_agrees_with_search():
    # "none" certified by linear relatedness must be confirmed by the full
    # search, and every ideal that passes the test is searched as before
    certified = 0
    for n in range(2, 7):
        for G in all_graphs(n):
            for k in range(1, matching_number(G) + 1):
                P = sqfree_power_via_matchings(G, k)
                res = linear_quotients_order(P)
                search = search_linear_quotients(P, DEFAULT_NODE_BUDGET)
                assert search.status in ("found", "none"), (to_graph6(G), k)
                if res.reason is None:
                    assert res == search, (to_graph6(G), k)
                else:
                    assert (res.status, res.order, res.nodes, res.reason) == (
                        "none", None, 0, "not linearly related"
                    ), (to_graph6(G), k)
                    assert search.status == "none", (to_graph6(G), k)
                    certified += 1
    assert certified > 0


def _search_ranking(I: MonomialIdeal) -> list[int]:
    """The generators in the order the search tries them: those with the
    most generators at linear distance first, then in monomial order."""
    gens = I.gens
    d = gens[0].bit_count()
    mates = {u: sum((t | u).bit_count() == d + 1 for t in gens if t != u) for u in gens}
    return sorted(gens, key=lambda u: (-mates[u], monomial_sort_key(u)))


@settings(max_examples=150, deadline=None)
@given(squarefree_ideals_st(max_n=7, max_gens=7))
@example(MonomialIdeal.from_supports(4, [(1, 2), (3, 4)]))
@example(sqfree_power_via_matchings(path_graph(5), 2))
def test_pruned_search_agrees_with_unpruned_oracle(I):
    # the precedence constraints skip only subtrees that hold no order, so
    # the search finds the first order of the unpruned depth-first search
    res = search_linear_quotients(I, DEFAULT_NODE_BUDGET)
    assert res.status in ("found", "none")
    assert res.order == oracles.first_linear_quotients_order(_search_ranking(I))


def test_a_linearly_related_ideal_gets_no_precedence_constraint():
    constrained = 0
    for n in range(2, 7):
        for G in all_graphs(n):
            for k in range(1, matching_number(G) + 1):
                P = sqfree_power_via_matchings(G, k)
                before = _precedence(P.gens)
                if is_linearly_related_combinatorial(P):
                    assert not any(before), (to_graph6(G), k)
                else:
                    constrained += any(before)
    assert constrained > 0


def test_linear_quotients_implies_linear_resolution():
    for n in range(2, 7):
        for G in all_graphs(n):
            I = edge_ideal(G)
            if I.is_zero:
                continue
            for k in range(1, matching_number(G) + 1):
                P = sqfree_power(I, k)
                res = linear_quotients_order(P)
                assert res.status in ("found", "none"), (to_graph6(G), k)
                if res.found:
                    assert oracles.is_linear_quotients_order(res.order)
                    assert has_linear_resolution(P), (to_graph6(G), k)
