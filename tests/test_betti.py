"""Multigraded Betti numbers over GF(p) against an exact-arithmetic oracle."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sqfpowers.betti import (
    DEFAULT_CHARACTERISTIC,
    NUMPY_WALK_MIN_DEGREE,
    TABLE_MAX_VARS,
    BettiTable,
    BudgetExceeded,
    betti_diagram_text,
    first_syzygy_betti,
    first_syzygy_witness,
    gf_rank,
    has_linear_resolution,
    is_linear_quotients_order,
    is_linearly_related_combinatorial,
    is_linearly_related_homological,
    lcm_lattice,
    linear_quotients_order,
    multigraded_betti,
    projective_dimension,
    regularity,
    render_betti_diagram,
    _face_levels,
    _homology_dims,
    _is_prime,
    _membership_table,
)
from sqfpowers.edge_ideals import edge_ideal, sqfree_power_via_matchings
from sqfpowers.families import all_graphs, random_squarefree_ideals
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
    monomial_degree,
    monomial_lcm,
    monomial_vars,
    sqfree_power,
)
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


@settings(max_examples=60, deadline=None)
@given(mixed_ideals_st(max_n=8), st.sampled_from([2, 3, 32003, 4294967311]))
# x4 is in no generator, so K^(x1x2x3x4) is a cone: many pivots get cleared
@example(MonomialIdeal.from_supports(4, [(1, 3), (2,)]), 3)
def test_homology_dims_with_clearing_match_separate_ranks(I, p):
    # every boundary matrix ranked on its own, densely, with no clearing
    if I.is_zero:
        return
    table = _membership_table(I)
    for m in lcm_lattice(I.gens) + [(1 << I.n) - 1]:
        levels = _face_levels(I, m, table)
        ranks = [0] * (len(levels) + 1)
        for c in range(1, len(levels)):
            A = _dense_boundary(levels[c - 1], levels[c])
            ranks[c] = _reference_gf_rank(A, p)
        want = [len(levels[i]) - ranks[i] - ranks[i + 1] for i in range(len(levels))]
        assert _homology_dims(levels, p) == want


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
        want = set()
        for r in range(1, len(gens) + 1):
            for combo in itertools.combinations(gens, r):
                m = 0
                for g in combo:
                    m |= g
                want.add(m)
        got = lcm_lattice(gens)
        assert set(got) == want
        assert got == sorted(got, key=lambda m: (monomial_degree(m), monomial_vars(m)))


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


def _sorted_levels(levels):
    return [sorted(level) for level in levels]


# lcm lattice with degrees on both sides of NUMPY_WALK_MIN_DEGREE
BOTH_WALKS = MonomialIdeal.from_supports(
    12, [(1, 2, 3), (3, 4, 5), (6, 7, 8), (9, 10, 11), (11, 12, 1)]
)


@settings(max_examples=60, deadline=None)
@given(squarefree_ideals_st(max_n=12, max_gens=6))
@example(BOTH_WALKS)
def test_table_faces_match_generator_scan(I):
    # the table walks (Python below NUMPY_WALK_MIN_DEGREE, numpy from there)
    # and the max_card enumeration against the scan used above TABLE_MAX_VARS
    if I.is_zero:
        return
    table = _membership_table(I)
    for m in lcm_lattice(I.gens) + [(1 << I.n) - 1]:
        scan = _face_levels(I, m)
        assert _sorted_levels(_face_levels(I, m, table)) == _sorted_levels(scan)
        assert _face_levels(I, m, table, max_card=2) == _face_levels(I, m, max_card=2)


def test_table_faces_cover_both_walks():
    degrees = {monomial_degree(m) for m in lcm_lattice(BOTH_WALKS.gens)}
    assert min(degrees) < NUMPY_WALK_MIN_DEGREE <= max(degrees)


def test_scan_above_table_limit_matches_taylor_oracle():
    # edge ideal of a 9-cycle spread over 26 variables: no membership table
    cycle = [1, 4, 8, 12, 16, 20, 23, 25, 26]
    I = MonomialIdeal.from_supports(26, [(cycle[i - 1], cycle[i]) for i in range(9)])
    assert I.n > TABLE_MAX_VARS and _membership_table(I) is None
    assert multigraded_betti(I).entries == oracles.taylor_betti_table(I)


def test_variable_ideal_is_koszul():
    # the ideal of all n variables resolves with binomial Betti numbers,
    # one for each multidegree
    for n in (2, 3, 4, 5):
        I = MonomialIdeal.from_supports(n, [(v,) for v in range(1, n + 1)])
        table = multigraded_betti(I)
        for i in range(n):
            import math

            assert table.total(i) == math.comb(n, i + 1)
        assert all(v == 1 for v in table.entries.values())
        assert all(monomial_degree(m) == i + 1 for (i, m) in table.entries)
        assert table.regularity() == 1
        assert table.projective_dimension() == n - 1


def test_pinned_diagrams():
    # I(C7)^[2]: 14 generators, regularity 5, one top socle class
    P = sqfree_power_via_matchings(cycle_graph(7), 2)
    table = multigraded_betti(P)
    assert table.graded() == {(0, 4): 14, (1, 5): 21, (2, 6): 7, (2, 7): 1}
    assert [table.total(i) for i in range(3)] == [14, 21, 8]
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


def test_betti_diagram_text_zero_ideal():
    text = betti_diagram_text(MonomialIdeal.zero(4))
    assert "zero ideal" in text and "regularity 1" in text


def test_table_json_roundtrip():
    table = multigraded_betti(edge_ideal(builtin_graph("fig1")))
    blob = table.to_json()
    assert '"char"' in blob
    assert BettiTable.from_json(blob) == table


def test_zero_ideal_conventions():
    assert regularity(MonomialIdeal.zero(3)) == 1
    with pytest.raises(ValueError):
        projective_dimension(MonomialIdeal.zero(3))
    with pytest.raises(ValueError):
        multigraded_betti(MonomialIdeal.zero(3))
    assert has_linear_resolution(MonomialIdeal.zero(3))
    assert is_linearly_related_homological(MonomialIdeal.zero(3))
    assert is_linearly_related_combinatorial(MonomialIdeal.zero(3))


def test_input_validation():
    I = edge_ideal(path_graph(3))
    with pytest.raises(ValueError):
        multigraded_betti(I, characteristic=4)
    with pytest.raises(ValueError):
        multigraded_betti(I, characteristic=1)
    with pytest.raises(ValueError):
        multigraded_betti(I, characteristic=2**89 - 1)  # prime, above 2^64
    with pytest.raises(ValueError):
        multigraded_betti(I, generator_cap=1)
    with pytest.raises(BudgetExceeded):
        multigraded_betti(I, deadline=time.monotonic() - 1)


def test_every_homological_route_rejects_a_bad_characteristic():
    I = sqfree_power_via_matchings(cycle_graph(7), 2)
    m = I.gens[0] | I.gens[1]
    for bad in (4, 1, 2**89 - 1):
        with pytest.raises(ValueError):
            first_syzygy_betti(I, m, characteristic=bad)
        with pytest.raises(ValueError):
            is_linearly_related_homological(I, characteristic=bad)
    assert is_linearly_related_homological(I)


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


def test_first_syzygy_betti_equals_table_slice():
    for I in (
        edge_ideal(cycle_graph(7)),
        sqfree_power_via_matchings(cycle_graph(7), 2),
        edge_ideal(builtin_graph("fig1")),
        sqfree_power_via_matchings(builtin_graph("fig2"), 2),
    ):
        table = multigraded_betti(I)
        for m in lcm_lattice(I.gens):
            assert first_syzygy_betti(I, m) == table.entries.get((1, m), 0)


# ---------------------------------------------------------------------------
# syzygy witnesses

def test_witness_structure():
    I = edge_ideal(path_graph(3))
    m = monomial([1, 2, 3])
    report = first_syzygy_witness(I, m)
    assert report.m == m
    assert report.pairs == ((monomial([1, 2]), monomial([2, 3]), None),)
    assert not report.all_covered


def test_witness_soundness():
    # a fully covered witness report certifies a vanishing first syzygy space
    for I in random_squarefree_ideals(60, max_n=7, max_gens=7, seed=5):
        if I.is_zero:
            continue
        for m in lcm_lattice(I.gens):
            report = first_syzygy_witness(I, m)
            if report.pairs and report.all_covered:
                assert first_syzygy_betti(I, m) == 0, (I, monomial_vars(m))


# ---------------------------------------------------------------------------
# linear quotients

def test_is_linear_quotients_order_knowns():
    x12, x23, x34 = monomial([1, 2]), monomial([2, 3]), monomial([3, 4])
    assert is_linear_quotients_order((x12, x23))
    assert is_linear_quotients_order((x12, x23, x34))
    assert not is_linear_quotients_order((x12, x34))
    assert is_linear_quotients_order(())
    assert is_linear_quotients_order((x12,))


def test_linear_quotients_search_knowns():
    # a disjoint pair of edges never has linear quotients
    I = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
    res = linear_quotients_order(I)
    assert res.status == "none" and res.order is None and not res.found
    # the path ideal does, in some order
    J = edge_ideal(path_graph(4))
    res = linear_quotients_order(J)
    assert res.found and is_linear_quotients_order(res.order)
    assert set(res.order) == set(J.gens)
    # the square of the 7-cycle is linearly related but has no linear
    # quotients (its resolution is not linear)
    P = sqfree_power_via_matchings(cycle_graph(7), 2)
    assert linear_quotients_order(P).status == "none"
    # the top power does
    T = sqfree_power_via_matchings(cycle_graph(7), 3)
    res = linear_quotients_order(T)
    assert res.found and is_linear_quotients_order(res.order)


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
                    assert is_linear_quotients_order(res.order)
                    assert has_linear_resolution(P), (to_graph6(G), k)
