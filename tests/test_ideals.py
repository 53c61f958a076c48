"""Squarefree monomial ideals: arithmetic, powers, colons, text format."""

import itertools
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sqfpowers import ideals
from sqfpowers.edge_ideals import edge_ideal
from sqfpowers.families import random_squarefree_ideals
from sqfpowers.graphs import cycle_graph
from sqfpowers.ideals import (
    MonomialIdeal,
    colon_by_monomial,
    colon_ideal,
    format_ideal,
    ideal_sum,
    intersect,
    minimalize,
    monomial,
    monomial_divides,
    monomial_sort_key,
    monomial_str,
    monomial_vars,
    parse_ideal,
    ratliff_check,
    restrict,
    sqfree_power,
)
from strategies import mixed_ideals_st, squarefree_ideals_st


# ---------------------------------------------------------------------------
# monomial helpers

def test_monomial_mask_roundtrip():
    m = monomial([3, 1, 5])
    assert m == 0b10101
    assert monomial_vars(m) == (1, 3, 5)
    assert monomial(()) == 0
    assert monomial_vars(0) == ()
    assert monomial_str(m) == "x1*x3*x5"
    assert monomial_str(0) == "1"


def test_monomial_arithmetic():
    a, b = monomial([1, 2]), monomial([2, 3])
    assert colon_by_monomial(MonomialIdeal(3, (a,)), b).gens == (monomial([1]),)
    assert colon_by_monomial(MonomialIdeal(3, (b,)), a).gens == (monomial([3]),)
    assert monomial_divides(monomial([2]), a)
    assert not monomial_divides(a, b)
    assert monomial_divides(0, a)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0), st.integers(0, 255), st.integers(0, (1 << 64) - 1)),
        min_size=2,
        max_size=12,
    )
)
def test_monomial_sort_key_orders_as_the_variable_tuples(masks):
    assert sorted(masks, key=monomial_sort_key) == sorted(masks, key=monomial_vars)


def test_monomial_sort_key_small_masks_exhaustively():
    masks = range(256)
    assert sorted(masks, key=monomial_sort_key) == sorted(masks, key=monomial_vars)
    assert monomial_sort_key(0) == "" and monomial_sort_key(0b101) == "aba"


# ---------------------------------------------------------------------------
# the ideal type

def test_ideal_value_semantics():
    I = MonomialIdeal(3, (monomial([1, 2]), monomial([2, 3])))
    J = minimalize(3, [monomial([2, 3]), monomial([1, 2]), monomial([1, 2, 3])])
    assert I == J and hash(I) == hash(J) and len({I, J}) == 1
    assert I != MonomialIdeal(4, I.gens)
    assert I != MonomialIdeal(3, (monomial([1, 2]),))
    assert I != (3, I.gens)
    assert repr(I) == "MonomialIdeal(n=3, gens=(3, 6))"
    for name in ("n", "gens", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(I, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(I, name)
    back = pickle.loads(pickle.dumps(I))
    assert back == I and back.gens == (3, 6) and back.n == 3
    with pytest.raises(AttributeError):
        back.gens = ()
    for args, message in (
        ((65, ()), "variable count 65 outside 0..64"),
        ((2, (monomial([3]),)), "generator x3 uses variables beyond n=2"),
        ((3, (monomial([2]), monomial([1]))), "generators must be sorted and duplicate-free"),
        ((3, (monomial([1]), monomial([1]))), "generators must be sorted and duplicate-free"),
        ((3, (monomial([1, 2]), monomial([2]))), "generators must form an antichain"),
    ):
        with pytest.raises(ValueError, match=message):
            MonomialIdeal(*args)
    # the trusted path checks the variables only
    with pytest.raises(ValueError, match="generator x3 uses variables beyond n=2"):
        MonomialIdeal._trusted(2, (monomial([3]),))
    assert MonomialIdeal._trusted(3, (monomial([2]), monomial([1, 2]))).gens == (2, 3)


def test_ideal_validation():
    with pytest.raises(ValueError):
        MonomialIdeal(2, (monomial([3]),))  # variable beyond n
    with pytest.raises(ValueError):
        MonomialIdeal(3, (monomial([1, 2]), monomial([2])))  # sorted, not an antichain
    with pytest.raises(ValueError):
        MonomialIdeal(3, (monomial([2]), monomial([1])))  # unsorted
    with pytest.raises(ValueError):
        MonomialIdeal(65, ())


def test_zero_and_unit():
    Z = MonomialIdeal.zero(3)
    U = MonomialIdeal.unit(3)
    assert Z.is_zero and not Z.is_unit
    assert U.is_unit and not U.is_zero
    assert not Z.contains(monomial([1]))
    assert U.contains(0)
    assert Z.pure_degree() is None
    assert U.pure_degree() == 0


def test_from_supports_minimalizes():
    I = MonomialIdeal.from_supports(4, [(1, 2), (1, 2, 3), (3, 4)])
    assert I.gens == (monomial([1, 2]), monomial([3, 4]))
    assert I.pure_degree() == 2
    J = MonomialIdeal.from_supports(4, [(1,), (2, 3)])
    assert J.generator_degrees() == (1, 2)
    with pytest.raises(ValueError):
        J.pure_degree()


def test_minimalize_matches_oracle():
    masks = [monomial(s) for s in [(1, 2), (2,), (1, 2, 3), (3, 4), (4, 3)]]
    I = minimalize(4, masks)
    assert set(I.gens) == oracles.minimal_masks(masks)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 9).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=14)
        )
    )
)
def test_trusted_construction_equals_a_validated_ideal(case):
    # minimalize and restrict skip the order and antichain checks of the
    # public constructor; their results must pass those checks anyway
    n, masks = case
    I = minimalize(n, masks)
    assert I == MonomialIdeal(n, I.gens)
    assert set(I.gens) == oracles.minimal_masks(masks)
    for m in masks[:3] + [(1 << n) - 1]:
        R = restrict(I, m)
        assert R == MonomialIdeal(n, tuple(sorted(R.gens, key=monomial_vars)))
        assert set(R.gens) == {g for g in I.gens if monomial_divides(g, m)}
    with pytest.raises(ValueError):
        minimalize(n, [1 << n])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=24)
        )
    )
)
def test_minimalize_compares_only_across_degrees(case):
    # Distinct masks of one degree never divide each other, so minimalize
    # tests a mask only against kept generators of strictly lower degree.
    n, masks = case
    pairs = []

    def divides(u, v):
        pairs.append((u, v))
        return monomial_divides(u, v)

    with mock.patch.object(ideals, "monomial_divides", divides):
        I = minimalize(n, masks)
    assert set(I.gens) == oracles.minimal_masks(masks)
    assert all(u.bit_count() < v.bit_count() for u, v in pairs)


def test_contains():
    I = MonomialIdeal.from_supports(4, [(1, 2)])
    assert I.contains(monomial([1, 2]))
    assert I.contains(monomial([1, 2, 4]))
    assert not I.contains(monomial([1, 4]))
    assert not I.contains(0)


# ---------------------------------------------------------------------------
# squarefree powers

def test_sqfree_power_edge_cases():
    I = MonomialIdeal.from_supports(4, [(1, 2), (3, 4), (2, 3)])
    assert sqfree_power(I, 0) == MonomialIdeal.unit(4)
    assert sqfree_power(I, 1) == I
    assert sqfree_power(I, 2) == MonomialIdeal.from_supports(4, [(1, 2, 3, 4)])
    assert sqfree_power(I, 3).is_zero
    assert sqfree_power(MonomialIdeal.zero(3), 2).is_zero
    with pytest.raises(ValueError):
        sqfree_power(I, -1)


def test_sqfree_power_matches_membership_oracle():
    ideals = random_squarefree_ideals(40, max_n=6, max_gens=6, seed=7)
    for I in ideals:
        for k in range(1, 4):
            P = sqfree_power(I, k)
            want = oracles.brute_sqfree_power_members(I, k)
            got = {m for m in range(1 << I.n) if P.contains(m)}
            assert got == want, (I, k)


@settings(max_examples=60, deadline=None)
@given(mixed_ideals_st(max_n=6, max_gens=6))
def test_sqfree_power_membership_property(I):
    for k in (2, 3):
        P = sqfree_power(I, k)
        want = oracles.brute_sqfree_power_members(I, k)
        assert {m for m in range(1 << I.n) if P.contains(m)} == want


# ---------------------------------------------------------------------------
# colon and intersection

def _brute_members(I):
    return {m for m in range(1 << I.n) if I.contains(m)}


def test_colon_intersect_sum_match_brute_membership():
    ideals = random_squarefree_ideals(30, max_n=6, max_gens=6, seed=11)
    for I, J in itertools.combinations(ideals, 2):
        if I.n != J.n:
            continue
        mi, mj = _brute_members(I), _brute_members(J)
        assert _brute_members(intersect(I, J)) == (mi & mj)
        assert _brute_members(ideal_sum(I, J)) == (mi | mj)
        if not J.is_zero:
            K = colon_ideal(I, J)
            want = {
                m
                for m in range(1 << I.n)
                if all(I.contains(m | g) for g in J.gens)
            }
            assert _brute_members(K) == want


def test_colon_by_monomial():
    I = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
    assert colon_by_monomial(I, monomial([1])) == MonomialIdeal.from_supports(
        4, [(2,), (3, 4)]
    )
    assert colon_by_monomial(I, monomial([1, 2])) == MonomialIdeal.unit(4)
    assert colon_ideal(I, I) == MonomialIdeal.unit(4)
    with pytest.raises(ValueError):
        colon_ideal(I, MonomialIdeal.zero(4))
    with pytest.raises(ValueError):
        colon_ideal(I, MonomialIdeal.zero(3))


def test_restrict():
    I = MonomialIdeal.from_supports(4, [(1, 2), (3, 4), (2, 3)])
    R = restrict(I, monomial([1, 2, 3]))
    assert R == MonomialIdeal.from_supports(4, [(1, 2), (2, 3)])
    assert restrict(I, 0).is_zero
    assert restrict(I, monomial([1, 2, 3, 4])) == I


def test_colon_chain_is_monotone():
    # I^[k] <= I^[k]:I^[l-1] <= I^[k]:I^[l] as l grows
    for I in random_squarefree_ideals(40, max_n=7, max_gens=7, seed=13):
        for k in (2, 3):
            Ik = sqfree_power(I, k)
            prev = Ik
            for ell in range(1, k + 1):
                Il = sqfree_power(I, ell)
                if Il.is_zero:
                    break
                Q = colon_ideal(Ik, Il)
                assert all(Q.contains(g) for g in prev.gens), (I, k, ell)
                prev = Q


# ---------------------------------------------------------------------------
# colon stability of powers

def test_ratliff_check_validation():
    I = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        ratliff_check(I, 2, 0)
    with pytest.raises(ValueError):
        ratliff_check(I, 2, 3)
    assert ratliff_check(I, 3, 3) is None  # colon by the zero power is vacuous
    assert ratliff_check(I, 3, 1) is True  # zero ideal colons to itself
    assert ratliff_check(I, 2, 1) is True


def test_ratliff_check_is_false_when_the_colon_is_the_unit_ideal():
    # I^[k] : I^[k] is the unit ideal, so it equals I^[k] only when I^[k] is
    # the unit ideal or zero (and then the check is vacuous)
    I = edge_ideal(cycle_graph(5))
    assert ratliff_check(I, 1, 1) is False
    assert ratliff_check(I, 2, 2) is False
    assert ratliff_check(I, 3, 3) is None
    assert ratliff_check(MonomialIdeal.unit(3), 1, 1) is True


def _brute_ratliff(I, k, ell):
    """I^[k] : I^[l] = I^[k], decided on the squarefree members of both powers.

    Both sides are generated by squarefree monomials, and a squarefree ideal
    holds a monomial exactly when it holds its support."""
    Ik = oracles.brute_sqfree_power_members(I, k)
    Il = oracles.brute_sqfree_power_members(I, ell)
    if not Il:
        return None
    return {m for m in range(1 << I.n) if all(m | v in Ik for v in Il)} == Ik


def test_ratliff_check_matches_membership_on_random_ideals():
    outcomes = set()
    for I in random_squarefree_ideals(25, max_n=6, max_gens=6, seed=19):
        for k in (1, 2, 3):
            for ell in range(1, k + 1):
                want = _brute_ratliff(I, k, ell)
                assert ratliff_check(I, k, ell) is want, (format_ideal(I), k, ell)
                outcomes.add(want)
    assert outcomes == {True, False, None}


def test_colon_stability_on_random_ideals():
    # I^[k] : I = I^[k] for k >= 2 on the seeded random family
    for I in random_squarefree_ideals(500, max_n=8, max_gens=8):
        for k in (2, 3):
            outcome = ratliff_check(I, k, 1)
            assert outcome in (True, None), (format_ideal(I), k)


# ---------------------------------------------------------------------------
# text format

def test_parse_format_roundtrip():
    I = MonomialIdeal.from_supports(5, [(1, 2), (3, 4, 5)])
    assert parse_ideal(format_ideal(I)) == I
    assert format_ideal(I) == "n 5\n1 2\n3 4 5\n"


def test_parse_ideal_unit_and_comments():
    I = parse_ideal("# unit ideal\nn 3\n-\n")
    assert I.is_unit
    Z = parse_ideal("n 4\n")
    assert Z.is_zero and Z.n == 4


def test_parse_ideal_errors():
    with pytest.raises(ValueError):
        parse_ideal("1 2\n")  # missing header
    with pytest.raises(ValueError):
        parse_ideal("")
    with pytest.raises(ValueError):
        parse_ideal("n 3\nn 4\n")  # duplicate header
    with pytest.raises(ValueError):
        parse_ideal("n 3 7\n")
    with pytest.raises(ValueError):
        parse_ideal("n 3\n1 5\n")  # variable out of range
    with pytest.raises(ValueError):
        parse_ideal("n 3\n0 1\n")


def test_parse_ideal_rejects_a_repeated_variable():
    # "1 1" is x1 * x1, which is not squarefree
    for text in ("n 2\n1 1\n", "n 3\n1 2\n2 3 2\n"):
        with pytest.raises(ValueError, match="repeated variable"):
            parse_ideal(text)
    assert parse_ideal("n 2\n2 1\n") == parse_ideal("n 2\n1 2\n")


@settings(max_examples=80, deadline=None)
@given(mixed_ideals_st(max_n=8))
def test_parse_format_roundtrip_property(I):
    assert parse_ideal(format_ideal(I)) == I
