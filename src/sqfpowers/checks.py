"""Executable verification of the theorems behind the library.

Every check pairs a mathematical statement with a runner that evaluates it on
one instance and reports pass / fail / vacuous (hypotheses unmet) /
inconclusive (budget exhausted).  A check is declared on its runner:
``@check(name, kind, scope, statement)`` registers it in ``CHECKS`` with its
scope (graph, tree, forest, ideal collections, builtin fixtures) and kind
("theorem" checks must never fail; "exploration" checks record findings
without affecting exit codes).  Declaration order is the registry order that
``verify --list`` prints.

A runner takes ``(G, ctx)``, or ``(ctx)`` for a collection, builds no
reports and yields one ``(label, verdict, witness)`` per report.  For graph
scopes the label is a suffix of the graph's ``g6:`` name (``";k=2"``, or
``""``); for collection scopes it is the whole instance name.  The verdict is
a bool or an explicit outcome.  A runner yields a verdict only over a
nonempty set of cases, so it yields nothing when the hypotheses are unmet or
there is nothing to compare, and the registry alone decides scope.
``run_check_on_instance``
does the rest: one vacuous report for an instance outside the scope or a
runner that yields nothing, instance names, per-report timing, pass / fail
from a bool (a passing bool drops its witness, an explicit outcome keeps it),
one ``memo.time_budget`` scope around the runner, which bounds every library
call made inside it (the vertex-subset loops of ``chordal-oracle`` and
``betti-induced-monotone`` read it too), and the conversion of an exhausted
budget into one inconclusive report and of a crash into one failing report.

``run_checks`` validates the request (``validate_request``) once, as
``run_check_on_instance`` does for its one check, makes one task of each
collection check, then one of each graph with every check in scope
of it, and runs them in a serial loop or, for ``jobs > 1``, a process pool of
at most ``min(jobs, tasks, usable CPUs)`` workers (a pool starts all of its
workers at once).  Each process that runs tasks holds the request's memo
open, so each value ``memo`` lists is computed once per process.  The checks
about first syzygies (``first-syzygy-degree-bound``, ``taylor-witness`` and
the homological side of ``linrel-oracle-agreement``) read b_{1,m} from these
tables.  The ideal-side ``sqfree_power`` that ``power-matching-agreement``
compares against is not memoised.

Reports serialize to ND-JSON lines {check, instance, outcome, witness?,
millis} and instances are named re-runnably (graph6 strings, seeds).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from typing import Callable, Iterable, NamedTuple, Sequence

from . import memo
from .betti import (
    LinearQuotientsResult,
    check_characteristic,
    first_syzygy_witness,
    has_linear_resolution,
    is_linearly_related_combinatorial,
    is_linearly_related_homological,
    lcm_lattice,
    linear_quotients_order,
    multigraded_betti,
    regularity,
    search_linear_quotients,
)
from .defaults import (
    DEFAULT_CHARACTERISTIC,
    DEFAULT_NODE_BUDGET,
    DEFAULT_RANDOM_GRAPHS,
    DEFAULT_RANDOM_IDEALS,
    DEFAULT_SEED,
)
from .edge_ideals import (
    classify_forest,
    colon_square_by_edge,
    edge_ideal,
    is_generated_in_degree,
    l_degree_hypothesis,
    l_ideal,
    l_ideal_shape,
    lambda_number,
    sqfree_power_via_matchings,
)
from .families import disjoint_edges_graph, random_graphs, random_squarefree_ideals
from .graphs import (
    Graph,
    builtin_graph,
    complement,
    connected_components,
    cycle_graph,
    induced_subgraph,
    is_chordal,
    is_forest,
    is_tree,
    isolated_vertices,
    to_graph6,
)
from .ideals import (
    MonomialIdeal,
    colon_by_monomial,
    ideal_sum,
    minimalize,
    monomial,
    monomial_degree,
    monomial_divides,
    monomial_vars,
    ratliff_check,
    restrict,
    sqfree_power,
)
from .matchings import (
    edge_mask,
    has_perfect_matching,
    induced_matching_number,
    is_equimatchable,
    matching_number,
    matching_number_within,
    greedy_matching_extension,
    restricted_matching_number,
    tree_perfect_matching_criterion,
)

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
INCONCLUSIVE = "inconclusive"

# sizes of the builtin sweeps
RANDOM_GRAPH_MAX_N = 12
VERONESE_MAX_R = 6


class CheckReport(NamedTuple):
    check: str
    instance: str
    outcome: str
    witness: dict | None = None
    millis: float = 0.0

    def to_json_line(self) -> str:
        payload: dict = {
            "check": self.check,
            "instance": self.instance,
            "outcome": self.outcome,
            "millis": round(self.millis, 3),
        }
        if self.witness is not None:
            payload["witness"] = self.witness
        return json.dumps(payload, sort_keys=True)


class CheckContext(NamedTuple):
    """Parameters shared by every runner; the defaults are those of ``verify``."""

    characteristic: int = DEFAULT_CHARACTERISTIC
    seed: int = DEFAULT_SEED
    node_budget: int = DEFAULT_NODE_BUDGET
    time_budget_s: float | None = None
    random_ideal_count: int = DEFAULT_RANDOM_IDEALS
    random_graph_count: int = DEFAULT_RANDOM_GRAPHS


class Check(NamedTuple):
    name: str
    kind: str  # "theorem" | "exploration"
    scope: str  # "graph" | "tree" | "forest" | "ideals" | "builtin"
    statement: str
    runner: Callable


CHECKS: dict[str, Check] = {}

# which graphs each graph scope holds; every other scope is a collection
GRAPH_SCOPES = {"graph": lambda G: True, "tree": is_tree, "forest": is_forest}


def check(name: str, kind: str, scope: str, statement: str) -> Callable:
    """Register the decorated runner in ``CHECKS`` as the check *name*."""

    def register(runner: Callable) -> Callable:
        CHECKS[name] = Check(name, kind, scope, statement, runner)
        return runner

    return register


@functools.lru_cache(maxsize=1)
def _graph6(G: Graph) -> str:
    """The graph6 code of G, kept for the graph of the task being run.

    Every report of a graph task is named after it, and two runners seed
    their random draws with it.
    """
    return to_graph6(G)


def _gid(G: Graph) -> str:
    return f"g6:{_graph6(G)}"


def _iid(I: MonomialIdeal) -> str:
    gens = "|".join(".".join(map(str, monomial_vars(g))) for g in I.gens)
    return f"ideal:n={I.n}:{gens or '0'}"


def _ms(t0: float) -> float:
    return (time.monotonic() - t0) * 1000.0


def _powers_upto_nu(G: Graph) -> list[tuple[int, MonomialIdeal]]:
    nu = matching_number(G)
    return [(k, sqfree_power_via_matchings(G, k)) for k in range(1, nu + 1)]


# ---------------------------------------------------------------------------
# graph-scoped runners

@check(
    "lower-bound",
    "theorem",
    "graph",
    "reg(I(G)^[k]) >= k + nu1(G) for 1 <= k <= nu1(G)",
)
def _run_lower_bound(G: Graph, ctx: CheckContext):
    nu1 = induced_matching_number(G)
    for k in range(1, nu1 + 1):
        I = sqfree_power_via_matchings(G, k)
        reg = multigraded_betti(I, ctx.characteristic).regularity()
        yield f";k={k}", reg >= k + nu1, {"reg": reg, "k": k, "nu1": nu1}


@check(
    "upper-bound-k2",
    "theorem",
    "graph",
    "reg(I(G)^[2]) <= 2 + nu(G) when nu(G) >= 2",
)
def _run_upper_bound_k2(G: Graph, ctx: CheckContext):
    nu = matching_number(G)
    if nu < 2:
        return
    I = sqfree_power_via_matchings(G, 2)
    reg = multigraded_betti(I, ctx.characteristic).regularity()
    yield "", reg <= 2 + nu, {"reg": reg, "nu": nu}


@check(
    "upper-question",
    "exploration",
    "graph",
    "searched bound reg(I(G)^[k]) <= k + nu(G) for k <= nu(G); never asserted",
)
def _run_upper_question(G: Graph, ctx: CheckContext):
    nu = matching_number(G)
    for k, I in _powers_upto_nu(G):
        reg = multigraded_betti(I, ctx.characteristic).regularity()
        yield f";k={k}", reg <= k + nu, {"reg": reg, "bound": k + nu}


@check(
    "linrel-monotone",
    "theorem",
    "graph",
    "once I(G)^[k] is linearly related, so is I(G)^[k+1] (k < nu)",
)
def _run_linrel_monotone(G: Graph, ctx: CheckContext):
    if matching_number(G) < 2:  # no pair of powers to compare
        return
    verdicts = [
        is_linearly_related_combinatorial(I)
        for _, I in _powers_upto_nu(G)
    ]
    ok = all(b for a, b in zip(verdicts, verdicts[1:]) if a)
    yield "", ok, {"verdicts": verdicts}


@check(
    "nu0-lambda",
    "theorem",
    "graph",
    "the least k with all powers j >= k linearly related is >= nu0(G)",
)
def _run_nu0_lambda(G: Graph, ctx: CheckContext):
    if not G.edges:
        return
    lam = lambda_number(G)
    nu0 = restricted_matching_number(G)
    yield "", lam >= nu0, {"lambda": lam, "nu0": nu0}


@check(
    "nu0-le-2-linrel",
    "theorem",
    "graph",
    "nu0(G) <= 2 implies I(G)^[k] linearly related for all 2 <= k <= nu(G)",
)
def _run_nu0_le_2_linrel(G: Graph, ctx: CheckContext):
    if matching_number(G) < 2 or restricted_matching_number(G) > 2:
        return
    bad = []
    for k, I in _powers_upto_nu(G):
        if k >= 2 and not is_linearly_related_combinatorial(I):
            bad.append(k)
    yield "", not bad, {"failing_k": bad}


def _ratliff_colons(G: Graph, pairs: list[tuple[int, int]]):
    """One verdict on I(G)^[k] : I(G)^[l] = I(G)^[k] over the pairs, if any."""
    if pairs:
        I = edge_ideal(G)
        bad = [[k, l] for k, l in pairs if ratliff_check(I, k, l) is False]
        yield "", not bad, {"failing_pairs": bad}


@check(
    "ratliff-surprised",
    "theorem",
    "graph",
    "I^[k] : I = I^[k] for every nonzero edge ideal and k >= 2",
)
def _run_ratliff_surprised(G: Graph, ctx: CheckContext):
    nu = matching_number(G)
    yield from _ratliff_colons(G, [(k, 1) for k in range(2, nu + 1)])


@check(
    "ratliff-easy",
    "theorem",
    "graph",
    "I(G)^[k] : I(G)^[2] = I(G)^[k] for 2 < k <= nu(G), no isolated vertices",
)
def _run_ratliff_easy(G: Graph, ctx: CheckContext):
    if isolated_vertices(G):
        return
    nu = matching_number(G)
    yield from _ratliff_colons(G, [(k, 2) for k in range(3, nu + 1)])


@check(
    "ratliff-equimatchable",
    "theorem",
    "graph",
    "equimatchable G: I(G)^[k] : I(G)^[l] = I(G)^[k] for 1 <= l < k <= nu(G)",
)
def _run_ratliff_equimatchable(G: Graph, ctx: CheckContext):
    if not is_equimatchable(G):
        return
    nu = matching_number(G)
    yield from _ratliff_colons(
        G, [(k, l) for k in range(2, nu + 1) for l in range(1, k)]
    )


@check(
    "ratliff-random",
    "theorem",
    "ideals",
    "I^[k] : I = I^[k] for random squarefree ideals, k in {2, 3}",
)
def _run_ratliff_random(ctx: CheckContext):
    ideals = random_squarefree_ideals(
        ctx.random_ideal_count, max_n=8, max_gens=8, seed=ctx.seed
    )
    for idx, I in enumerate(ideals):
        bad = [k for k in (2, 3) if ratliff_check(I, k, 1) is False]
        yield f"seed={ctx.seed};index={idx};{_iid(I)}", not bad, {"failing_k": bad}


@check(
    "generator-unimodality",
    "theorem",
    "graph",
    "generator counts of I(G)^[k], k = 1..nu(G), rise then fall",
)
def _run_generator_unimodality(G: Graph, ctx: CheckContext):
    if not G.edges:
        return
    counts = [len(I.gens) for _, I in _powers_upto_nu(G)]
    ok = True
    decreased = False
    for a, b in zip(counts, counts[1:]):
        if b < a:
            decreased = True
        elif b > a and decreased:
            ok = False
            break
    yield "", ok, {"counts": counts}


@check(
    "first-syzygy-degree-bound",
    "theorem",
    "graph",
    "b_{1,m}(I(G)^[k]) = 0 for deg(m) >= 3k + 1, k >= 2",
)
def _run_first_syzygy_degree_bound(G: Graph, ctx: CheckContext):
    nu = matching_number(G)
    if nu < 2:
        return
    bad = []
    for k in range(2, nu + 1):
        I = sqfree_power_via_matchings(G, k)
        table = multigraded_betti(I, ctx.characteristic)
        bad.extend(
            {"k": k, "m": list(monomial_vars(m))}
            for (i, m) in table.entries
            if i == 1 and monomial_degree(m) >= 3 * k + 1
        )
    yield "", not bad, {"violations": bad}


@check(
    "restriction-table",
    "theorem",
    "graph",
    "Betti table of the restriction I^{<= m} equals the sub-table at divisors of m",
)
def _run_restriction_table(G: Graph, ctx: CheckContext):
    rng = random.Random((ctx.seed, _graph6(G)).__repr__())
    for k, I in _powers_upto_nu(G):
        table = multigraded_betti(I, ctx.characteristic)
        lattice = lcm_lattice(I.gens)
        sample = lattice if len(lattice) <= 24 else rng.sample(lattice, 24)
        sample = list(sample) + [rng.randrange(1 << G.n) for _ in range(4)]
        bad = []
        for m in sample:
            sub_entries = multigraded_betti(restrict(I, m), ctx.characteristic).entries
            expected = {
                (i, a): v
                for (i, a), v in table.entries.items()
                if monomial_divides(a, m)
            }
            if sub_entries != expected:
                bad.append(list(monomial_vars(m)))
        yield f";k={k}", not bad, {"bad_multidegrees": bad}


@check(
    "betti-induced-monotone",
    "theorem",
    "graph",
    "b_{i,a}(I(G_W)^[k]) <= b_{i,a}(I(G)^[k]) for induced subgraphs G_W",
)
def _run_betti_induced_monotone(G: Graph, ctx: CheckContext):
    if not G.edges or G.n < 3:  # no proper induced subgraph with an edge
        return
    big_tables = {
        k: multigraded_betti(I, ctx.characteristic)
        for k, I in _powers_upto_nu(G)
    }
    bad = []
    vertices = list(G.vertices)
    for size in range(2, G.n):
        for W in itertools.combinations(vertices, size):
            memo.check_deadline()  # memo hits alone check no deadline
            H = induced_subgraph(G, W)
            if not H.edges:
                continue
            for k in range(1, matching_number(H) + 1):
                sub = multigraded_betti(
                    sqfree_power_via_matchings(H, k), ctx.characteristic
                )
                for (i, a), v in sub.entries.items():
                    lifted = monomial(W[x - 1] for x in monomial_vars(a))
                    if v > big_tables[k].entries.get((i, lifted), 0):
                        bad.append({"W": list(W), "k": k, "i": i, "a": list(monomial_vars(a))})
    yield "", not bad, {"violations": bad}


@check(
    "froberg",
    "theorem",
    "graph",
    "I(G) has a linear resolution iff the complement of G is chordal",
)
def _run_froberg(G: Graph, ctx: CheckContext):
    linear = has_linear_resolution(edge_ideal(G), ctx.characteristic)
    chordal = is_chordal(complement(G))
    yield "", linear == chordal, {"linear_resolution": linear, "complement_chordal": chordal}


@check(
    "linrel-oracle-agreement",
    "theorem",
    "graph",
    "combinatorial and homological linear-relatedness verdicts agree",
)
def _run_linrel_oracle_agreement(G: Graph, ctx: CheckContext):
    for k, I in _powers_upto_nu(G):
        comb = is_linearly_related_combinatorial(I)
        homo = is_linearly_related_homological(I, ctx.characteristic)
        yield f";k={k}", comb == homo, {"combinatorial": comb, "homological": homo}


@check(
    "top-power-linear-quotients",
    "theorem",
    "graph",
    "the top squarefree power I(G)^[nu] has linear quotients",
)
def _run_top_power_linear_quotients(G: Graph, ctx: CheckContext):
    if not G.edges:
        return
    nu = matching_number(G)
    I = sqfree_power_via_matchings(G, nu)
    result = search_linear_quotients(I, ctx.node_budget)
    if result.status == "inconclusive":
        yield "", INCONCLUSIVE, {"nodes": result.nodes}
    else:
        yield "", result.found, {"status": result.status}


@check("matching-chain", "theorem", "graph", "nu1(G) <= nu0(G) <= nu(G)")
def _run_matching_chain(G: Graph, ctx: CheckContext):
    nu1 = induced_matching_number(G)
    nu0 = restricted_matching_number(G)
    nu = matching_number(G)
    yield "", nu1 <= nu0 <= nu, {"nu1": nu1, "nu0": nu0, "nu": nu}


@check(
    "power-matching-agreement",
    "theorem",
    "graph",
    "k-matching supports and ideal-side products generate the same power",
)
def _run_power_matching_agreement(G: Graph, ctx: CheckContext):
    I = edge_ideal(G)
    nu = matching_number(G)
    bad = []
    for k in range(1, nu + 2):
        via_matchings = sqfree_power_via_matchings(G, k)
        via_ideal = sqfree_power(I, k)
        if via_matchings != via_ideal:
            bad.append(k)
    ok = not bad and sqfree_power_via_matchings(G, nu + 1).is_zero
    yield "", ok, {"failing_k": bad}


@check(
    "colon-formula",
    "theorem",
    "graph",
    "I(G)^[2] : x_a x_b equals the edge ideal of the derived graph",
)
def _run_colon_formula(G: Graph, ctx: CheckContext):
    if not G.edges:
        return
    I2 = sqfree_power_via_matchings(G, 2)
    bad = []
    for e in G.edge_list:
        direct = colon_by_monomial(I2, edge_mask(e))
        via_graph = edge_ideal(colon_square_by_edge(G, e))
        if direct != via_graph:
            bad.append(list(e))
    yield "", not bad, {"failing_edges": bad}


@check(
    "colon-regularity",
    "theorem",
    "graph",
    "reg(I(G)^[2] : x_a x_b) <= nu(G) for every edge ab",
)
def _run_colon_regularity(G: Graph, ctx: CheckContext):
    if not G.edges:
        return
    nu = matching_number(G)
    bad = []
    for e in G.edge_list:
        r = regularity(edge_ideal(colon_square_by_edge(G, e)), ctx.characteristic)
        if r > nu:
            bad.append({"edge": list(e), "reg": r})
    yield "", not bad, {"violations": bad, "nu": nu}


@check(
    "l-ideal-shape",
    "theorem",
    "graph",
    "under the degree hypothesis the edge intersection ideal is generated in degree 2k+1 with the predicted shape",
)
def _run_l_ideal_shape(G: Graph, ctx: CheckContext):
    nu = matching_number(G)
    bad = []
    ran = False
    for e in G.edge_list:
        for k in range(1, nu + 1):
            if not l_degree_hypothesis(G, e, k):
                continue
            ran = True
            L = l_ideal(G, e, k)
            if L != l_ideal_shape(G, e, k) or not is_generated_in_degree(L, 2 * k + 1):
                bad.append({"edge": list(e), "k": k})
    if ran:
        yield "", not bad, {"violations": bad}


@check(
    "taylor-witness",
    "theorem",
    "graph",
    "witnessed pairs at m force b_{1,m} = 0",
)
def _run_taylor_witness(G: Graph, ctx: CheckContext):
    if len(G.edges) < 2:  # a principal ideal has no (1, m) entry
        return
    bad = []
    for k, I in _powers_upto_nu(G):
        # a covered witness can only be wrong where b_{1,m} != 0
        table = multigraded_betti(I, ctx.characteristic)
        for i, m in table.entries:
            if i != 1:
                continue
            memo.check_deadline()
            if first_syzygy_witness(I, m).all_covered:
                bad.append({"k": k, "m": list(monomial_vars(m))})
    yield "", not bad, {"violations": bad}


@check(
    "equimatchable-extension",
    "theorem",
    "graph",
    "greedy extension raises the induced matching number stepwise to nu(G)",
)
def _run_equimatchable_extension(G: Graph, ctx: CheckContext):
    if not G.edges or not is_equimatchable(G):
        return
    rng = random.Random((ctx.seed, _graph6(G)).__repr__())
    vertex_sets = [set()]
    for _ in range(3):
        size = rng.randint(0, G.n)
        vertex_sets.append(set(rng.sample(list(G.vertices), size)))
    nu = matching_number(G)
    bad = []
    for V in vertex_sets:
        steps = greedy_matching_extension(G, V)
        covered = set(V)
        level = matching_number_within(G, covered)
        ok = True
        for e in steps:
            covered |= set(e)
            nxt = matching_number_within(G, covered)
            if nxt != level + 1:
                ok = False
                break
            level = nxt
        if not ok or level != nu:
            bad.append(sorted(V))
    yield "", not bad, {"failing_sets": bad}


@check(
    "generated-by-variables",
    "theorem",
    "graph",
    "(I^[2], e_1..e_{i-1}) : e_i = (I^[2] : e_i) + an ideal of variables",
)
def _run_generated_by_variables(G: Graph, ctx: CheckContext):
    I2 = sqfree_power_via_matchings(G, 2)
    if I2.is_zero:
        return
    edges = edge_ideal(G).gens
    bad = []
    for i in range(1, len(edges)):
        ei = edges[i]
        prefix = minimalize(G.n, I2.gens + edges[:i])
        lhs = colon_by_monomial(prefix, ei)
        quotient_vars = [
            edges[j] & ~ei for j in range(i) if (edges[j] & ~ei).bit_count() == 1
        ]
        rhs = ideal_sum(
            colon_by_monomial(I2, ei),
            minimalize(G.n, quotient_vars) if quotient_vars else MonomialIdeal.zero(G.n),
        )
        if lhs != rhs:
            bad.append(list(monomial_vars(ei)))
    yield "", not bad, {"failing_edges": bad}


@check(
    "chordal-oracle",
    "theorem",
    "graph",
    "MCS chordality agrees with brute-force chordless cycle search",
)
def _run_chordal_oracle(G: Graph, ctx: CheckContext):
    fast = is_chordal(G)
    brute = not _has_chordless_cycle(G)
    yield "", fast == brute, {"mcs": fast, "brute": brute}


def _has_chordless_cycle(G: Graph) -> bool:
    """Brute force: some vertex subset of size >= 4 induces a cycle."""
    vertices = list(G.vertices)
    for size in range(4, G.n + 1):
        for W in itertools.combinations(vertices, size):
            memo.check_deadline()
            H = induced_subgraph(G, W)
            if len(H.edges) == size and all(H.degree(v) == 2 for v in H.vertices):
                if len(connected_components(H)) == 1:
                    return True
    return False


@check(
    "five-way-nonforest",
    "exploration",
    "graph",
    "records the truth pattern of the four ideal conditions on non-forests",
)
def _run_five_way_nonforest(G: Graph, ctx: CheckContext):
    if is_forest(G):
        return
    I2 = sqfree_power_via_matchings(G, 2)
    search = linear_quotients_order(I2, ctx.node_budget)
    if search.status == "inconclusive":
        yield "", INCONCLUSIVE, {"nodes": search.nodes}
        return
    yield "", PASS, {"pattern": _second_power_conditions(G, I2, search, ctx)}


def _second_power_conditions(
    G: Graph, I2: MonomialIdeal, search: LinearQuotientsResult, ctx: CheckContext
) -> dict[str, bool]:
    """The four conditions on I2 = I(G)^[2] that the five-way checks compare."""
    return {
        "linear_quotients": search.found,
        "linear_resolution": has_linear_resolution(I2, ctx.characteristic),
        "linearly_related": is_linearly_related_combinatorial(I2),
        "nu0_le_2": restricted_matching_number(G) <= 2,
    }


@check(
    "char2-cross-check",
    "exploration",
    "graph",
    "graded Betti tables over GF(2) compared against the default characteristic",
)
def _run_char2_cross_check(G: Graph, ctx: CheckContext):
    for k, I in _powers_upto_nu(G):
        base = multigraded_betti(I, ctx.characteristic).graded()
        char2 = multigraded_betti(I, 2).graded()
        yield f";k={k}", base == char2, {
            "default_char": sorted(map(list, base.items())),
            "char2": sorted(map(list, char2.items())),
        }


# ---------------------------------------------------------------------------
# tree- and forest-scoped runners

@check(
    "tree-criterion-agreement",
    "theorem",
    "tree",
    "vertex-deletion criterion matches brute-force perfect matching on trees",
)
def _run_tree_criterion_agreement(G: Graph, ctx: CheckContext):
    crit = tree_perfect_matching_criterion(G)
    brute = has_perfect_matching(G)
    yield "", crit == brute, {"criterion": crit, "brute": brute}


@check(
    "tree-perfect-linres",
    "theorem",
    "tree",
    "trees with a perfect matching: I^[nu0] has a linear resolution",
)
def _run_tree_perfect_linres(G: Graph, ctx: CheckContext):
    if not has_perfect_matching(G):
        return
    nu0 = restricted_matching_number(G)
    I = sqfree_power_via_matchings(G, nu0)
    ok = has_linear_resolution(I, ctx.characteristic)
    yield "", ok, {"nu0": nu0}


@check(
    "nu0-perfect-tree",
    "theorem",
    "tree",
    "trees with a perfect matching and n > 2 have nu0 = nu - 1",
)
def _run_nu0_perfect_tree(G: Graph, ctx: CheckContext):
    if G.n <= 2 or not has_perfect_matching(G):
        return
    nu0 = restricted_matching_number(G)
    nu = matching_number(G)
    yield "", nu0 == nu - 1, {"nu0": nu0, "nu": nu}


@check(
    "forest-five-way",
    "theorem",
    "forest",
    "for forests (no isolated vertices, not a single edge) the five second-power conditions coincide",
)
def _run_forest_five_way(G: Graph, ctx: CheckContext):
    if not G.edges or isolated_vertices(G) or G.n == 2:
        return
    I2 = sqfree_power_via_matchings(G, 2)
    search = search_linear_quotients(I2, ctx.node_budget)
    if search.status == "inconclusive":
        yield "", INCONCLUSIVE, {"nodes": search.nodes}
        return
    conditions = {
        **_second_power_conditions(G, I2, search, ctx),
        "template_match": classify_forest(G).matched,
    }
    values = set(conditions.values())
    yield "", len(values) == 1, {"conditions": conditions}


# ---------------------------------------------------------------------------
# ideal-collection and builtin runners

@check(
    "ratliff-powers-exploration",
    "exploration",
    "ideals",
    "records I^[k] : I^[l] != I^[k] findings for l >= 2 on random ideals",
)
def _run_ratliff_powers_exploration(ctx: CheckContext):
    ideals = random_squarefree_ideals(100, max_n=8, max_gens=6, seed=ctx.seed)
    for idx, I in enumerate(ideals):
        pairs = []
        for k in range(3, 5):
            if sqfree_power(I, k).is_zero:
                break
            pairs += [(k, l) for l in range(2, k)]
        if not pairs:  # I^[3] = 0: nothing to check
            continue
        findings = [[k, l] for k, l in pairs if ratliff_check(I, k, l) is False]
        yield (
            f"seed={ctx.seed};index={idx};{_iid(I)}",
            not findings,
            {"colon_not_equal": findings},
        )


@check(
    "disjoint-regularity",
    "theorem",
    "ideals",
    "reg(I + J) = reg(I) + reg(J) - 1 for ideals in disjoint variables",
)
def _run_disjoint_regularity(ctx: CheckContext):
    rng = random.Random(ctx.seed ^ 0xD15701)
    for idx in range(50):
        a = rng.randint(2, 4)
        b = rng.randint(2, 4)
        I = _random_nonzero_ideal(rng, a)
        J = _random_nonzero_ideal(rng, b)
        shifted = MonomialIdeal(a + b, tuple(sorted((g << a for g in J.gens), key=monomial_vars)))
        lifted_I = MonomialIdeal(a + b, I.gens)
        total = ideal_sum(lifted_I, shifted)
        lhs = regularity(total, ctx.characteristic)
        rhs = (
            regularity(I, ctx.characteristic)
            + regularity(J, ctx.characteristic)
            - 1
        )
        yield (
            f"seed={ctx.seed};index={idx};{_iid(lifted_I)};{_iid(shifted)}",
            lhs == rhs,
            {"reg_sum": lhs, "expected": rhs},
        )


def _random_nonzero_ideal(rng: random.Random, n: int) -> MonomialIdeal:
    while True:
        masks = {
            monomial(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 4))
        }
        I = minimalize(n, masks)
        if not I.is_zero:
            return I


@check(
    "colon-reg-bound",
    "theorem",
    "ideals",
    "reg(I) <= max(reg(I : u) + deg(u), reg(I + (u)))",
)
def _run_colon_reg_bound(ctx: CheckContext):
    rng = random.Random(ctx.seed ^ 0xC0107)
    for idx in range(100):
        n = rng.randint(2, 6)
        I = _random_nonzero_ideal(rng, n)
        u = monomial(rng.sample(range(1, n + 1), rng.randint(1, n)))
        colon = colon_by_monomial(I, u)
        with_u = ideal_sum(I, MonomialIdeal(n, (u,)))
        lhs = regularity(I, ctx.characteristic)
        bound = max(
            regularity(colon, ctx.characteristic) + monomial_degree(u),
            regularity(with_u, ctx.characteristic),
        )
        yield (
            f"seed={ctx.seed};index={idx};{_iid(I)};u={'.'.join(map(str, monomial_vars(u)))}",
            lhs <= bound,
            {"reg": lhs, "bound": bound},
        )


@check(
    "veronese-doubling",
    "theorem",
    "builtin",
    "powers of r disjoint edges double the degrees of squarefree Veronese tables",
)
def _run_veronese_doubling(ctx: CheckContext):
    for r in range(1, VERONESE_MAX_R + 1):
        G = disjoint_edges_graph(r)
        for k in range(1, r + 1):
            I = sqfree_power_via_matchings(G, k)
            J = MonomialIdeal.from_supports(
                r, itertools.combinations(range(1, r + 1), k)
            )
            TI = multigraded_betti(I, ctx.characteristic).graded()
            TJ = multigraded_betti(J, ctx.characteristic).graded()
            doubled = {(i, 2 * j): v for (i, j), v in TJ.items()}
            corner = TI.get((r - k, 2 * r), 0)
            ok = doubled == TI and corner != 0
            yield f"builtin:disjoint-edges;r={r};k={k}", ok, {
                "doubled": sorted(map(list, doubled.items())),
                "table": sorted(map(list, TI.items())),
                "corner": corner,
            }


@check(
    "figure-diagrams",
    "theorem",
    "builtin",
    "the three pinned Betti diagrams and associated facts reproduce exactly",
)
def _run_figure_diagrams(ctx: CheckContext):
    expectations: list[tuple[str, Graph, int, dict[tuple[int, int], int]]] = [
        (
            "fig1",
            builtin_graph("fig1"),
            3,
            {(0, 6): 14, (1, 7): 19, (1, 8): 1, (2, 8): 6, (2, 9): 1},
        ),
        (
            "fig2",
            builtin_graph("fig2"),
            3,
            {(0, 6): 8, (1, 7): 8, (1, 8): 1, (2, 8): 2},
        ),
        (
            "c7",
            cycle_graph(7),
            2,
            {(0, 4): 14, (1, 5): 21, (2, 6): 7, (2, 7): 1},
        ),
    ]
    for name, G, k, expected in expectations:
        graded = multigraded_betti(
            sqfree_power_via_matchings(G, k), ctx.characteristic
        ).graded()
        yield f"builtin:{name};k={k}", graded == expected, {
            "graded": sorted(map(list, graded.items()))
        }
    c7 = cycle_graph(7)
    I2 = sqfree_power_via_matchings(c7, 2)
    facts = {
        "nu0": restricted_matching_number(c7) == 2,
        "linearly_related": is_linearly_related_homological(I2, ctx.characteristic),
        "linear_resolution": not has_linear_resolution(I2, ctx.characteristic),
    }
    yield "builtin:c7;invariants", all(facts.values()), {"facts": facts}


@check(
    "lambda-counterexamples",
    "theorem",
    "builtin",
    "both bundled counterexample graphs have lambda = 4 > nu0 = 3",
)
def _run_lambda_counterexamples(ctx: CheckContext):
    for name in ("fig1", "fig2"):
        G = builtin_graph(name)
        lam = lambda_number(G)
        nu0 = restricted_matching_number(G)
        ok = lam == 4 and nu0 == 3 and lam > nu0
        yield f"builtin:{name}", ok, {"lambda": lam, "nu0": nu0}


@check(
    "matching-chain-random",
    "theorem",
    "builtin",
    "nu1 <= nu0 <= nu on seeded random graphs up to 12 vertices",
)
def _run_matching_chain_random(ctx: CheckContext):
    graphs = random_graphs(ctx.random_graph_count, RANDOM_GRAPH_MAX_N, ctx.seed)
    if not graphs:
        return
    bad = []
    for G in graphs:
        nu1 = induced_matching_number(G)
        nu0 = restricted_matching_number(G)
        nu = matching_number(G)
        if not nu1 <= nu0 <= nu:
            bad.append(to_graph6(G))
    yield (
        f"random;seed={ctx.seed};count={ctx.random_graph_count};max_n={RANDOM_GRAPH_MAX_N}",
        not bad,
        {"violations": bad},
    )


# ---------------------------------------------------------------------------
# execution

def run_check_on_instance(
    name: str, instance: Graph | None, ctx: CheckContext
) -> list[CheckReport]:
    """Run one check on one instance and turn its runner's items into reports.

    The request is validated first (``validate_request``), so a bad name or
    context raises ``ValueError`` instead of becoming a report.  A graph
    outside the check's scope, or a runner that yields nothing, gives one
    vacuous report.  The runner and its reports run under
    ``time_budget(ctx.time_budget_s)``, so every library call they make is
    bounded; the budget is also checked before the runner starts and before
    each report.  An exhausted budget keeps the reports already finished and
    adds one inconclusive report; a crash replaces the instance's reports by
    one failing report.
    """
    validate_request([name], ctx)
    return _run_on_instance(name, instance, ctx)


def _run_on_instance(
    name: str, instance: Graph | None, ctx: CheckContext
) -> list[CheckReport]:
    """``run_check_on_instance`` on a request already validated."""
    check = CHECKS[name]
    label = _gid(instance) if instance is not None else f"collection:seed={ctx.seed}"
    holds = GRAPH_SCOPES.get(check.scope)  # None for a collection
    t0 = start = time.monotonic()
    reports = []
    try:
        with memo.time_budget(ctx.time_budget_s):
            memo.check_deadline()
            if holds is None:
                prefix, items = "", check.runner(ctx)
            else:
                assert instance is not None
                items = check.runner(instance, ctx) if holds(instance) else ()
                prefix = label
            for suffix, verdict, witness in items:
                memo.check_deadline()
                if isinstance(verdict, bool):
                    verdict, witness = (PASS, None) if verdict else (FAIL, witness)
                reports.append(
                    CheckReport(name, prefix + suffix, verdict, witness, _ms(start))
                )
                start = time.monotonic()
            if not reports:
                memo.check_deadline()
                reports.append(CheckReport(name, label, VACUOUS, None, _ms(start)))
    except memo.BudgetExceeded as exc:
        reports.append(
            CheckReport(name, label, INCONCLUSIVE, {"reason": str(exc)}, _ms(start))
        )
    except Exception as exc:  # implementation bug signal, surfaced as failure
        return [
            CheckReport(
                name,
                label,
                FAIL,
                {"error": f"{type(exc).__name__}: {exc}"},
                _ms(t0),
            )
        ]
    return reports


def _tasks_for(
    names: Sequence[str], graphs: Sequence[Graph]
) -> list[tuple[tuple[str, ...], Graph | None]]:
    """Each collection check alone, then each graph with every check it is in scope of."""
    tasks: list[tuple[tuple[str, ...], Graph | None]] = [
        ((name,), None) for name in names if CHECKS[name].scope not in GRAPH_SCOPES
    ]
    graph_names = [name for name in names if CHECKS[name].scope in GRAPH_SCOPES]
    for G in graphs:
        own = tuple(n for n in graph_names if GRAPH_SCOPES[CHECKS[n].scope](G))
        if own:
            tasks.append((own, G))
    return tasks


def _run_task(
    names: tuple[str, ...], instance: Graph | None, ctx: CheckContext
) -> list[CheckReport]:
    return [r for name in names for r in _run_on_instance(name, instance, ctx)]


_POOL_CHUNK = 8  # tasks per pool message: fewer result batches to pickle and hold


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def validate_request(
    names: Sequence[str] | None, ctx: CheckContext, jobs: int = 1
) -> list[str]:
    """The checks a request runs (None: all), or ``ValueError`` for unknown or
    no names, a bad characteristic, count, jobs or budget."""
    names = list(CHECKS) if names is None else list(names)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; 'verify --list' prints the registry")
    if not names:
        raise ValueError("no check names given")
    check_characteristic(ctx.characteristic)
    for field in ("random_ideal_count", "random_graph_count"):
        if (count := getattr(ctx, field)) < 0:
            raise ValueError(f"{field} must be >= 0, got {count}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    memo.check_budgets(ctx.node_budget, ctx.time_budget_s)
    return names


def run_checks(
    names: Sequence[str] | None,
    graphs: Sequence[Graph],
    ctx: CheckContext | None = None,
    jobs: int = 1,
) -> list[CheckReport]:
    """Run checks over a graph family; names=None runs the whole registry.

    One task is a collection check, or one graph with all its checks; each
    process that runs tasks holds the request's memo open (see ``memo``).
    Reports come back sorted by (check, instance) so results are independent
    of worker scheduling.
    """
    ctx = ctx or CheckContext()
    tasks = _tasks_for(validate_request(names, ctx, jobs), graphs)
    reports: list[CheckReport] = []
    if jobs > 1:
        # Imported here: it loads multiprocessing, and only a pool needs it.
        from concurrent.futures import ProcessPoolExecutor

        workers = max(1, min(jobs, len(tasks), _usable_cpus()))
        with ProcessPoolExecutor(max_workers=workers, initializer=memo.open) as pool:
            for batch in pool.map(
                _run_task,
                [task_names for task_names, _ in tasks],
                [instance for _, instance in tasks],
                itertools.repeat(ctx),
                chunksize=_POOL_CHUNK,
            ):
                reports.extend(batch)
    else:
        memo.open()
        try:
            for task_names, instance in tasks:
                reports.extend(_run_task(task_names, instance, ctx))
        finally:
            memo.close()
    reports.sort(key=lambda r: (r.check, r.instance))
    return reports


def summarize(reports: Iterable[CheckReport]) -> dict[str, dict[str, int]]:
    summary: dict[str, dict[str, int]] = {}
    for r in reports:
        summary.setdefault(r.check, {}).setdefault(r.outcome, 0)
        summary[r.check][r.outcome] += 1
    return summary


def theorem_failures(reports: Iterable[CheckReport]) -> list[CheckReport]:
    return [
        r for r in reports if r.outcome == FAIL and CHECKS[r.check].kind == "theorem"
    ]
