"""Executable verification of the theorems behind the library.

Every check pairs a mathematical statement with a runner that evaluates it on
one instance and reports pass / fail / vacuous (hypotheses unmet) /
inconclusive (budget exhausted).  Checks are data: the registry maps names to
scope (graph, tree, forest, ideal collections, builtin fixtures), to kind
("theorem" checks must never fail; "exploration" checks record findings
without affecting exit codes), and to the runner.

Reports serialize to ND-JSON lines {check, instance, outcome, witness?,
millis} and instances are named re-runnably (graph6 strings, seeds).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .betti import (
    DEFAULT_CHARACTERISTIC,
    BudgetExceeded,
    _check_deadline,
    first_syzygy_betti,
    first_syzygy_witness,
    has_linear_resolution,
    is_linearly_related_combinatorial,
    is_linearly_related_homological,
    lcm_lattice,
    linear_quotients_order,
    multigraded_betti,
    regularity,
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
from .families import (
    DEFAULT_SEED,
    disjoint_edges_graph,
    random_graphs,
    random_squarefree_ideals,
)
from .graphs import (
    Graph,
    builtin_graph,
    complement,
    connected_components,
    induced_subgraph,
    is_chordal,
    is_forest,
    is_tree,
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


@dataclass(frozen=True)
class CheckReport:
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

    @staticmethod
    def from_json_line(line: str) -> "CheckReport":
        d = json.loads(line)
        return CheckReport(
            check=d["check"],
            instance=d["instance"],
            outcome=d["outcome"],
            witness=d.get("witness"),
            millis=float(d.get("millis", 0.0)),
        )


@dataclass(frozen=True)
class CheckContext:
    """Knobs shared by every runner; defaults match the shipped suite."""

    characteristic: int = DEFAULT_CHARACTERISTIC
    seed: int = DEFAULT_SEED
    node_budget: int = 10_000_000
    time_budget_s: float | None = None
    random_ideal_count: int = 500
    random_graph_count: int = 1000
    random_graph_max_n: int = 12
    veronese_max_r: int = 6


@dataclass(frozen=True)
class Check:
    name: str
    kind: str  # "theorem" | "exploration"
    scope: str  # "graph" | "tree" | "forest" | "ideals" | "builtin"
    statement: str
    runner: Callable


def _gid(G: Graph) -> str:
    return f"g6:{to_graph6(G)}"


def _iid(I: MonomialIdeal) -> str:
    gens = "|".join(".".join(map(str, monomial_vars(g))) for g in I.gens)
    return f"ideal:n={I.n}:{gens or '0'}"


def _ms(t0: float) -> float:
    return (time.monotonic() - t0) * 1000.0


def _rep(
    name: str,
    instance: str,
    ok_or_outcome,
    witness: dict | None = None,
    t0: float | None = None,
) -> CheckReport:
    if isinstance(ok_or_outcome, bool):
        outcome = PASS if ok_or_outcome else FAIL
    else:
        outcome = ok_or_outcome
    return CheckReport(
        check=name,
        instance=instance,
        outcome=outcome,
        witness=witness if outcome != PASS else None,
        millis=_ms(t0) if t0 is not None else 0.0,
    )


def _powers_upto_nu(G: Graph) -> list[tuple[int, MonomialIdeal]]:
    nu = matching_number(G)
    return [(k, sqfree_power_via_matchings(G, k)) for k in range(1, nu + 1)]


# ---------------------------------------------------------------------------
# graph-scoped runners

def _run_lower_bound(G: Graph, ctx: CheckContext, deadline: float | None):
    nu1 = induced_matching_number(G)
    if nu1 == 0:
        return [_rep("lower-bound", _gid(G), VACUOUS)]
    out = []
    for k in range(1, nu1 + 1):
        t0 = time.monotonic()
        I = sqfree_power_via_matchings(G, k)
        reg = multigraded_betti(I, ctx.characteristic, deadline=deadline).regularity()
        ok = reg >= k + nu1
        out.append(
            _rep(
                "lower-bound",
                f"{_gid(G)};k={k}",
                ok,
                {"reg": reg, "k": k, "nu1": nu1},
                t0,
            )
        )
    return out


def _run_upper_bound_k2(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    nu = matching_number(G)
    if nu < 2:
        return [_rep("upper-bound-k2", _gid(G), VACUOUS)]
    I = sqfree_power_via_matchings(G, 2)
    reg = multigraded_betti(I, ctx.characteristic, deadline=deadline).regularity()
    return [_rep("upper-bound-k2", _gid(G), reg <= 2 + nu, {"reg": reg, "nu": nu}, t0)]


def _run_upper_question(G: Graph, ctx: CheckContext, deadline: float | None):
    if not G.edges:
        return [_rep("upper-question", _gid(G), VACUOUS)]
    nu = matching_number(G)
    out = []
    for k, I in _powers_upto_nu(G):
        t0 = time.monotonic()
        reg = multigraded_betti(I, ctx.characteristic, deadline=deadline).regularity()
        out.append(
            _rep(
                "upper-question",
                f"{_gid(G)};k={k}",
                reg <= k + nu,
                {"reg": reg, "bound": k + nu},
                t0,
            )
        )
    return out


def _run_linrel_monotone(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("linrel-monotone", _gid(G), VACUOUS)]
    verdicts = [
        is_linearly_related_combinatorial(I, deadline=deadline)
        for _, I in _powers_upto_nu(G)
    ]
    ok = all(b for a, b in zip(verdicts, verdicts[1:]) if a)
    return [_rep("linrel-monotone", _gid(G), ok, {"verdicts": verdicts}, t0)]


def _run_nu0_lambda(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("nu0-lambda", _gid(G), VACUOUS)]
    lam = lambda_number(G)
    nu0 = restricted_matching_number(G)
    return [_rep("nu0-lambda", _gid(G), lam >= nu0, {"lambda": lam, "nu0": nu0}, t0)]


def _run_nu0_le_2_linrel(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges or restricted_matching_number(G) > 2:
        return [_rep("nu0-le-2-linrel", _gid(G), VACUOUS)]
    bad = []
    for k, I in _powers_upto_nu(G):
        if k >= 2 and not is_linearly_related_combinatorial(I, deadline=deadline):
            bad.append(k)
    return [_rep("nu0-le-2-linrel", _gid(G), not bad, {"failing_k": bad}, t0)]


def _ratliff_reports(
    name: str, G: Graph, pairs: Iterable[tuple[int, int]], t0: float
) -> list[CheckReport]:
    I = edge_ideal(G)
    bad = []
    ran = False
    for k, l in pairs:
        ran = True
        if ratliff_check(I, k, l) is False:
            bad.append([k, l])
    if not ran:
        return [_rep(name, _gid(G), VACUOUS)]
    return [_rep(name, _gid(G), not bad, {"failing_pairs": bad}, t0)]


def _run_ratliff_surprised(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("ratliff-surprised", _gid(G), VACUOUS)]
    nu = matching_number(G)
    return _ratliff_reports(
        "ratliff-surprised", G, [(k, 1) for k in range(2, nu + 1)], t0
    )


def _run_ratliff_easy(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges or any(G.adjacency[v] == 0 for v in G.vertices):
        return [_rep("ratliff-easy", _gid(G), VACUOUS)]
    nu = matching_number(G)
    if nu < 3:
        return [_rep("ratliff-easy", _gid(G), VACUOUS)]
    return _ratliff_reports("ratliff-easy", G, [(k, 2) for k in range(3, nu + 1)], t0)


def _run_ratliff_equimatchable(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges or not is_equimatchable(G):
        return [_rep("ratliff-equimatchable", _gid(G), VACUOUS)]
    nu = matching_number(G)
    pairs = [(k, l) for k in range(2, nu + 1) for l in range(1, k)]
    if not pairs:
        return [_rep("ratliff-equimatchable", _gid(G), VACUOUS)]
    return _ratliff_reports("ratliff-equimatchable", G, pairs, t0)


def _run_generator_unimodality(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("generator-unimodality", _gid(G), VACUOUS)]
    counts = [len(I.gens) for _, I in _powers_upto_nu(G)]
    ok = True
    decreased = False
    for a, b in zip(counts, counts[1:]):
        if b < a:
            decreased = True
        elif b > a and decreased:
            ok = False
            break
    return [_rep("generator-unimodality", _gid(G), ok, {"counts": counts}, t0)]


def _run_first_syzygy_degree_bound(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    nu = matching_number(G)
    if nu < 2:
        return [_rep("first-syzygy-degree-bound", _gid(G), VACUOUS)]
    bad = []
    for k in range(2, nu + 1):
        I = sqfree_power_via_matchings(G, k)
        for m in lcm_lattice(I.gens):
            _check_deadline(deadline)
            if monomial_degree(m) >= 3 * k + 1:
                if first_syzygy_betti(I, m, ctx.characteristic):
                    bad.append({"k": k, "m": list(monomial_vars(m))})
    return [_rep("first-syzygy-degree-bound", _gid(G), not bad, {"violations": bad}, t0)]


def _run_restriction_table(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("restriction-table", _gid(G), VACUOUS)]
    rng = random.Random((ctx.seed, to_graph6(G)).__repr__())
    out = []
    for k, I in _powers_upto_nu(G):
        table = multigraded_betti(I, ctx.characteristic, deadline=deadline)
        lattice = lcm_lattice(I.gens)
        sample = lattice if len(lattice) <= 24 else rng.sample(lattice, 24)
        sample = list(sample) + [rng.randrange(1 << G.n) for _ in range(4)]
        bad = []
        for m in sample:
            sub = restrict(I, m)
            if sub.is_zero:
                sub_entries: dict = {}
            else:
                sub_entries = multigraded_betti(
                    sub, ctx.characteristic, deadline=deadline
                ).entries
            expected = {
                (i, a): v
                for (i, a), v in table.entries.items()
                if monomial_divides(a, m)
            }
            if sub_entries != expected:
                bad.append(list(monomial_vars(m)))
        out.append(
            _rep(
                "restriction-table",
                f"{_gid(G)};k={k}",
                not bad,
                {"bad_multidegrees": bad},
                t0,
            )
        )
        t0 = time.monotonic()
    return out


def _run_betti_induced_monotone(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("betti-induced-monotone", _gid(G), VACUOUS)]
    big_tables = {
        k: multigraded_betti(I, ctx.characteristic, deadline=deadline)
        for k, I in _powers_upto_nu(G)
    }
    bad = []
    vertices = list(G.vertices)
    for size in range(2, G.n):
        for W in itertools.combinations(vertices, size):
            H = induced_subgraph(G, W)
            if not H.edges:
                continue
            source = H.source_vertices
            assert source is not None
            for k in range(1, matching_number(H) + 1):
                sub = multigraded_betti(
                    sqfree_power_via_matchings(H, k),
                    ctx.characteristic,
                    deadline=deadline,
                )
                for (i, a), v in sub.entries.items():
                    lifted = monomial(source[x - 1] for x in monomial_vars(a))
                    if v > big_tables[k].entries.get((i, lifted), 0):
                        bad.append({"W": list(W), "k": k, "i": i, "a": list(monomial_vars(a))})
    return [_rep("betti-induced-monotone", _gid(G), not bad, {"violations": bad}, t0)]


def _run_froberg(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    linear = has_linear_resolution(edge_ideal(G), ctx.characteristic, deadline=deadline)
    chordal = is_chordal(complement(G))
    return [
        _rep(
            "froberg",
            _gid(G),
            linear == chordal,
            {"linear_resolution": linear, "complement_chordal": chordal},
            t0,
        )
    ]


def _run_linrel_oracle_agreement(G: Graph, ctx: CheckContext, deadline: float | None):
    if not G.edges:
        return [_rep("linrel-oracle-agreement", _gid(G), VACUOUS)]
    out = []
    for k, I in _powers_upto_nu(G):
        t0 = time.monotonic()
        comb = is_linearly_related_combinatorial(I, deadline=deadline)
        homo = is_linearly_related_homological(I, ctx.characteristic, deadline=deadline)
        out.append(
            _rep(
                "linrel-oracle-agreement",
                f"{_gid(G)};k={k}",
                comb == homo,
                {"combinatorial": comb, "homological": homo},
                t0,
            )
        )
    return out


def _run_top_power_linear_quotients(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("top-power-linear-quotients", _gid(G), VACUOUS)]
    nu = matching_number(G)
    I = sqfree_power_via_matchings(G, nu)
    result = linear_quotients_order(I, ctx.node_budget, deadline=deadline)
    if result.status == "inconclusive":
        return [
            _rep(
                "top-power-linear-quotients",
                _gid(G),
                INCONCLUSIVE,
                {"nodes": result.nodes},
                t0,
            )
        ]
    return [
        _rep(
            "top-power-linear-quotients",
            _gid(G),
            result.found,
            {"status": result.status},
            t0,
        )
    ]


def _run_matching_chain(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    nu1 = induced_matching_number(G)
    nu0 = restricted_matching_number(G)
    nu = matching_number(G)
    return [
        _rep(
            "matching-chain",
            _gid(G),
            nu1 <= nu0 <= nu,
            {"nu1": nu1, "nu0": nu0, "nu": nu},
            t0,
        )
    ]


def _run_power_matching_agreement(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    from .ideals import sqfree_power

    I = edge_ideal(G)
    nu = matching_number(G)
    bad = []
    for k in range(1, nu + 2):
        via_matchings = sqfree_power_via_matchings(G, k)
        via_ideal = sqfree_power(I, k)
        if via_matchings != via_ideal:
            bad.append(k)
    ok = not bad and sqfree_power_via_matchings(G, nu + 1).is_zero
    return [_rep("power-matching-agreement", _gid(G), ok, {"failing_k": bad}, t0)]


def _run_colon_formula(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("colon-formula", _gid(G), VACUOUS)]
    I2 = sqfree_power_via_matchings(G, 2)
    bad = []
    for e in G.edge_list:
        direct = colon_by_monomial(I2, edge_mask(e))
        via_graph = edge_ideal(colon_square_by_edge(G, e))
        if direct != via_graph:
            bad.append(list(e))
    return [_rep("colon-formula", _gid(G), not bad, {"failing_edges": bad}, t0)]


def _run_colon_regularity(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("colon-regularity", _gid(G), VACUOUS)]
    nu = matching_number(G)
    bad = []
    for e in G.edge_list:
        r = regularity(
            edge_ideal(colon_square_by_edge(G, e)), ctx.characteristic, deadline
        )
        if r > nu:
            bad.append({"edge": list(e), "reg": r})
    return [_rep("colon-regularity", _gid(G), not bad, {"violations": bad, "nu": nu}, t0)]


def _run_l_ideal_shape(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("l-ideal-shape", _gid(G), VACUOUS)]
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
    if not ran:
        return [_rep("l-ideal-shape", _gid(G), VACUOUS)]
    return [_rep("l-ideal-shape", _gid(G), not bad, {"violations": bad}, t0)]


def _run_taylor_witness(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges:
        return [_rep("taylor-witness", _gid(G), VACUOUS)]
    bad = []
    for k, I in _powers_upto_nu(G):
        if len(I.gens) < 2:
            continue
        for m in lcm_lattice(I.gens):
            report = first_syzygy_witness(I, m)
            if report.all_covered and first_syzygy_betti(I, m, ctx.characteristic):
                bad.append({"k": k, "m": list(monomial_vars(m))})
    return [_rep("taylor-witness", _gid(G), not bad, {"violations": bad}, t0)]


def _run_equimatchable_extension(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not G.edges or not is_equimatchable(G):
        return [_rep("equimatchable-extension", _gid(G), VACUOUS)]
    rng = random.Random((ctx.seed, to_graph6(G)).__repr__())
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
    return [_rep("equimatchable-extension", _gid(G), not bad, {"failing_sets": bad}, t0)]


def _run_generated_by_variables(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    I2 = sqfree_power_via_matchings(G, 2)
    if I2.is_zero:
        return [_rep("generated-by-variables", _gid(G), VACUOUS)]
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
    return [_rep("generated-by-variables", _gid(G), not bad, {"failing_edges": bad}, t0)]


def _run_chordal_oracle(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    fast = is_chordal(G)
    brute = not _has_chordless_cycle(G)
    return [
        _rep(
            "chordal-oracle",
            _gid(G),
            fast == brute,
            {"mcs": fast, "brute": brute},
            t0,
        )
    ]


def _has_chordless_cycle(G: Graph) -> bool:
    """Brute force: some vertex subset of size >= 4 induces a cycle."""
    vertices = list(G.vertices)
    for size in range(4, G.n + 1):
        for W in itertools.combinations(vertices, size):
            H = induced_subgraph(G, W)
            if len(H.edges) == size and all(H.degree(v) == 2 for v in H.vertices):
                if len(connected_components(H)) == 1:
                    return True
    return False


def _run_five_way_nonforest(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if is_forest(G) or not G.edges:
        return [_rep("five-way-nonforest", _gid(G), VACUOUS)]
    I2 = sqfree_power_via_matchings(G, 2)
    search = linear_quotients_order(I2, ctx.node_budget, deadline=deadline)
    if search.status == "inconclusive":
        return [_rep("five-way-nonforest", _gid(G), INCONCLUSIVE, {"nodes": search.nodes}, t0)]
    pattern = {
        "linear_quotients": search.found,
        "linear_resolution": has_linear_resolution(I2, ctx.characteristic, deadline=deadline),
        "linearly_related": is_linearly_related_combinatorial(I2),
        "nu0_le_2": restricted_matching_number(G) <= 2,
    }
    return [
        CheckReport(
            "five-way-nonforest", _gid(G), PASS, {"pattern": pattern}, _ms(t0)
        )
    ]


def _run_char2_cross_check(G: Graph, ctx: CheckContext, deadline: float | None):
    if not G.edges:
        return [_rep("char2-cross-check", _gid(G), VACUOUS)]
    out = []
    for k, I in _powers_upto_nu(G):
        t0 = time.monotonic()
        base = multigraded_betti(I, ctx.characteristic, deadline=deadline).graded()
        char2 = multigraded_betti(I, 2, deadline=deadline).graded()
        out.append(
            _rep(
                "char2-cross-check",
                f"{_gid(G)};k={k}",
                base == char2,
                {"default_char": sorted(map(list, base.items())), "char2": sorted(map(list, char2.items()))},
                t0,
            )
        )
    return out


# ---------------------------------------------------------------------------
# tree- and forest-scoped runners

def _run_tree_criterion_agreement(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not is_tree(G):
        return [_rep("tree-criterion-agreement", _gid(G), VACUOUS)]
    crit = tree_perfect_matching_criterion(G)
    brute = has_perfect_matching(G)
    return [
        _rep(
            "tree-criterion-agreement",
            _gid(G),
            crit == brute,
            {"criterion": crit, "brute": brute},
            t0,
        )
    ]


def _run_tree_perfect_linres(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not is_tree(G) or not has_perfect_matching(G):
        return [_rep("tree-perfect-linres", _gid(G), VACUOUS)]
    nu0 = restricted_matching_number(G)
    I = sqfree_power_via_matchings(G, nu0)
    ok = has_linear_resolution(I, ctx.characteristic, deadline=deadline)
    return [_rep("tree-perfect-linres", _gid(G), ok, {"nu0": nu0}, t0)]


def _run_nu0_perfect_tree(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not is_tree(G) or G.n <= 2 or not has_perfect_matching(G):
        return [_rep("nu0-perfect-tree", _gid(G), VACUOUS)]
    nu0 = restricted_matching_number(G)
    nu = matching_number(G)
    return [_rep("nu0-perfect-tree", _gid(G), nu0 == nu - 1, {"nu0": nu0, "nu": nu}, t0)]


def _run_forest_five_way(G: Graph, ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    if not is_forest(G) or not G.edges:
        return [_rep("forest-five-way", _gid(G), VACUOUS)]
    if any(G.adjacency[v] == 0 for v in G.vertices):
        return [_rep("forest-five-way", _gid(G), VACUOUS)]
    if G.n == 2:
        return [_rep("forest-five-way", _gid(G), VACUOUS)]
    I2 = sqfree_power_via_matchings(G, 2)
    search = linear_quotients_order(I2, ctx.node_budget, deadline=deadline)
    if search.status == "inconclusive":
        return [_rep("forest-five-way", _gid(G), INCONCLUSIVE, {"nodes": search.nodes}, t0)]
    conditions = {
        "linear_quotients": search.found,
        "linear_resolution": has_linear_resolution(I2, ctx.characteristic, deadline=deadline),
        "linearly_related": is_linearly_related_combinatorial(I2, deadline=deadline),
        "nu0_le_2": restricted_matching_number(G) <= 2,
        "template_match": classify_forest(G).matched,
    }
    values = set(conditions.values())
    return [_rep("forest-five-way", _gid(G), len(values) == 1, {"conditions": conditions}, t0)]


# ---------------------------------------------------------------------------
# ideal-collection and builtin runners

def _run_ratliff_random(ctx: CheckContext, deadline: float | None):
    out = []
    ideals = random_squarefree_ideals(
        ctx.random_ideal_count, max_n=8, max_gens=8, seed=ctx.seed
    )
    for idx, I in enumerate(ideals):
        t0 = time.monotonic()
        bad = [k for k in (2, 3) if ratliff_check(I, k, 1) is False]
        out.append(
            _rep(
                "ratliff-random",
                f"seed={ctx.seed};index={idx};{_iid(I)}",
                not bad,
                {"failing_k": bad},
                t0,
            )
        )
    return out


def _run_ratliff_powers_exploration(ctx: CheckContext, deadline: float | None):
    from .ideals import sqfree_power

    out = []
    ideals = random_squarefree_ideals(100, max_n=8, max_gens=6, seed=ctx.seed)
    for idx, I in enumerate(ideals):
        t0 = time.monotonic()
        findings = []
        for k in range(3, 5):
            if sqfree_power(I, k).is_zero:
                break
            for l in range(2, k):
                verdict = ratliff_check(I, k, l)
                if verdict is False:
                    findings.append([k, l])
        out.append(
            _rep(
                "ratliff-powers-exploration",
                f"seed={ctx.seed};index={idx};{_iid(I)}",
                not findings,
                {"colon_not_equal": findings},
                t0,
            )
        )
    return out


def _run_disjoint_regularity(ctx: CheckContext, deadline: float | None):
    rng = random.Random(ctx.seed ^ 0xD15701)
    out = []
    for idx in range(50):
        t0 = time.monotonic()
        a = rng.randint(2, 4)
        b = rng.randint(2, 4)
        I = _random_nonzero_ideal(rng, a)
        J = _random_nonzero_ideal(rng, b)
        shifted = MonomialIdeal(a + b, tuple(sorted((g << a for g in J.gens), key=monomial_vars)))
        lifted_I = MonomialIdeal(a + b, I.gens)
        total = ideal_sum(lifted_I, shifted)
        lhs = regularity(total, ctx.characteristic, deadline)
        rhs = (
            regularity(I, ctx.characteristic, deadline)
            + regularity(J, ctx.characteristic, deadline)
            - 1
        )
        out.append(
            _rep(
                "disjoint-regularity",
                f"seed={ctx.seed};index={idx};{_iid(lifted_I)};{_iid(shifted)}",
                lhs == rhs,
                {"reg_sum": lhs, "expected": rhs},
                t0,
            )
        )
    return out


def _random_nonzero_ideal(rng: random.Random, n: int) -> MonomialIdeal:
    while True:
        masks = {
            monomial(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for _ in range(rng.randint(1, 4))
        }
        I = minimalize(n, masks)
        if not I.is_zero:
            return I


def _run_colon_reg_bound(ctx: CheckContext, deadline: float | None):
    rng = random.Random(ctx.seed ^ 0xC0107)
    out = []
    for idx in range(100):
        t0 = time.monotonic()
        n = rng.randint(2, 6)
        I = _random_nonzero_ideal(rng, n)
        u = monomial(rng.sample(range(1, n + 1), rng.randint(1, n)))
        colon = colon_by_monomial(I, u)
        with_u = ideal_sum(I, MonomialIdeal(n, (u,)))
        lhs = regularity(I, ctx.characteristic, deadline)
        bound = max(
            regularity(colon, ctx.characteristic, deadline) + monomial_degree(u),
            regularity(with_u, ctx.characteristic, deadline),
        )
        out.append(
            _rep(
                "colon-reg-bound",
                f"seed={ctx.seed};index={idx};{_iid(I)};u={'.'.join(map(str, monomial_vars(u)))}",
                lhs <= bound,
                {"reg": lhs, "bound": bound},
                t0,
            )
        )
    return out


def _run_veronese_doubling(ctx: CheckContext, deadline: float | None):
    out = []
    for r in range(1, ctx.veronese_max_r + 1):
        G = disjoint_edges_graph(r)
        for k in range(1, r + 1):
            t0 = time.monotonic()
            I = sqfree_power_via_matchings(G, k)
            J = MonomialIdeal.from_supports(
                r, itertools.combinations(range(1, r + 1), k)
            )
            TI = multigraded_betti(I, ctx.characteristic, deadline=deadline).graded()
            TJ = multigraded_betti(J, ctx.characteristic, deadline=deadline).graded()
            doubled = {(i, 2 * j): v for (i, j), v in TJ.items()}
            corner = TI.get((r - k, 2 * r), 0)
            ok = doubled == TI and corner != 0
            out.append(
                _rep(
                    "veronese-doubling",
                    f"builtin:disjoint-edges;r={r};k={k}",
                    ok,
                    {"doubled": sorted(map(list, doubled.items())), "table": sorted(map(list, TI.items())), "corner": corner},
                    t0,
                )
            )
    return out


def _run_figure_diagrams(ctx: CheckContext, deadline: float | None):
    from .graphs import cycle_graph

    out = []
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
        t0 = time.monotonic()
        graded = multigraded_betti(
            sqfree_power_via_matchings(G, k), ctx.characteristic, deadline=deadline
        ).graded()
        out.append(
            _rep(
                "figure-diagrams",
                f"builtin:{name};k={k}",
                graded == expected,
                {"graded": sorted(map(list, graded.items()))},
                t0,
            )
        )
    t0 = time.monotonic()
    c7 = cycle_graph(7)
    I2 = sqfree_power_via_matchings(c7, 2)
    facts = {
        "nu0": restricted_matching_number(c7) == 2,
        "linearly_related": is_linearly_related_homological(I2, ctx.characteristic),
        "linear_resolution": not has_linear_resolution(I2, ctx.characteristic),
    }
    out.append(
        _rep("figure-diagrams", "builtin:c7;invariants", all(facts.values()), {"facts": facts}, t0)
    )
    return out


def _run_lambda_counterexamples(ctx: CheckContext, deadline: float | None):
    out = []
    for name in ("fig1", "fig2"):
        t0 = time.monotonic()
        G = builtin_graph(name)
        lam = lambda_number(G)
        nu0 = restricted_matching_number(G)
        ok = lam == 4 and nu0 == 3 and lam > nu0
        out.append(
            _rep(
                "lambda-counterexamples",
                f"builtin:{name}",
                ok,
                {"lambda": lam, "nu0": nu0},
                t0,
            )
        )
    return out


def _run_matching_chain_random(ctx: CheckContext, deadline: float | None):
    t0 = time.monotonic()
    bad = []
    for G in random_graphs(ctx.random_graph_count, ctx.random_graph_max_n, ctx.seed):
        nu1 = induced_matching_number(G)
        nu0 = restricted_matching_number(G)
        nu = matching_number(G)
        if not nu1 <= nu0 <= nu:
            bad.append(to_graph6(G))
    return [
        _rep(
            "matching-chain-random",
            f"random;seed={ctx.seed};count={ctx.random_graph_count};max_n={ctx.random_graph_max_n}",
            not bad,
            {"violations": bad},
            t0,
        )
    ]


# ---------------------------------------------------------------------------
# registry

def _check(name, kind, scope, statement, runner) -> Check:
    return Check(name=name, kind=kind, scope=scope, statement=statement, runner=runner)


CHECKS: dict[str, Check] = {
    c.name: c
    for c in [
        _check(
            "lower-bound",
            "theorem",
            "graph",
            "reg(I(G)^[k]) >= k + nu1(G) for 1 <= k <= nu1(G)",
            _run_lower_bound,
        ),
        _check(
            "upper-bound-k2",
            "theorem",
            "graph",
            "reg(I(G)^[2]) <= 2 + nu(G) when nu(G) >= 2",
            _run_upper_bound_k2,
        ),
        _check(
            "upper-question",
            "exploration",
            "graph",
            "searched bound reg(I(G)^[k]) <= k + nu(G) for k <= nu(G); never asserted",
            _run_upper_question,
        ),
        _check(
            "linrel-monotone",
            "theorem",
            "graph",
            "once I(G)^[k] is linearly related, so is I(G)^[k+1] (k < nu)",
            _run_linrel_monotone,
        ),
        _check(
            "nu0-lambda",
            "theorem",
            "graph",
            "the least k with all powers j >= k linearly related is >= nu0(G)",
            _run_nu0_lambda,
        ),
        _check(
            "nu0-le-2-linrel",
            "theorem",
            "graph",
            "nu0(G) <= 2 implies I(G)^[k] linearly related for all 2 <= k <= nu(G)",
            _run_nu0_le_2_linrel,
        ),
        _check(
            "ratliff-surprised",
            "theorem",
            "graph",
            "I^[k] : I = I^[k] for every nonzero edge ideal and k >= 2",
            _run_ratliff_surprised,
        ),
        _check(
            "ratliff-easy",
            "theorem",
            "graph",
            "I(G)^[k] : I(G)^[2] = I(G)^[k] for 2 < k <= nu(G), no isolated vertices",
            _run_ratliff_easy,
        ),
        _check(
            "ratliff-equimatchable",
            "theorem",
            "graph",
            "equimatchable G: I(G)^[k] : I(G)^[l] = I(G)^[k] for 1 <= l < k <= nu(G)",
            _run_ratliff_equimatchable,
        ),
        _check(
            "ratliff-random",
            "theorem",
            "ideals",
            "I^[k] : I = I^[k] for random squarefree ideals, k in {2, 3}",
            _run_ratliff_random,
        ),
        _check(
            "generator-unimodality",
            "theorem",
            "graph",
            "generator counts of I(G)^[k], k = 1..nu(G), rise then fall",
            _run_generator_unimodality,
        ),
        _check(
            "first-syzygy-degree-bound",
            "theorem",
            "graph",
            "b_{1,m}(I(G)^[k]) = 0 for deg(m) >= 3k + 1, k >= 2",
            _run_first_syzygy_degree_bound,
        ),
        _check(
            "restriction-table",
            "theorem",
            "graph",
            "Betti table of the restriction I^{<= m} equals the sub-table at divisors of m",
            _run_restriction_table,
        ),
        _check(
            "betti-induced-monotone",
            "theorem",
            "graph",
            "b_{i,a}(I(G_W)^[k]) <= b_{i,a}(I(G)^[k]) for induced subgraphs G_W",
            _run_betti_induced_monotone,
        ),
        _check(
            "froberg",
            "theorem",
            "graph",
            "I(G) has a linear resolution iff the complement of G is chordal",
            _run_froberg,
        ),
        _check(
            "linrel-oracle-agreement",
            "theorem",
            "graph",
            "combinatorial and homological linear-relatedness verdicts agree",
            _run_linrel_oracle_agreement,
        ),
        _check(
            "top-power-linear-quotients",
            "theorem",
            "graph",
            "the top squarefree power I(G)^[nu] has linear quotients",
            _run_top_power_linear_quotients,
        ),
        _check(
            "matching-chain",
            "theorem",
            "graph",
            "nu1(G) <= nu0(G) <= nu(G)",
            _run_matching_chain,
        ),
        _check(
            "power-matching-agreement",
            "theorem",
            "graph",
            "k-matching supports and ideal-side products generate the same power",
            _run_power_matching_agreement,
        ),
        _check(
            "colon-formula",
            "theorem",
            "graph",
            "I(G)^[2] : x_a x_b equals the edge ideal of the derived graph",
            _run_colon_formula,
        ),
        _check(
            "colon-regularity",
            "theorem",
            "graph",
            "reg(I(G)^[2] : x_a x_b) <= nu(G) for every edge ab",
            _run_colon_regularity,
        ),
        _check(
            "l-ideal-shape",
            "theorem",
            "graph",
            "under the degree hypothesis the edge intersection ideal is generated in degree 2k+1 with the predicted shape",
            _run_l_ideal_shape,
        ),
        _check(
            "taylor-witness",
            "theorem",
            "graph",
            "witnessed pairs at m force b_{1,m} = 0",
            _run_taylor_witness,
        ),
        _check(
            "equimatchable-extension",
            "theorem",
            "graph",
            "greedy extension raises the induced matching number stepwise to nu(G)",
            _run_equimatchable_extension,
        ),
        _check(
            "generated-by-variables",
            "theorem",
            "graph",
            "(I^[2], e_1..e_{i-1}) : e_i = (I^[2] : e_i) + an ideal of variables",
            _run_generated_by_variables,
        ),
        _check(
            "chordal-oracle",
            "theorem",
            "graph",
            "MCS chordality agrees with brute-force chordless cycle search",
            _run_chordal_oracle,
        ),
        _check(
            "five-way-nonforest",
            "exploration",
            "graph",
            "records the truth pattern of the four ideal conditions on non-forests",
            _run_five_way_nonforest,
        ),
        _check(
            "char2-cross-check",
            "exploration",
            "graph",
            "graded Betti tables over GF(2) compared against the default characteristic",
            _run_char2_cross_check,
        ),
        _check(
            "tree-criterion-agreement",
            "theorem",
            "tree",
            "vertex-deletion criterion matches brute-force perfect matching on trees",
            _run_tree_criterion_agreement,
        ),
        _check(
            "tree-perfect-linres",
            "theorem",
            "tree",
            "trees with a perfect matching: I^[nu0] has a linear resolution",
            _run_tree_perfect_linres,
        ),
        _check(
            "nu0-perfect-tree",
            "theorem",
            "tree",
            "trees with a perfect matching and n > 2 have nu0 = nu - 1",
            _run_nu0_perfect_tree,
        ),
        _check(
            "forest-five-way",
            "theorem",
            "forest",
            "for forests (no isolated vertices, not a single edge) the five second-power conditions coincide",
            _run_forest_five_way,
        ),
        _check(
            "ratliff-powers-exploration",
            "exploration",
            "ideals",
            "records I^[k] : I^[l] != I^[k] findings for l >= 2 on random ideals",
            _run_ratliff_powers_exploration,
        ),
        _check(
            "disjoint-regularity",
            "theorem",
            "ideals",
            "reg(I + J) = reg(I) + reg(J) - 1 for ideals in disjoint variables",
            _run_disjoint_regularity,
        ),
        _check(
            "colon-reg-bound",
            "theorem",
            "ideals",
            "reg(I) <= max(reg(I : u) + deg(u), reg(I + (u)))",
            _run_colon_reg_bound,
        ),
        _check(
            "veronese-doubling",
            "theorem",
            "builtin",
            "powers of r disjoint edges double the degrees of squarefree Veronese tables",
            _run_veronese_doubling,
        ),
        _check(
            "figure-diagrams",
            "theorem",
            "builtin",
            "the three pinned Betti diagrams and associated facts reproduce exactly",
            _run_figure_diagrams,
        ),
        _check(
            "lambda-counterexamples",
            "theorem",
            "builtin",
            "both bundled counterexample graphs have lambda = 4 > nu0 = 3",
            _run_lambda_counterexamples,
        ),
        _check(
            "matching-chain-random",
            "theorem",
            "builtin",
            "nu1 <= nu0 <= nu on seeded random graphs up to 12 vertices",
            _run_matching_chain_random,
        ),
    ]
}

GRAPH_SCOPES = {"graph", "tree", "forest"}


def ratliff_suite(
    G: Graph, mode: str, ctx: CheckContext | None = None
) -> list[CheckReport]:
    """Run one of the colon-identity checks on a single graph."""
    ctx = ctx or CheckContext()
    names = {
        "surprised": "ratliff-surprised",
        "easy": "ratliff-easy",
        "equimatchable": "ratliff-equimatchable",
    }
    if mode not in names:
        raise ValueError(f"unknown mode {mode!r}; choose from {sorted(names)}")
    return run_check_on_instance(names[mode], G, ctx)


def run_check_on_instance(
    name: str, instance: Graph | None, ctx: CheckContext
) -> list[CheckReport]:
    """Run one check on one instance, converting crashes into reports."""
    check = CHECKS[name]
    deadline = (
        time.monotonic() + ctx.time_budget_s if ctx.time_budget_s is not None else None
    )
    label = _gid(instance) if instance is not None else f"collection:seed={ctx.seed}"
    t0 = time.monotonic()
    try:
        if check.scope in GRAPH_SCOPES:
            assert instance is not None
            return check.runner(instance, ctx, deadline)
        return check.runner(ctx, deadline)
    except BudgetExceeded as exc:
        return [CheckReport(name, label, INCONCLUSIVE, {"reason": str(exc)}, _ms(t0))]
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


def _tasks_for(
    names: Sequence[str], graphs: Sequence[Graph]
) -> list[tuple[str, Graph | None]]:
    tasks: list[tuple[str, Graph | None]] = []
    for name in names:
        check = CHECKS[name]
        if check.scope == "graph":
            tasks.extend((name, G) for G in graphs)
        elif check.scope == "tree":
            tasks.extend((name, G) for G in graphs if is_tree(G))
        elif check.scope == "forest":
            tasks.extend((name, G) for G in graphs if is_forest(G))
        else:
            tasks.append((name, None))
    return tasks


def _worker(args: tuple[str, Graph | None, CheckContext]) -> list[CheckReport]:
    name, instance, ctx = args
    return run_check_on_instance(name, instance, ctx)


def run_checks(
    names: Sequence[str] | None,
    graphs: Sequence[Graph],
    ctx: CheckContext | None = None,
    jobs: int = 1,
) -> list[CheckReport]:
    """Run checks over a graph family; names=None runs the whole registry.

    Reports come back sorted by (check, instance) so results are independent
    of worker scheduling.
    """
    ctx = ctx or CheckContext()
    if names is None:
        names = list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")
    tasks = _tasks_for(names, graphs)
    reports: list[CheckReport] = []
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for batch in pool.map(
                _worker, [(n, g, ctx) for n, g in tasks], chunksize=8
            ):
                reports.extend(batch)
    else:
        for name, instance in tasks:
            reports.extend(run_check_on_instance(name, instance, ctx))
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
