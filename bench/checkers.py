"""Correctness checks of the program's outputs, one function per subcommand.

Each checker takes the facts the benchmark generated an operation from, the
operation's standard output and a ``Context``, and returns a list of
problems; an empty list means the output is correct.  The expected values
come from ``reference``, never from the program.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import networkx as nx

import reference as ref

OUTCOMES = {"pass", "fail", "vacuous", "inconclusive"}
# Non-isomorphic graphs on exactly n = 1..6 vertices (OEIS A000088).
GRAPH_COUNTS = (1, 2, 4, 11, 34, 156)
# Multidegrees of a Betti table cross-checked per operation by the Taylor
# complex, among those with at most TAYLOR_MAX_GENS dividing generators.
TAYLOR_SAMPLE = 12
TAYLOR_MAX_GENS = 10
GREEDY_TRIALS = 20


@dataclass
class Context:
    """What every checker shares: the output schema, the check registry, a seeded rng."""

    schema: dict
    kinds: dict[str, str] = field(default_factory=dict)  # check name -> theorem | exploration
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    @staticmethod
    def load(schema_path: Path, registry: dict | None, seed: int) -> "Context":
        kinds = {c["name"]: c["kind"] for c in (registry or {}).get("registry", [])}
        return Context(json.loads(schema_path.read_text()), kinds, random.Random(seed))


def _payload(text: str, ctx: Context, command: str) -> tuple[dict | None, list[str]]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    errors = [e.message for e in jsonschema.Draft7Validator(ctx.schema).iter_errors(payload)]
    if errors:
        return None, [f"schema: {e}" for e in errors[:3]]
    if payload.get("command") != command:
        return None, [f"command is {payload.get('command')!r}, expected {command!r}"]
    return payload, []


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# betti

def check_betti(facts: dict, text: str, ctx: Context) -> list[str]:
    payload, problems = _payload(text, ctx, "betti")
    if payload is None:
        return problems
    G, k = facts["graph"], facts["k"]
    gens = sorted(ref.matching_supports(G, k))
    d = 2 * k
    entries: dict[tuple[int, int], int] = {}
    for i, vs, v in payload["entries"]:
        key = (i, ref.mask(vs))
        if key in entries:
            problems.append(f"entry ({i}, {vs}) listed twice")
        entries[key] = v
        if v <= 0:
            problems.append(f"beta_{i},{vs} = {v} is not positive")
    _expect(problems, "n", payload["n"], G[0])
    _expect(problems, "zero", payload["zero"], False)
    _expect(problems, "generator_degree", payload["generator_degree"], d)

    beta0 = {m: v for (i, m), v in entries.items() if i == 0}
    _expect(problems, "beta_0 support count", len(beta0), len(gens))
    if set(beta0) != set(gens) or any(v != 1 for v in beta0.values()):
        problems.append("beta_0 entries are not the k-matching supports, each once")

    lattice = ref.lcm_lattice(gens)
    mu = ref.moebius_from_bottom(lattice)
    euler: dict[int, int] = defaultdict(int)
    for (i, m), v in entries.items():
        euler[m] += (-1) ** i * v
    stray = set(euler) - set(mu)
    if stray:
        problems.append(f"{len(stray)} multidegrees outside the lcm lattice")
    bad = [m for m in lattice[1:] if euler.get(m, 0) != -mu[m]]
    if bad:
        m = bad[0]
        problems.append(
            f"alternating sum {euler.get(m, 0)} != -mu(1, m) = {-mu[m]} at "
            f"{ref.variables(m)} ({len(bad)} multidegrees disagree)"
        )

    small = [
        m for m in lattice[1:]
        if sum(1 for g in gens if g & ~m == 0) <= TAYLOR_MAX_GENS
    ]
    for m in ctx.rng.sample(small, min(TAYLOR_SAMPLE, len(small))):
        got = {i: v for (i, mm), v in entries.items() if mm == m}
        want = ref.taylor_betti(gens, m)
        if got != want:
            problems.append(f"Taylor complex at {ref.variables(m)}: {want}, table has {got}")

    graded: Counter = Counter()
    for (i, m), v in entries.items():
        graded[(i, m.bit_count())] += v
    _expect(problems, "graded", sorted(map(tuple, payload["graded"])),
            sorted((i, j, v) for (i, j), v in graded.items()))
    if entries:
        _expect(problems, "regularity", payload["regularity"],
                max(m.bit_count() - i for i, m in entries))
        _expect(problems, "projective_dimension", payload["projective_dimension"],
                max(i for i, _ in entries))
    _expect(problems, "linear_resolution", payload["linear_resolution"],
            all(m.bit_count() == d + i for i, m in entries))
    _expect(problems, "linearly_related", payload["linearly_related"],
            not any(i == 1 and m.bit_count() != d + 1 for i, m in entries))
    return problems


# ---------------------------------------------------------------------------
# verify

def check_verify(facts: dict, text: str, ctx: Context) -> list[str]:
    payload, problems = _payload(text, ctx, "verify")
    if payload is None:
        return problems
    _expect(problems, "family", payload["family"], facts["family"])
    _expect(problems, "graph_count", payload["graph_count"], sum(GRAPH_COUNTS[: facts["max_n"]]))
    _expect(problems, "theorem_failures", payload["theorem_failures"], 0)
    lines = Path(facts["ndjson"]).read_text().splitlines()
    _expect(problems, "ND-JSON lines", len(lines), payload["total_reports"])
    reports = []
    for line in lines:
        try:
            reports.append(json.loads(line))
        except json.JSONDecodeError:
            problems.append(f"ND-JSON line is not JSON: {line[:80]!r}")
            return problems
    summary: dict[str, Counter] = defaultdict(Counter)
    for r in reports:
        if not {"check", "instance", "outcome", "millis"} <= r.keys():
            problems.append(f"report lacks fields: {r}")
            continue
        if r["outcome"] not in OUTCOMES:
            problems.append(f"unknown outcome {r['outcome']!r}")
        if r["outcome"] == "fail" and ctx.kinds.get(r["check"]) != "exploration":
            problems.append(f"theorem failure: {r['check']} on {r['instance']}")
        if r["millis"] < 0:
            problems.append(f"negative millis in {r}")
        summary[r["check"]][r["outcome"]] += 1
    keys = [(r.get("check"), r.get("instance")) for r in reports]
    if keys != sorted(keys):
        problems.append("reports are not sorted by (check, instance)")
    _expect(problems, "checks", sorted(summary), payload["checks"])
    unregistered = set(summary) - set(ctx.kinds)
    if unregistered:
        problems.append(f"checks missing from the registry: {sorted(unregistered)}")
    _expect(problems, "summary", payload["summary"], {c: dict(n) for c, n in summary.items()})
    return problems


# ---------------------------------------------------------------------------
# invariants

def check_invariants(facts: dict, text: str, ctx: Context) -> list[str]:
    payload, problems = _payload(text, ctx, "invariants")
    if payload is None:
        return problems
    G = facts["graph"]
    H = ref.nx_graph(G)
    nu = ref.matching_number(H)
    nu1 = ref.induced_matching_number(H)
    nu0 = ref.restricted_matching_number(H)
    _expect(problems, "graph6", payload["graph6"], ref.graph6(G))
    _expect(problems, "n", payload["n"], G[0])
    _expect(problems, "edge_count", payload["edge_count"], len(G[1]))
    _expect(problems, "nu", payload["nu"], nu)
    _expect(problems, "has_perfect_matching", payload["has_perfect_matching"], 2 * nu == G[0])
    _expect(problems, "nu1", payload["nu1"], nu1)
    _expect(problems, "nu0", payload["nu0"], nu0)
    _expect(problems, "gap_free", payload["gap_free"], nu1 <= 1)
    _expect(problems, "is_chordal", payload["is_chordal"], nx.is_chordal(H))
    _expect(problems, "complement_chordal", payload["complement_chordal"],
            nx.is_chordal(nx.complement(H)))
    _expect(problems, "is_forest", payload["is_forest"], nx.is_forest(H))
    _expect(problems, "is_tree", payload["is_tree"], nx.is_tree(H))
    if not payload["nu1"] <= payload["nu0"] <= payload["nu"]:
        problems.append("nu1 <= nu0 <= nu fails")
    if payload["equimatchable"]:
        short = [s for s in (ref.greedy_maximal_matching(H, ctx.rng) for _ in range(GREEDY_TRIALS)) if s < nu]
        if short:
            problems.append(f"equimatchable, yet a maximal matching has {short[0]} < nu edges")
    return problems


# ---------------------------------------------------------------------------
# linquot

def check_linquot(facts: dict, text: str, ctx: Context) -> list[str]:
    payload, problems = _payload(text, ctx, "linquot")
    if payload is None:
        return problems
    gens = ref.matching_supports(facts["graph"], facts["k"])
    status, nodes, budget = payload["status"], payload["nodes"], facts["node_budget"]
    if status == "found":
        order = [ref.mask(vs) for vs in payload["order"]]
        if sorted(order) != sorted(gens):
            problems.append("order is not a permutation of the generators")
        bad = [j for j in range(1, len(order)) if not ref.colon_is_linear(order[:j], order[j])]
        if bad:
            problems.append(f"colon at position {bad[0]} is not generated by variables")
    elif status == "none":
        if ref.linearly_related(sorted(gens)):
            problems.append("'none' for a linearly related ideal is not confirmed")
    if (status == "inconclusive") != (nodes > budget):
        problems.append(f"status {status} with {nodes} nodes against budget {budget}")
    if status != "found" and payload["order"] is not None:
        problems.append(f"status {status} carries an order")
    return problems
