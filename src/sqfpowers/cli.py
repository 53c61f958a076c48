"""Command line interface.

Subcommands cover the invariants (``invariants``, ``lambda``), the algebra
(``power``, ``betti``, ``linrel``, ``linquot``, ``colon``), the forest
templates (``classify``), and the verification harness (``verify``).  Every
subcommand accepts ``--json`` for machine-readable output conforming to
``schemas/output.schema.json``.

Exit codes: 0 success, 1 theorem-check failure (``verify`` only), 2 usage or
input error, 141 standard output closed by its reader (as a shell reports a
writer killed by SIGPIPE; nothing more is written, and no ``error:`` line).
An input error is any other ``ValueError`` or ``OSError`` a command raises;
``main`` prints it as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import betti, checks, edge_ideals, families, graphs, ideals, matchings, memo
from .defaults import (
    DEFAULT_CHARACTERISTIC,
    DEFAULT_NODE_BUDGET,
    DEFAULT_RANDOM_GRAPHS,
    DEFAULT_RANDOM_IDEALS,
    DEFAULT_SEED,
    FAMILY_HELP,
)

GRAPH_SPEC_HELP = (
    "graph source: a builtin name (%s), 'builtin:NAME', 'g6:STRING', "
    "'-' for stdin, or a path to a file holding one graph as an edge list "
    "('n m' header then one 'u v' pair per line) or a graph6 line"
) % ", ".join(graphs.BUILTIN_GRAPH_NAMES)


def load_graph(spec: str) -> graphs.Graph:
    if spec.startswith("builtin:"):
        return graphs.builtin_graph(spec.split(":", 1)[1])
    if spec in graphs.BUILTIN_GRAPH_NAMES:
        return graphs.builtin_graph(spec)
    if spec.startswith("g6:"):
        text = spec.split(":", 1)[1]
    elif spec == "-":
        text = sys.stdin.read()
    else:
        path = Path(spec)
        if not path.exists():
            raise ValueError(
                f"graph spec {spec!r} is not a builtin name, a g6: string, "
                "or an existing file"
            )
        text = path.read_text()
    try:
        parsed = graphs.parse_graphs(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse graph from {spec!r}: {exc}") from exc
    if len(parsed) != 1:
        raise ValueError(
            f"{spec!r} holds {len(parsed)} graphs; this command needs exactly one"
        )
    return parsed[0]


def load_ideal(path_spec: str) -> ideals.MonomialIdeal:
    text = sys.stdin.read() if path_spec == "-" else Path(path_spec).read_text()
    try:
        return ideals.parse_ideal(text)
    except ValueError as exc:
        raise ValueError(f"cannot parse ideal from {path_spec!r}: {exc}") from exc


_WRITE_BLOCK = 1024  # encoder chunks per write, about 8 KB of indented JSON


def _emit(payload: dict, as_json: bool, text: str = "") -> None:
    """Print the payload as indented JSON, or else the text.

    The JSON is written as it is encoded, a block of chunks per write: the
    whole document never sits in memory as one string, and a write per chunk
    (what json.dump does) would be a system call each on an unbuffered stdout.
    """
    if not as_json:
        print(text)
        return
    write = sys.stdout.write
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    while block := list(itertools.islice(chunks, _WRITE_BLOCK)):
        write("".join(block))
    write("\n")


def _gens_as_lists(I: ideals.MonomialIdeal) -> list[list[int]]:
    return [list(ideals.monomial_vars(g)) for g in I.gens]


def _ideal_for_algebra(args: argparse.Namespace) -> ideals.MonomialIdeal:
    """Shared input handling for betti/linrel/linquot: a graph power or an ideal file."""
    if args.ideal is not None:
        if args.graph is not None:
            raise ValueError("give either a GRAPH argument or --ideal FILE, not both")
        if args.k != 1:
            raise ValueError(
                f"-k {args.k} needs a GRAPH argument; --ideal FILE takes no power"
            )
        return load_ideal(args.ideal)
    if args.graph is None:
        raise ValueError("provide a GRAPH argument or --ideal FILE")
    return edge_ideals.sqfree_power_via_matchings(load_graph(args.graph), args.k)


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_invariants(args: argparse.Namespace) -> int:
    G = load_graph(args.graph)
    nu1 = matchings.induced_matching_number(G)
    payload = {
        "command": "invariants",
        "graph6": graphs.to_graph6(G),
        "n": G.n,
        "edge_count": len(G.edges),
        "nu": matchings.matching_number(G),
        "nu1": nu1,
        "nu0": matchings.restricted_matching_number(G),
        "equimatchable": matchings.is_equimatchable(G),
        "has_perfect_matching": matchings.has_perfect_matching(G),
        "gap_free": nu1 <= 1,  # what is_gap_free decides, from the nu1 already computed
        "is_forest": graphs.is_forest(G),
        "is_tree": graphs.is_tree(G),
        "is_chordal": graphs.is_chordal(G),
        "complement_chordal": graphs.is_chordal(graphs.complement(G)),
    }
    text = "\n".join(f"{key}: {value}" for key, value in payload.items() if key != "command")
    _emit(payload, args.json, text)
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    G = load_graph(args.graph)
    I = edge_ideals.sqfree_power_via_matchings(G, args.k)
    payload = {
        "command": "power",
        "graph6": graphs.to_graph6(G),
        "n": G.n,
        "k": args.k,
        "nu": matchings.matching_number(G),
        "zero": I.is_zero,
        "generator_count": len(I.gens),
        "generators": _gens_as_lists(I),
    }
    _emit(payload, args.json, ideals.format_ideal(I).rstrip("\n"))
    return 0


def _betti_payload(I: ideals.MonomialIdeal, characteristic: int) -> tuple[dict, str]:
    """The betti payload and the diagram text, both from one table."""
    table = betti.multigraded_betti(I, characteristic)
    return {
        "zero": I.is_zero,
        "n": I.n,
        "characteristic": characteristic,
        "generator_degree": table.gen_degree,
        "entries": sorted(
            [i, list(ideals.monomial_vars(m)), v] for (i, m), v in table.entries.items()
        ),
        "graded": sorted([i, j, v] for (i, j), v in table.graded().items()),
        "regularity": table.regularity(),
        "projective_dimension": table.projective_dimension(),
        "linear_resolution": table.is_linear(),
        # mixed generator degrees: neither, as in BettiTable.is_linear
        "linearly_related": I.is_zero
        or (table.gen_degree is not None and betti.is_linearly_related_combinatorial(I)),
    }, betti.render_betti_diagram(table)


def cmd_betti(args: argparse.Namespace) -> int:
    I = _ideal_for_algebra(args)
    fields, diagram = _betti_payload(I, args.char)
    payload = {"command": "betti", **fields}
    lines = [diagram]
    lines.append("")
    lines.append(f"regularity: {payload['regularity']}")
    lines.append(f"projective dimension: {payload['projective_dimension']}")
    lines.append(f"linear resolution: {payload['linear_resolution']}")
    lines.append(f"linearly related: {payload['linearly_related']}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_linrel(args: argparse.Namespace) -> int:
    I = _ideal_for_algebra(args)
    comb = homo = None
    if args.method in ("combinatorial", "both"):
        comb = betti.is_linearly_related_combinatorial(I)
    if args.method in ("homological", "both"):
        homo = betti.is_linearly_related_homological(I, args.char)
    verdict = comb if comb is not None else homo
    payload = {
        "command": "linrel",
        "method": args.method,
        "combinatorial": comb,
        "homological": homo,
        "agree": (comb == homo) if args.method == "both" else None,
        "linearly_related": verdict,
    }
    lines = [f"linearly related: {verdict}"]
    if args.method == "both":
        lines.append(f"combinatorial: {comb}")
        lines.append(f"homological (char {args.char}): {homo}")
        lines.append(f"agree: {comb == homo}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_linquot(args: argparse.Namespace) -> int:
    I = _ideal_for_algebra(args)
    with memo.time_budget(args.time_budget):
        result = betti.linear_quotients_order(I, args.node_budget)
    payload = {
        "command": "linquot",
        "status": result.status,
        "nodes": result.nodes,
        "order": (
            [list(ideals.monomial_vars(g)) for g in result.order]
            if result.status == "found"
            else None
        ),
    }
    lines = [f"status: {result.status}", f"nodes explored: {result.nodes}"]
    if result.reason is not None:
        payload["reason"] = result.reason
        lines.append(f"reason: {result.reason}")
    if result.status == "found":
        lines.append(
            "order: " + "; ".join(".".join(map(str, o)) for o in payload["order"])
        )
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_lambda(args: argparse.Namespace) -> int:
    G = load_graph(args.graph)
    nu = matchings.matching_number(G)
    per_power = [
        {
            "k": k,
            "linearly_related": betti.is_linearly_related_combinatorial(
                edge_ideals.sqfree_power_via_matchings(G, k)
            ),
        }
        for k in range(1, nu + 1)
    ]
    lam = edge_ideals.lambda_number(G)
    payload = {
        "command": "lambda",
        "graph6": graphs.to_graph6(G),
        "lambda": lam,
        "nu": nu,
        "nu0": matchings.restricted_matching_number(G),
        "per_power": per_power,
    }
    lines = [f"lambda: {lam}", f"nu: {nu}", f"nu0: {payload['nu0']}"]
    lines += [
        f"  k={row['k']}: linearly related = {row['linearly_related']}"
        for row in per_power
    ]
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_colon(args: argparse.Namespace) -> int:
    G = load_graph(args.graph)
    if (args.l is None) == (args.edge is None):
        raise ValueError("colon needs exactly one of -l L or --edge U V")
    I = edge_ideals.sqfree_power_via_matchings(G, args.k)
    equals_power = derived_edges = matches = None
    if args.l is not None:
        J = edge_ideals.sqfree_power_via_matchings(G, args.l)
        quotient = ideals.colon_ideal(I, J)
        equals_power = quotient == I
        notes = [f"# equals I(G)^[{args.k}]: {equals_power}"]
    else:
        u, v = args.edge
        if not G.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        quotient = ideals.colon_by_monomial(I, ideals.monomial((u, v)))
        notes = []
        if args.k == 2:
            derived = edge_ideals.colon_square_by_edge(G, (min(u, v), max(u, v)))
            derived_edges = [list(e) for e in derived.edge_list]
            matches = edge_ideals.edge_ideal(derived) == quotient
            notes = [
                f"# derived graph edges: {derived_edges}",
                f"# matches derived graph: {matches}",
            ]
    payload = {
        "command": "colon",
        "graph6": graphs.to_graph6(G),
        "k": args.k,
        "l": args.l,
        "edge": args.edge,
        "generators": _gens_as_lists(quotient),
        "equals_power": equals_power,
        "colon_graph_edges": derived_edges,
        "matches_derived_graph": matches,
    }
    lines = [ideals.format_ideal(quotient).rstrip("\n"), *notes]
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    G = load_graph(args.graph)
    result = edge_ideals.classify_forest(G)
    payload = {
        "command": "classify",
        "graph6": graphs.to_graph6(G),
        "matched": result.matched,
        "kinds": list(result.kinds()),
        "matches": [
            {
                "kind": m.kind,
                "spine": list(m.spine),
                "bouquets": [list(b) for b in m.bouquets],
            }
            for m in result.matches
        ],
    }
    lines = [f"matched: {result.matched}"]
    for m in result.matches:
        lines.append(
            f"  {m.kind}: spine={list(m.spine)} bouquets={[list(b) for b in m.bouquets]}"
        )
    _emit(payload, args.json, "\n".join(lines))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        if args.json:
            payload = {
                "command": "verify",
                "registry": [
                    {
                        "name": c.name,
                        "kind": c.kind,
                        "scope": c.scope,
                        "statement": c.statement,
                    }
                    for c in checks.CHECKS.values()
                ],
            }
            _emit(payload, True)
        else:
            for c in checks.CHECKS.values():
                print(f"{c.name:32s} [{c.kind}/{c.scope}] {c.statement}")
        return 0
    if args.family is None:
        raise ValueError("verify needs --family (or --list)")
    ctx = checks.CheckContext(
        characteristic=args.char,
        seed=args.seed,
        node_budget=args.node_budget,
        time_budget_s=args.time_budget,
        random_ideal_count=args.random_ideals,
        random_graph_count=args.random_graphs,
    )
    names = None if args.checks == "all" else [n for n in args.checks.split(",") if n]
    names = checks.validate_request(names, ctx, args.jobs)
    family_graphs = families.resolve_family(args.family, seed=args.seed)
    # Opened before the sweep, so that a path that cannot be written fails at once.
    with open(args.ndjson, "w") if args.ndjson else contextlib.nullcontext() as ndjson:
        reports = checks.run_checks(names, family_graphs, ctx, jobs=args.jobs)
        if ndjson is not None:
            ndjson.writelines(r.to_json_line() + "\n" for r in reports)
    summary = checks.summarize(reports)
    failures = checks.theorem_failures(reports)
    payload = {
        "command": "verify",
        "family": args.family,
        "graph_count": len(family_graphs),
        "checks": sorted(summary),
        "summary": summary,
        "total_reports": len(reports),
        "theorem_failures": len(failures),
        "failing": [
            {"check": r.check, "instance": r.instance, "witness": r.witness}
            for r in failures[:50]
        ],
        "ndjson": args.ndjson,
    }
    if args.json:
        _emit(payload, True)
    else:
        width = max((len(n) for n in summary), default=5)
        print(
            f"{'check'.ljust(width)}  {'pass':>6} {'fail':>6} {'vacuous':>8} {'inconcl':>8}"
        )
        for name in sorted(summary):
            counts = summary[name]
            print(
                f"{name.ljust(width)}  {counts.get('pass', 0):>6} "
                f"{counts.get('fail', 0):>6} {counts.get('vacuous', 0):>8} "
                f"{counts.get('inconclusive', 0):>8}"
            )
        print(
            f"\n{len(family_graphs)} graphs, {len(reports)} reports, "
            f"{len(failures)} theorem failures"
        )
        for r in failures[:20]:
            print(f"FAIL {r.check} on {r.instance}: {r.witness}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    # Each option group shared by several subcommands is declared once, as a parent.
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("graph", help=GRAPH_SPEC_HELP)
    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("graph", nargs="?", default=None, help=GRAPH_SPEC_HELP)
    algebra.add_argument(
        "-k", type=int, default=1, help="squarefree power exponent (default 1)"
    )
    algebra.add_argument(
        "--ideal",
        default=None,
        metavar="FILE",
        help="operate on an ideal file instead of a graph power ('-' for stdin)",
    )
    char = argparse.ArgumentParser(add_help=False)
    char.add_argument(
        "--char",
        type=int,
        default=DEFAULT_CHARACTERISTIC,
        help=f"prime field characteristic (default {DEFAULT_CHARACTERISTIC})",
    )
    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    budgets.add_argument("--time-budget", type=float, default=None, metavar="SECONDS")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="sqfpowers",
        description=(
            "Matching invariants, squarefree powers of edge ideals, Betti "
            "tables over finite prime fields, and a verification harness."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, func, help: str, *parents: argparse.ArgumentParser):
        p = sub.add_parser(name, help=help, parents=[*parents, as_json])
        p.set_defaults(func=func)
        return p

    command("invariants", cmd_invariants, "matching and structural invariants", graph)
    p = command("power", cmd_power, "generators of the k-th squarefree power", graph)
    p.add_argument("-k", type=int, required=True, help="power exponent")
    command(
        "betti", cmd_betti, "multigraded Betti table and derived data", algebra, char
    )
    p = command("linrel", cmd_linrel, "are the first syzygies linear?", algebra, char)
    p.add_argument(
        "--method",
        choices=("combinatorial", "homological", "both"),
        default="combinatorial",
    )
    command(
        "linquot", cmd_linquot, "search for a linear-quotients order", algebra, budgets
    )
    command(
        "lambda", cmd_lambda, "least k with all powers from k on linearly related", graph
    )
    p = command(
        "colon",
        cmd_colon,
        "quotient of a squarefree power by a lower power or by an edge",
        graph,
    )
    p.add_argument("-k", type=int, default=2, help="power exponent (default 2)")
    p.add_argument(
        "-l",
        type=int,
        default=None,
        help="compute I^[k] : I^[l] and report whether it equals I^[k]",
    )
    p.add_argument(
        "-e",
        "--edge",
        type=int,
        nargs=2,
        default=None,
        metavar=("U", "V"),
        help="edge whose monomial divides out (alternative to -l)",
    )
    command("classify", cmd_classify, "match a forest against the templates", graph)
    p = command(
        "verify", cmd_verify, "run the theorem checks over a family", char, budgets
    )
    p.add_argument(
        "checks",
        nargs="?",
        default="all",
        help="'all' or comma-separated check names (default: all)",
    )
    p.add_argument("--family", default=None, help=FAMILY_HELP)
    p.add_argument("--list", action="store_true", help="print the registry and exit")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; at most one per task and per usable CPU",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--random-ideals", type=int, default=DEFAULT_RANDOM_IDEALS)
    p.add_argument("--random-graphs", type=int, default=DEFAULT_RANDOM_GRAPHS)
    p.add_argument(
        "--ndjson", default=None, metavar="PATH", help="write one report per line"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Output still buffered would fail again at shutdown; it goes nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
