"""The four workloads: the CLI operations of one round, generated from a seed.

A workload turns ``random.Random`` seeded from ``--seed`` into a fixed list of
operations; every round of a run repeats that list.  The seed changes the
inputs (drawn graphs, vertex labels, the seed of the random checks) and
leaves the amount of work of a round nearly the same, so that runs with
different seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checkers
import reference as ref


@dataclass(frozen=True)
class Op:
    """One CLI call: ``sqfpowers ARGS``, and the facts its output is checked against."""

    label: str
    args: tuple[str, ...]
    facts: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[random.Random, Path], list[Op]]
    check: Callable[[dict, str, checkers.Context], list[str]]
    setup_code: str  # what a fresh interpreter runs before it can serve an operation


SETUP_IMPORT = "import sqfpowers"

# betti-large: the ROADMAP's three large instances, (name, graph, k), in their
# natural labelling.  The seed does not change them: a relabelling moves the
# kernel's cost by several percent, and this workload has too few operations
# to average that out.  The two smaller instances run twice per round, apart,
# so that the median operation is not a single sample.
P12, C12, P14 = ("P12", ref.path(12), 3), ("C12", ref.cycle(12), 3), ("P14", ref.path(14), 4)
BETTI_ROUND = (P12, C12, P14, C12, P12)


def betti_ops(rng: random.Random, out: Path) -> list[Op]:
    return [Op(f"{name}^[{k}]", ("betti", "g6:" + ref.graph6(G), "-k", str(k), "--json"),
               {"graph": G, "k": k})
            for name, G, k in BETTI_ROUND]


VERIFY_FAMILY_MAX_N = 6
VERIFY_JOBS = 2


def verify_ops(rng: random.Random, out: Path) -> list[Op]:
    family = f"exhaustive-{VERIFY_FAMILY_MAX_N}"
    ndjson = out / "verify.ndjson"
    args = ("verify", "all", "--family", family, "--jobs", str(VERIFY_JOBS),
            "--seed", str(rng.getrandbits(62)), "--json", "--ndjson", str(ndjson))
    return [Op(family, args, {"family": family, "max_n": VERIFY_FAMILY_MAX_N,
                              "ndjson": ndjson, "jobs": VERIFY_JOBS})]


# invariants-large: (n, p, count) for G(n, p).  Graphs up to 24 vertices are
# dense and those above sparse, so that every graph costs 0.1-0.7 s (2-core
# Intel Xeon) and the cost of a whole round varies by a few percent between
# seeds; the cost of one graph varies by 15-60 % with the draw.
INVARIANT_SIZES = ((20, 0.5, 3), (22, 0.45, 3), (24, 0.4, 3), (26, 0.12, 3), (28, 0.06, 3), (30, 0.06, 3))


def invariants_ops(rng: random.Random, out: Path) -> list[Op]:
    ops = []
    for n, p, count in INVARIANT_SIZES:
        for i in range(count):
            G = ref.gnp(n, p, rng)
            ops.append(Op(f"G({n},{p})#{i}", ("invariants", "g6:" + ref.graph6(G), "--json"),
                          {"graph": G}))
    rng.shuffle(ops)
    return ops


# linquot-search: squares I(G)^[2] of 7-vertex graphs, by graph6 code.
# EXHAUSTING: 21-27 generators, not linearly related; the search runs out of
# any budget up to 10M nodes on every labelling tried.  FtK}? is always in.
# QUICK: an order is found within 50 nodes.  NO_ORDER: not linearly related,
# and the search proves there is no order within 1,000 nodes.
LINQUOT_BUDGET = 300_000
ALWAYS_EXHAUSTING = "FtK}?"
EXHAUSTING = "Ftk}? FpK}? F{ff? Fkff? FxNe? FKff? FpNe?".split()
QUICK = r"""FLr?? FjaC? F~Y?? FlqC? FLpC? Fnj?? F~z?? FprE? F~HC? F\rC? FvhC? FLv_?
FbjC? FzrC? F~~w? F^rE? FzZC? FNZC? FvZC? FNzC? Ffzc? F|jE? FLUe? Fnxc? F\NE?
FrjE? F~jE? FfYe? F~~C? FVze? Fn|c? F~ee? FVue? FvUe? F^~E? Fuff? F~~E? Ff}e?
F~~{? Fjff? F~]e? FLm}? F^~e? Fs~V? F}}u? Fh}u? F}vf? F`~V? F|k}? FZm}? F{nV?
F]~v? Fu~v? F~nV? Fpv^? Fvv^? F\v^? F~v^? Fvz~o F~~~w""".split()
NO_ORDER = "F@Q?? F`Q?? FTQ?? F@QC? F@r?? F`QC? FTQC? FHQC? FJQC? F`r?? F@pC? F`pC?".split()
LINQUOT_DRAW = ((EXHAUSTING, 3), (QUICK, 8), (NO_ORDER, 2))


def linquot_ops(rng: random.Random, out: Path) -> list[Op]:
    codes = [ALWAYS_EXHAUSTING]
    for pool, count in LINQUOT_DRAW:
        codes += rng.sample(pool, count)
    ops = []
    for code in codes:
        G = ref.relabel(ref.from_graph6(code), rng)
        args = ("linquot", "g6:" + ref.graph6(G), "-k", "2",
                "--node-budget", str(LINQUOT_BUDGET), "--json")
        ops.append(Op(code, args, {"graph": G, "k": 2, "node_budget": LINQUOT_BUDGET}))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("betti-large", betti_ops, checkers.check_betti, SETUP_IMPORT),
        Workload("verify-sweep", verify_ops, checkers.check_verify,
                 SETUP_IMPORT + "\nfrom sqfpowers.families import resolve_family\n"
                 f"resolve_family('exhaustive-{VERIFY_FAMILY_MAX_N}')"),
        Workload("invariants-large", invariants_ops, checkers.check_invariants, SETUP_IMPORT),
        Workload("linquot-search", linquot_ops, checkers.check_linquot, SETUP_IMPORT),
    )
}
