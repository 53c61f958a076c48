"""Per-layer tracing of one CLI operation, installed from outside the program.

    python3 bench/tracer.py TRACE_DIR OP_ID -- ARGS...

runs ``sqfpowers ARGS`` in this interpreter after replacing each traced public
function, at every module of the package that binds it, with a wrapper that
records a span (name, start, end, parent span) and, for some functions, a
count taken from the arguments or the result.  ``MonomialIdeal.contains`` is
counted only, because it runs millions of times per table.  Spans stay in
memory; each process writes its own once, when it ends, to
``TRACE_DIR/OP_ID-PID.json``.  Pool workers forked by ``verify --jobs N``
start with an empty record and write theirs when the pool shuts them down.

``layer_metrics`` turns those files into the per-layer metrics.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Functions that get a span, as (module of the package, function).
TRACED = (
    ("cli", "main"),
    ("families", "resolve_family"),
    ("checks", "run_checks"),
    ("betti", "multigraded_betti"),
    ("betti", "lcm_lattice"),
    ("betti", "gf_rank"),
    ("betti", "linear_quotients_order"),
    ("betti", "is_linearly_related_combinatorial"),
    ("betti", "is_linearly_related_homological"),
    ("ideals", "minimalize"),
    ("edge_ideals", "sqfree_power_via_matchings"),
    ("matchings", "matching_number"),
    ("matchings", "induced_matching_number"),
    ("matchings", "restricted_matching_number"),
    ("matchings", "is_equimatchable"),
)


class Recorder:
    """The spans and counts of one process."""

    def __init__(self, out_dir: str, op: str) -> None:
        self.out_dir, self.op = out_dir, op
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.table_keys: set[int] = set()

    def start_child(self) -> None:
        """Run in a forked pool worker: drop the parent's record, write our own at exit."""
        self.reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)

    def dump(self) -> None:
        record = {"op": self.op, "pid": os.getpid(), "spans": self.spans,
                  "counts": self.counts, "table_keys": sorted(self.table_keys)}
        path = Path(self.out_dir) / f"{self.op}-{os.getpid()}.json"
        path.write_text(json.dumps(record, separators=(",", ":")))

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced


def _after_table(rec: Recorder, characteristic_default: int):
    def after(counts, args, kwargs, result):
        ideal = args[0]
        p = args[1] if len(args) > 1 else kwargs.get("characteristic", characteristic_default)
        rec.table_keys.add(hash((ideal.n, ideal.gens, p)))
    return after


def _after_rank(threshold: int):
    def after(counts, args, kwargs, result):
        rows, cols = args[0].shape
        counts["rank_cells"] += rows * cols
        counts["rank_bytes"] += rows * cols * 8  # the int64 working copy
        counts["rank_max_cols"] = max(counts["rank_max_cols"], cols)
        counts["rank_sparse_calls"] += cols > threshold
    return after


def _after_linquot(counts, args, kwargs, result):
    counts["linquot_nodes"] += result.nodes
    counts["linquot_inconclusive"] += result.status == "inconclusive"


def install(rec: Recorder) -> None:
    import sqfpowers.cli  # noqa: F401  (loads every module of the package)
    from sqfpowers import betti, ideals

    after = {
        ("betti", "multigraded_betti"): _after_table(rec, betti.DEFAULT_CHARACTERISTIC),
        ("betti", "gf_rank"): _after_rank(betti.SPARSE_COLUMN_THRESHOLD),
        ("betti", "lcm_lattice"): lambda c, a, k, r: c.update(lattice_elems=len(r)),
        ("betti", "linear_quotients_order"): _after_linquot,
        ("edge_ideals", "sqfree_power_via_matchings"): lambda c, a, k, r: c.update(power_gens=len(r.gens)),
        ("families", "resolve_family"): lambda c, a, k, r: c.update(graphs=len(r)),
    }
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "sqfpowers" or name.startswith("sqfpowers.")}
    wrappers = {}
    for mod, fn_name in TRACED:
        fn = getattr(modules[f"sqfpowers.{mod}"], fn_name)
        wrappers[fn] = rec.wrap(f"{mod}.{fn_name}", fn, after.get((mod, fn_name)))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])

    contains = ideals.MonomialIdeal.contains

    @functools.wraps(contains)
    def counted_contains(self, mask):
        rec.counts["contains_calls"] += 1
        return contains(self, mask)

    ideals.MonomialIdeal.contains = counted_contains


def main(argv: list[str]) -> int:
    out_dir, op, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_DIR OP_ID -- ARGS...")
    rec = Recorder(out_dir, op)
    install(rec)
    multiprocessing.util.register_after_fork(rec, Recorder.start_child)
    import sqfpowers.cli

    try:
        return sqfpowers.cli.main(cli_args)
    finally:
        rec.dump()


# ---------------------------------------------------------------------------
# aggregation

def layer_metrics(paths: list[Path]) -> dict[str, float]:
    """Per-layer metrics summed over the trace files of one traced round."""
    calls: Counter = Counter()
    inclusive: defaultdict = defaultdict(float)  # time in outermost spans of a name
    self_time: defaultdict = defaultdict(float)
    counts: Counter = Counter()
    max_cols = 0
    keys: set[int] = set()
    for path in paths:
        record = json.loads(path.read_text())
        spans = record["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - children[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        max_cols = max(max_cols, record["counts"].pop("rank_max_cols", 0))
        counts.update(record["counts"])
        keys.update(record["table_keys"])
    ops = calls["cli.main"] or 1
    tables = calls["betti.multigraded_betti"]
    return {
        "cli.self_s": self_time["cli.main"],
        "cli.betti_tables_per_call": tables / ops,
        "cli.nu_calls_per_invariants_call": calls["matchings.matching_number"] / ops,
        "betti.tables": tables,
        "betti.table_s": inclusive["betti.multigraded_betti"],
        "betti.lattice_builds": calls["betti.lcm_lattice"],
        "betti.lattice_elems": counts["lattice_elems"],
        "betti.lattice_s": inclusive["betti.lcm_lattice"],
        "betti.faces_s": self_time["betti.multigraded_betti"],
        "betti.rank_calls": calls["betti.gf_rank"],
        "betti.rank_s": inclusive["betti.gf_rank"],
        "betti.rank_cells": counts["rank_cells"],
        "betti.rank_bytes": counts["rank_bytes"],
        "betti.rank_max_cols": max_cols,
        "betti.rank_sparse_calls": counts["rank_sparse_calls"],
        "betti.linquot_calls": calls["betti.linear_quotients_order"],
        "betti.linquot_nodes": counts["linquot_nodes"],
        "betti.linquot_s": inclusive["betti.linear_quotients_order"],
        "betti.linquot_inconclusive": counts["linquot_inconclusive"],
        "betti.linrel_s": inclusive["betti.is_linearly_related_combinatorial"]
        + inclusive["betti.is_linearly_related_homological"],
        "ideals.contains_calls": counts["contains_calls"],
        "ideals.minimalize_calls": calls["ideals.minimalize"],
        "ideals.minimalize_s": inclusive["ideals.minimalize"],
        "edge_ideals.power_calls": calls["edge_ideals.sqfree_power_via_matchings"],
        "edge_ideals.power_s": inclusive["edge_ideals.sqfree_power_via_matchings"],
        "edge_ideals.power_gens": counts["power_gens"],
        "matchings.nu_calls": calls["matchings.matching_number"],
        "matchings.nu_s": inclusive["matchings.matching_number"],
        "matchings.nu0_s": inclusive["matchings.restricted_matching_number"],
        "matchings.nu1_s": inclusive["matchings.induced_matching_number"],
        "matchings.equimatchable_s": inclusive["matchings.is_equimatchable"],
        "families.resolve_s": inclusive["families.resolve_family"],
        "families.graphs": counts["graphs"],
        "checks.distinct_table_ratio": len(keys) / tables if tables else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
