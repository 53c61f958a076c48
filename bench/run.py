"""Benchmark of the sqfpowers CLI: one workload, timed end to end and checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` beside this directory.
Every operation is one ``python -m sqfpowers.cli`` process, started only
after the previous one has ended (a closed loop with one client).  A round is
the workload's fixed list of operations.  A run makes one round, and more
while the next is expected to end within ``--seconds`` of operation time, so
it never stops inside a round.  Every output is checked against
``reference``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run makes one round in which
each distinct operation runs plain and then under ``tracer.py``, and reports the
per-layer metrics and the tracing overhead (traced minus plain wall time)
instead.  Outputs, ND-JSON files, traces and the result of the last run of
each workload are kept under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checkers
import tracer
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "sqfpowers" / "schemas" / "output.schema.json"
OUT = ROOT / ".bench_out"
TRACER = Path(tracer.__file__).resolve()
LAUNCHER = TRACER.parent / "launcher.py"
SETUP_REPEATS = 7
RUN_LIMIT_S = 165.0  # no operation may run past this point of a run


@dataclass
class Result:
    op: Op
    wall_s: float
    cpu_s: float
    rss_kb: int
    failed: bool


class RunError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Launcher:
    """The small interpreter every timed process is started from (see ``launcher.py``)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(LAUNCHER)], cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: list[str], env: dict, stdout: Path, deadline: float) -> dict:
        """Run argv to its end, killed at the deadline: {code, wall_s, cpu_s, rss_kb}."""
        request = {"argv": argv, "env": env, "stdout": str(stdout),
                   "stderr": str(stdout.with_suffix(".err")),
                   "timeout": max(0.1, deadline - time.perf_counter())}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RunError("the launcher stopped")
        return json.loads(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Runner:
    def __init__(self, workload, seed: int, out: Path, launcher: Launcher) -> None:
        self.workload, self.out, self.launcher = workload, out, launcher
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.correct = True
        self.first_output: dict[int, bytes] = {}  # operation index -> checked output
        self.ctx: checkers.Context | None = None
        self.seed = seed

    def setup(self) -> float:
        """Median time for a fresh interpreter to get ready; also loads the check context.

        The first, untimed start writes the bytecode caches.
        """
        argv = [sys.executable, "-c", self.workload.setup_code]
        probe = self.out / "setup.txt"
        times = []
        for _ in range(SETUP_REPEATS + 1):
            done = self.launcher.run(argv, self.env, probe, self.deadline)
            if done["code"] != 0:
                raise RunError(f"cannot set up sqfpowers from {SRC}: "
                               + probe.with_suffix(".err").read_text()[-500:])
            times.append(done["wall_s"])
        times.pop(0)
        registry = None
        if self.workload.name == "verify-sweep":
            listing = self.out / "registry.json"
            done = self.launcher.run([sys.executable, "-m", "sqfpowers.cli", "verify", "--list", "--json"],
                                     self.env, listing, self.deadline)
            if done["code"] != 0:
                raise RunError("cannot read the check registry")
            registry = json.loads(listing.read_text())
        self.ctx = checkers.Context.load(SCHEMA, registry, self.seed)
        return statistics.median(times)

    def run_op(self, index: int, op: Op, traced: bool) -> Result:
        stdout = self.out / f"op{index:02d}{'.traced' if traced else ''}.json"
        if traced:
            trace_dir = self.out / "trace"
            argv = [sys.executable, str(TRACER), str(trace_dir), f"op{index:02d}", "--", *op.args]
        else:
            argv = [sys.executable, "-m", "sqfpowers.cli", *op.args]
        done = self.launcher.run(argv, self.env, stdout, self.deadline)
        result = Result(op, done["wall_s"], done["cpu_s"], done["rss_kb"], done["code"] != 0)
        if result.failed:
            err = stdout.with_suffix(".err").read_text()[-400:]
            print(f"{op.label}: exit {done['code']}: {err}", file=sys.stderr)
            return result
        text = stdout.read_bytes()
        if self.first_output.get(index) == text and "ndjson" not in op.facts:
            return result  # byte-identical to an output already checked
        problems = self.workload.check(op.facts, text.decode(), self.ctx)
        if problems:
            self.correct = False
            for p in problems[:5]:
                print(f"{op.label}: {p}", file=sys.stderr)
        else:
            self.first_output.setdefault(index, text)
        return result

    def run_round(self, ops: list[Op]) -> list[Result]:
        return [self.run_op(i, op, traced=False) for i, op in enumerate(ops)]


def report_stats(ndjson: Path) -> tuple[int, float, float]:
    """(reports, sum of millis, largest millis) of a verify ND-JSON file."""
    millis = [json.loads(line)["millis"] for line in ndjson.read_text().splitlines()]
    return len(millis), sum(millis), max(millis)


def end_to_end(rounds: list[list[Result]], setup_s: float) -> dict[str, tuple[float, str]]:
    ok = [[r for r in rnd if not r.failed] for rnd in rounds]
    walls = [r.wall_s for rnd in ok for r in rnd]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(r.wall_s for r in rnd) for rnd in ok), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(sum(r.cpu_s for r in rnd) for rnd in ok), "s"),
        "peak_rss_mb": (max(r.rss_kb for rnd in ok for r in rnd) / 1024, "MB"),
    }


LAYER_UNITS = (("_ms_sum", "ms"), ("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio"),
               ("_per_call", "ratio"), ("_per_invariants_call", "ratio"), ("_bytes", "B"))


def layer_report(layers: dict, stats: list, plain: list[Result],
                 traced: list[Result]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics with units: the tracer's, the verify reports', the overhead."""
    untraced_wall = sum(r.wall_s for r in plain)
    traced_wall = sum(r.wall_s for r in traced)
    report_ms = sum(s[1] for s in stats)
    pool_capacity_s = sum(r.op.facts["jobs"] * r.wall_s for r in plain if "jobs" in r.op.facts)
    layers = dict(layers)
    layers.update({
        "checks.reports": sum(s[0] for s in stats),
        "checks.report_ms_sum": report_ms,
        "checks.max_report_ms": max((s[2] for s in stats), default=0.0),
        "checks.pool_busy_ratio": report_ms / 1000 / pool_capacity_s if pool_capacity_s else 0.0,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return {
        name: (value, next((u for suffix, u in LAYER_UNITS if name.endswith(suffix)), "count"))
        for name, value in layers.items()
    }


def per_layer(runner: Runner, ops: list[Op]) -> tuple[list[list[Result]], dict[str, tuple[float, str]]]:
    """Each distinct operation of a round plain, then at once traced.

    Back to back, both runs see the machine in the same state.  The verify
    report figures come from the plain run.
    """
    trace_dir = runner.out / "trace"
    trace_dir.mkdir()
    plain, traced, stats = [], [], []
    for i, op in enumerate(ops):
        if op.args in (o.args for o in ops[:i]):
            continue
        plain.append(runner.run_op(i, op, traced=False))
        if "ndjson" in op.facts:
            stats.append(report_stats(op.facts["ndjson"]))
        traced.append(runner.run_op(i, op, traced=True))
    layers = tracer.layer_metrics(sorted(trace_dir.glob("*.json")))
    return [plain, traced], layer_report(layers, stats, plain, traced)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqfpowers" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'sqfpowers'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = OUT / f"{args.workload}{'-trace' if args.trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    launcher = Launcher()
    runner = Runner(workload, args.seed, out, launcher)
    ops = workload.make_ops(random.Random(f"{workload.name}:{args.seed}"), out)
    try:
        setup_s = runner.setup()
        if args.trace:
            rounds, metrics = per_layer(runner, ops)
        else:
            rounds = [runner.run_round(ops)]
            spent = sum(r.wall_s for r in rounds[0])
            while spent * (len(rounds) + 1) / len(rounds) <= args.seconds:
                rounds.append(runner.run_round(ops))
                spent += sum(r.wall_s for r in rounds[-1])
            metrics = end_to_end(rounds, setup_s)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
    attempted = sum(len(rnd) for rnd in rounds)
    failed = sum(r.failed for rnd in rounds for r in rnd)
    if failed == attempted:
        print("error: every operation failed", file=sys.stderr)
        return 1
    result = {
        "correct": runner.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, ops=[
        {"round": n, "op": r.op.label, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "failed": r.failed}
        for n, rnd in enumerate(rounds) for r in rnd
    ])
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
