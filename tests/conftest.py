"""Session fixtures: each ``verify`` sweep of the suite runs once.

``sweep`` runs a ``verify`` command line through ``cli.main`` at most once per
session and keeps its ND-JSON file under pytest's temporary directory.
Tests marked ``slow`` (the exhaustive-8 sweep, minutes long) are deselected
unless the environment sets ``SQFPOWERS_SLOW=1``.
``exhaustive-7`` holds every graph of ``exhaustive-5`` and ``exhaustive-6``,
so the tests that assert theorem outcomes over those families read the one
``exhaustive_7`` sweep, whose digest ``golden/sha256.json`` pins.  That sweep
is where the suite asserts each registry statement on every graph with at most
7 vertices (its exit status 0 means no theorem check failed, and its digest
pins every report); no hand-written loop repeats a check's library calls over
the same graphs.  On 8 vertices only the slow ``exhaustive-8`` digest asserts
them.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

from sqfpowers.checks import CHECKS, GRAPH_SCOPES, CheckReport, _gid
from sqfpowers.cli import main
from sqfpowers.families import resolve_family


def pytest_collection_modifyitems(config, items):
    if os.environ.get("SQFPOWERS_SLOW") != "1":
        slow = [item for item in items if item.get_closest_marker("slow")]
        config.hook.pytest_deselected(items=slow)
        items[:] = [item for item in items if item not in slow]


class Sweep(NamedTuple):
    ndjson: Path
    reports: list[CheckReport]

    def of(self, names=None, family=None) -> list[CheckReport]:
        """The reports of the named checks (None: all), on the graphs of
        *family* if given; a collection check's reports fit every family."""
        ids = family and {_gid(G) for G in resolve_family(family)}
        return [
            r
            for r in self.reports
            if (names is None or r.check in names)
            and (
                not ids
                or CHECKS[r.check].scope not in GRAPH_SCOPES
                or r.instance.split(";")[0] in ids
            )
        ]


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    done: dict[str, Sweep] = {}

    def run(args: str) -> Sweep:
        if args not in done:
            nd = tmp_path_factory.mktemp("sweep") / "reports.ndjson"
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(args.split() + ["--ndjson", str(nd)])
            assert (code, err.getvalue()) == (0, ""), args
            rows = nd.read_text().splitlines()
            done[args] = Sweep(nd, [CheckReport(**json.loads(row)) for row in rows])
        return done[args]

    return run


@pytest.fixture(scope="session")
def exhaustive_7(sweep) -> Sweep:
    return sweep("verify all --family exhaustive-7 --jobs 2")
