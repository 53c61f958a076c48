"""Session fixtures: each ``verify`` sweep of the suite runs once.

``sweep`` runs a ``verify`` command line through ``cli.main`` at most once per
session and keeps its ND-JSON file under pytest's temporary directory.
``exhaustive-7`` holds every graph of ``exhaustive-5`` and ``exhaustive-6``,
so the tests that assert theorem outcomes over those families read the one
``exhaustive_7`` sweep, whose digest ``golden/sha256.json`` pins.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest

from sqfpowers.checks import CHECKS, GRAPH_SCOPES, CheckReport, _gid
from sqfpowers.cli import main
from sqfpowers.families import resolve_family


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
