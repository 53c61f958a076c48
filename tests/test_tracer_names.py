"""Every name that the benchmark's tracer wraps or reads exists in the package.

``bench/tracer.py`` looks package functions up by name and replaces them
before a traced round, so a renamed or deleted name breaks only that round.
This test reads the tracer's source and resolves each name; it runs nothing
of the tracer.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_pairs(tree: ast.Module) -> list[tuple[str, str]]:
    """The (module, function) pairs of the tracer's ``TRACED`` table."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py has no TRACED table")


def _read_chains(tree: ast.Module) -> set[tuple[str, ...]]:
    """Each chain module.name[.name...] off a module of ``from sqfpowers import``."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sqfpowers"
        for alias in node.names
    }
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in modules:
            chains.add((node.id, *reversed(attrs)))
    return chains


def test_every_name_the_tracer_wraps_or_reads_exists():
    tree = ast.parse(TRACER.read_text())
    traced = _traced_pairs(tree)
    read = _read_chains(tree)
    # the Betti-table counts and times of the benchmark come from this span
    assert ("betti", "multigraded_betti") in traced
    # the names that no code of the package calls, kept for the tracer
    assert ("betti", "gf_rank") in traced
    assert ("betti", "SPARSE_COLUMN_THRESHOLD") in read
    assert ("ideals", "MonomialIdeal", "contains") in read
    for module, *attrs in [*traced, *read]:
        obj = importlib.import_module(f"sqfpowers.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), f"sqfpowers.{module}.{'.'.join(attrs)}"
            obj = getattr(obj, attr)
