"""Memos of finished results that live for one request.

A ``RequestMemo`` starts closed, and a closed memo computes every value afresh
and keeps nothing, so the library API and the single-object CLI commands
never hold on to a result.  ``checks.run_checks`` opens the memos of lcm
lattices (``betti.LATTICES``), of Betti tables (``betti.TABLES``) and of
squarefree powers (``edge_ideals.POWERS``) for one request: around its serial
loop, or in each pool worker for the life of the pool.  Only a finished value is stored; an exception raised while
computing (an exhausted budget, bad input) propagates and stores nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Hashable, Iterator, TypeVar

T = TypeVar("T")

_MISSING = object()


class RequestMemo:
    """Values by key while open; closed, every value is computed afresh."""

    def __init__(self) -> None:
        self._values: dict | None = None

    def open(self) -> None:
        """Start with no values; stays open until ``close``."""
        self._values = {}

    def close(self) -> None:
        self._values = None

    def get(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value stored under key, else compute(), stored when open."""
        values = self._values
        if values is None:
            return compute()
        value = values.get(key, _MISSING)
        if value is _MISSING:
            value = values[key] = compute()
        return value


@contextmanager
def opened(*memos: RequestMemo) -> Iterator[None]:
    """Hold the memos open for the body of a with statement."""
    for memo in memos:
        memo.open()
    try:
        yield
    finally:
        for memo in memos:
            memo.close()
