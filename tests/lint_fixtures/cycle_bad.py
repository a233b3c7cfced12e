"""Fixture: state reached only around a call cycle.

Each class is a recursive pair.  ``Ping.pong`` mutates ``self.count``
only by calling back into ``Ping.ping``; ``Walker.settle`` scans the
fleet only by calling back into ``Walker.advance``.  Both members of
each pair must be charged no matter which one the analysis closes
first, so the pair has to be closed as a unit.
"""

from typing import List


def declared_pure(fn):
    """Source marker read by the PURE family; a no-op at runtime."""
    return fn


class Ping:
    def __init__(self) -> None:
        self.count = 0

    @declared_pure
    def ping(self, n: int) -> None:
        self.count = n  # RPL901 for ping, and for pong through ping
        if n:
            self.pong(n - 1)

    @declared_pure
    def pong(self, n: int) -> None:
        if n:
            self.ping(n - 1)


class Fleet:
    def __init__(self) -> None:
        self.nodes: List[int] = []


class Walker:
    """Budgeted O(small) by the test config; both methods scan."""

    def __init__(self) -> None:
        self.fleet = Fleet()

    def advance(self, n: int) -> int:
        return self._scan() + self.settle(n)

    def settle(self, n: int) -> int:
        return self.advance(n - 1) if n else 0

    def _scan(self) -> int:
        total = 0
        for node in self.fleet.nodes:
            total += node
        return total
