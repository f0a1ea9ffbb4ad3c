"""Return Address Stack.

A fixed-depth circular stack: pushes beyond capacity overwrite the oldest
entry (the standard hardware behaviour), so deeply nested call chains
corrupt the bottom of the stack and later returns mispredict -- exactly
the overflow failure mode real RASes exhibit.

Audited edge cases (locked in by tests/frontend/test_ras.py):

* pop on empty counts an underflow, returns ``None``, and leaves the
  stack state untouched (no pointer movement, no occupancy change);
* push on full overwrites the *oldest* entry (the slot ``_top`` points
  at is, circularly, the oldest when occupancy == depth) and counts an
  ``overflow_overwrites`` -- occupancy stays at depth;
* conservation: ``occupancy == pushes - overflow_overwrites -
  (pops - underflows)`` at all times (the ``ras_structure_accounting``
  invariant).
"""

from __future__ import annotations


class ReturnAddressStack:
    """Circular return-address stack."""

    COUNTERS = ("pushes", "pops", "underflows", "overflow_overwrites")

    def __init__(self, depth: int = 32):
        if depth <= 0:
            raise ValueError("RAS depth must be positive")
        self.depth = depth
        self._buffer: list[int | None] = [None] * depth
        self._top = 0          # index of next push slot
        self._occupancy = 0
        self.pushes = 0
        self.pops = 0
        self.underflows = 0
        self.overflow_overwrites = 0

    def push(self, return_address: int) -> None:
        if self._occupancy == self.depth:
            self.overflow_overwrites += 1
        else:
            self._occupancy += 1
        self._buffer[self._top] = return_address
        self._top = (self._top + 1) % self.depth
        self.pushes += 1

    def pop(self) -> int | None:
        """Pop the predicted return address; None on underflow."""
        self.pops += 1
        if self._occupancy == 0:
            self.underflows += 1
            return None
        self._top = (self._top - 1) % self.depth
        self._occupancy -= 1
        value = self._buffer[self._top]
        self._buffer[self._top] = None
        return value

    def peek(self) -> int | None:
        if self._occupancy == 0:
            return None
        return self._buffer[(self._top - 1) % self.depth]

    def __len__(self) -> int:
        return self._occupancy

    def clear(self) -> None:
        self._buffer = [None] * self.depth
        self._top = 0
        self._occupancy = 0

    def state(self, base: float) -> tuple:
        """Buffer slots, push pointer and occupancy.  No timestamps."""
        return tuple(self._buffer), self._top, self._occupancy

    def register_metrics(self, scope) -> None:
        """Expose counters as lazily-sampled gauges (repro.obs)."""
        for name in self.COUNTERS:
            scope.gauge(name, lambda name=name: getattr(self, name))
        scope.gauge("occupancy", lambda: self._occupancy)
        scope.gauge("depth", lambda: self.depth)
