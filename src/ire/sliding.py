"""Sliding-window permutation kernels.

One fixed permutation of a W-wide window is applied at every window
position of a buffer, left to right, with the window sliding a single
position between applications: a buffer of N values sees N-W+1 window
applications and N-W one-position shifts. Each application rewrites the
current window in place as window[i] <- window[map[i]].

naive_sliding_permute and naive_sliding_unpermute implement that
description literally, one window at a time. They are the reference
for everything else and the only code here that needs to be read to
know what the operation means.

The fast kernels produce identical results in O(N) and never build an
N-sized index map. Track a single value through the pass: just before
an application it sits at some in-window offset r, the application
moves it to offset g[r] (g is the inverted window map), and the
subsequent one-position slide drops that to g[r]-1, or retires the
value at the current window start when g[r] == 0. The offset sequence
is therefore a walk on the fixed map r -> g[r]-1, independent of where
the window happens to be. Values inside the first window start the walk
at their own offset; every value entering later starts it at offset
W-1. The map r -> g[r]-1 is injective, defined everywhere but at the
offset with g[r] == 0, and onto 0..W-2, so the offsets split into one
path from W-1 to that retiring offset and disjoint cycles. All interior
values therefore retire after the same number of steps R, the path's
length, and land at their origin plus the constant shift R-W+1, which
is never positive. Only the first window's values and the last R
values (whose walks the final window cuts short) are placed
individually: a first-window value on the path retires at its own step
below W or is cut short like a tail value, and one on a cycle of
period p rides along to the final window, where it lands at a place
that depends only on the number of slides modulo p.

So every fixup lies within W of an end of the buffer, and a ShiftPlan
holds them all, computed from the map alone: the sources, the tail
landings, the retire steps and, per cycle period p, p rows of landings.
Per call, fixups(n) slices those tables. The interior costs no data
movement at all: the kernels work in place on a buffer with |shift|
spare cells, and return the output as a view offset by |shift| from the
input, so every interior value already sits where it belongs and only
the fixups are written.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "invert_map",
    "naive_sliding_permute",
    "naive_sliding_unpermute",
    "ShiftPlan",
    "shift_plan",
    "permute_in_place",
    "unpermute_in_place",
    "apply_forward",
    "apply_backward",
    "global_index_map",
]

WindowHook = Callable[[int, list], None]


def invert_map(pmap: Sequence[int]) -> tuple[int, ...]:
    """Inverse permutation: invert_map(p)[p[i]] == i."""
    inv = [0] * len(pmap)
    for i, p in enumerate(pmap):
        inv[p] = i
    return tuple(inv)


def naive_sliding_permute(
    values: Iterable[int],
    pmap: Sequence[int],
    on_window: WindowHook | None = None,
) -> list:
    """Reference implementation: literally permute every window.

    on_window, when given, is called after each application with the
    window start and the whole working buffer, so callers can count
    applications or capture intermediate states.
    """
    width = len(pmap)
    buf = list(values)
    if len(buf) < width:
        raise ValueError(f"buffer holds {len(buf)} values, need at least {width}")
    for k in range(len(buf) - width + 1):
        window = buf[k:k + width]
        for i, j in enumerate(pmap):
            buf[k + i] = window[j]
        if on_window is not None:
            on_window(k, buf)
    return buf


def naive_sliding_unpermute(
    values: Iterable[int],
    pmap: Sequence[int],
    on_window: WindowHook | None = None,
) -> list:
    """Reference inverse: the inverted map over windows in reverse order."""
    width = len(pmap)
    inv = invert_map(pmap)
    buf = list(values)
    if len(buf) < width:
        raise ValueError(f"buffer holds {len(buf)} values, need at least {width}")
    for k in range(len(buf) - width, -1, -1):
        window = buf[k:k + width]
        for i, j in enumerate(inv):
            buf[k + i] = window[j]
        if on_window is not None:
            on_window(k, buf)
    return buf


def _offset_walk(g: Sequence[int], start: int) -> list[int]:
    """Offsets visited by the walk r -> g[r]-1 from start, up to the
    offset that retires (g[r] == 0) or the last before start recurs."""
    seq = [start]
    while g[seq[-1]] != 0 and g[seq[-1]] - 1 != start:
        seq.append(g[seq[-1]] - 1)
    return seq


class ShiftPlan:
    """The length-independent part of one forward pass of a window map.

    A pass over n values moves value a to a + shift, except for the
    values listed by fixups(n). slack = -shift is the number of spare
    cells the in-place kernels need.

    The tables count indices in the last W of the buffer from its end
    (negative), the rest from its start, so they do not depend on n;
    fixups(n) only slices and concatenates them. They hold under
    4W + slack^2 entries in all (at most W^2 from W = 4 on), as intp,
    the type numpy indexes with: narrower types would be converted on
    every call.
    """

    def __init__(self, pmap: Sequence[int]):
        width = len(pmap)
        g = invert_map(pmap)
        path = _offset_walk(g, width - 1)
        retire = len(path) - 1
        self.width = width
        self.retire = retire
        self.slack = width - 1 - retire
        # The offsets off the entry path form cycles of the walk; group
        # them by period, since a period-p cycle repeats every p steps.
        cycles: dict[int, list[list[int]]] = {}
        seen = set(path)
        for a in range(width):
            if a not in seen:
                cycle = _offset_walk(g, a)
                seen.update(cycle)
                cycles.setdefault(len(cycle), []).append(cycle)
        ring = [a for period in sorted(cycles) for cycle in cycles[period] for a in cycle]
        # Sources: the first window's values (entry path order, then the
        # cycles), then the value d places from the end for d < R.
        self._src = np.array(path + ring + [-1 - d for d in range(retire)], dtype=np.intp)
        # The value d places from the end entered at offset W-1 and sits
        # at offset path[d] when the final window, starting at n-W,
        # applies. So does the first window's value path[i] when
        # i + (n-W) = d; with i + (n-W) >= R it retired at step R - i.
        self._tail_dst = np.array([g[r] - width for r in path[:retire]], dtype=np.intp)
        self._retire_dst = np.arange(retire, -1, -1, dtype=np.intp)
        # A cycle's value that starts at cycle position j sits at
        # position (j + budget) % p when the final window applies, so
        # the landings of period p take p rows, one per budget % p.
        self._landing = [
            (period, np.array([[g[cycle[(j + b) % period]] - width
                                for cycle in cycles[period] for j in range(period)]
                               for b in range(period)], dtype=np.intp))
            for period in sorted(cycles)
        ]

    def fixups(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Origin and final index of every value a pass over n values
        does not move by the constant shift: the first window's W values
        and the last min(R, n-W). Indices below zero count from the end."""
        budget = n - self.width
        if budget < 0:
            raise ValueError(f"buffer holds {n} values, need at least {self.width}")
        cut = min(self.retire, budget)
        dst = np.concatenate((
            self._tail_dst[cut:], self._retire_dst[self.retire - cut:],
            *(table[budget % period] for period, table in self._landing),
            self._tail_dst[:cut]))
        return self._src[:self.width + cut], dst


@lru_cache(maxsize=8)
def shift_plan(pmap: tuple[int, ...]) -> ShiftPlan:
    """The plan for pmap, built on first use; the last few are kept."""
    return ShiftPlan(pmap)


def permute_in_place(buf: np.ndarray, plan: ShiftPlan) -> np.ndarray:
    """Forward pass over the first n = buf.size - plan.slack cells of buf.

    The slack cells after the input are scratch. Returns the output as
    the view buf[plan.slack:]; buf no longer holds the input.
    """
    n = buf.size - plan.slack
    src, dst = plan.fixups(n)
    moved = buf[:n][src]
    out = buf[plan.slack:]
    out[dst] = moved
    return out


def unpermute_in_place(buf: np.ndarray, plan: ShiftPlan) -> np.ndarray:
    """Backward pass over the last n = buf.size - plan.slack cells of buf.

    The slack cells before the input are scratch. Returns the output as
    the view buf[:n]; buf no longer holds the input.
    """
    n = buf.size - plan.slack
    src, dst = plan.fixups(n)
    moved = buf[plan.slack:][dst]
    out = buf[:n]
    out[src] = moved
    return out


def apply_forward(values: np.ndarray, pmap: Sequence[int]) -> np.ndarray:
    """Same result as naive_sliding_permute, in O(len(values)).

    values is left untouched.
    """
    plan = shift_plan(tuple(pmap))
    buf = np.empty(values.size + plan.slack, dtype=values.dtype)
    buf[:values.size] = values
    return permute_in_place(buf, plan)


def apply_backward(values: np.ndarray, pmap: Sequence[int]) -> np.ndarray:
    """Same result as naive_sliding_unpermute: the exact inverse pass.

    values is left untouched.
    """
    plan = shift_plan(tuple(pmap))
    buf = np.empty(values.size + plan.slack, dtype=values.dtype)
    buf[plan.slack:] = values
    return unpermute_in_place(buf, plan)


def global_index_map(pmap: Sequence[int], n: int) -> np.ndarray:
    """Final buffer index of every starting index after one forward pass.

    An uncached O(n) expansion of the plan, for inspection and tests;
    the kernels never build it.
    """
    return apply_backward(np.arange(n), pmap)
