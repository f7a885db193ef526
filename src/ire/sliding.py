"""Sliding-window permutation kernels.

One fixed permutation of a W-wide window is applied at every window
position of a buffer, left to right, with the window sliding a single
position between applications: a buffer of N values sees N-W+1 window
applications and N-W one-position shifts. Each application rewrites the
current window in place as window[i] <- window[map[i]].

naive_sliding_permute implements that description literally, one
window at a time: it is the reference for the forward pass and the only
code here that needs to be read to know what the operation means. The
inverse pass applies the inverted map at every window position, right
to left. The kernels below run it, and tests/oracles.py states it
literally for them to be checked against.

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
holds them all, computed from the map alone in O(W): one row of W + R
sources and one of their landings, the retire steps and tail landings
as they are and the cycles' landings in ring order. The number of
slides n-W moves a cycle value j places along its ring to
(j + n-W) % p, so per call fixups(n) reads every landing with four
vector operations, whatever the periods. The interior costs no data
movement at all: the kernels work in place on a buffer with |shift|
spare cells, and return the output as a view offset by |shift| from the
input, so every interior value already sits where it belongs and only
the fixups are written. Since the fixups read and write only the first
W and the last W cells, the kernels also run on a short buffer that
holds just those ends of a long one, side by side, given the long
buffer's length: fixups(n) counts the tail from the end, so it lands in
the right cells as long as the two ends do not overlap. That is how
encrypt and decrypt patch the edges of a message without a full copy,
and why the kernels always take the pass length n.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "invert_map",
    "naive_sliding_permute",
    "ShiftPlan",
    "permute_in_place",
    "unpermute_in_place",
    "apply_forward",
    "apply_backward",
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


def _offset_walk(g: Sequence[int], start: int) -> list[int]:
    """Offsets visited by the walk r -> g[r]-1 from start, up to the
    offset that retires (g[r] == 0) or the last before start recurs."""
    seq = [start]
    r = g[start] - 1
    while r >= 0 and r != start:
        seq.append(r)
        r = g[r] - 1
    return seq


class ShiftPlan:
    """The length-independent part of one forward pass of a window map.

    A pass over n values moves value a to a + shift, except for the
    values listed by fixups(n). slack = -shift is the number of spare
    cells the in-place kernels need.

    The plan holds five rows of W + R entries, one entry per source: its
    index, counted from the end of the buffer (negative) for the last R
    values and from the start for the rest, so that it does not depend
    on n; the start of its cycle in the landings row, its position j in
    that cycle and the period p, with start its own entry, j = 0 and
    p = 1 off the cycles; and the landings. Those are each off-cycle
    source's own landing and, cycle by cycle in ring order, where the
    value at each cycle offset lands when the final window applies. With
    budget = n - W slides, a source lands at landing[start + (j + budget)
    % p]. The rows are read-only intp, the type numpy indexes with:
    narrower types would be converted on every call.
    """

    def __init__(self, pmap: Sequence[int]):
        width = len(pmap)
        g = invert_map(pmap)
        path = _offset_walk(g, width - 1)
        retire = len(path) - 1
        self.width = width
        self.retire = retire
        self.slack = width - 1 - retire
        # The offsets off the entry path form cycles of the walk. A value
        # that starts at position j of a period-p cycle sits at position
        # (j + budget) % p when the final window applies. order lists the
        # first window's offsets: the entry path, then cycle by cycle.
        order = list(path)
        ring_start, ring_period = [], []
        remaining = set(range(width)).difference(path)
        while remaining:
            cycle = _offset_walk(g, remaining.pop())
            remaining.difference_update(cycle)
            ring_start += [len(order)] * len(cycle)
            ring_period += [len(cycle)] * len(cycle)
            order += cycle
        # Sources: the first window's values, then the value d places
        # from the end for d < R. The first window's value path[i]
        # retires at step R - i, at index R - i; the value d places from
        # the end entered at offset W-1 and sits at offset path[d] when
        # the final window applies, as does a cycle value at its offset.
        rows = np.empty((5, width + retire), dtype=np.intp)
        src, landing, start, pos, period = rows
        src[:width] = order
        src[width:] = np.arange(-1, -1 - retire, -1)
        landing[:] = list(range(retire, -1, -1)) + [
            g[r] - width for r in order[retire + 1:] + path[:retire]]
        index = np.arange(width + retire)
        start[:] = index
        start[retire + 1:width] = ring_start
        period[:] = 1
        period[retire + 1:width] = ring_period
        np.subtract(index, start, out=pos)
        rows.setflags(write=False)
        self._src, self._landing, self._start, self._pos, self._period = rows

    def fixups(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Origin and final index of every value a pass over n values
        does not move by the constant shift: the first window's W values
        and the last min(R, n-W). Indices below zero count from the end."""
        width, retire = self.width, self.retire
        budget = n - width
        if budget < 0:
            raise ValueError(f"buffer holds {n} values, need at least {width}")
        dst = self._landing[(self._pos + budget) % self._period + self._start]
        if budget >= retire:
            return self._src, dst
        # The final window cuts short the walks of the entry path's first
        # R - budget values, which stop where a tail value would: the
        # value path[i] lands where the value i + budget places from the
        # end does. Only budget tail values exist.
        dst = dst[:width + budget]
        dst[:retire - budget] = self._landing[width + budget:width + retire]
        return self._src[:width + budget], dst


def permute_in_place(buf: np.ndarray, plan: ShiftPlan, n: int) -> np.ndarray:
    """Forward pass over n values, held in the first
    cells = buf.size - plan.slack cells of buf.

    The slack cells after the input are scratch. Returns the output as
    the view buf[plan.slack:]; buf no longer holds the input. With
    cells == n the cells hold every value; with fewer, they hold only
    the first and the last, side by side, enough of each end to hold
    every fixup (see the module notes).
    """
    cells = buf.size - plan.slack
    src, dst = plan.fixups(n)
    moved = buf[:cells][src]
    out = buf[plan.slack:]
    out[dst] = moved
    return out


def unpermute_in_place(buf: np.ndarray, plan: ShiftPlan, n: int) -> np.ndarray:
    """Backward pass over n values, held in the last
    cells = buf.size - plan.slack cells of buf: the inverted map at
    every window position, right to left.

    The slack cells before the input are scratch. Returns the output as
    the view buf[:cells]; buf no longer holds the input. The cells
    stand for the n values as for permute_in_place.
    """
    cells = buf.size - plan.slack
    src, dst = plan.fixups(n)
    moved = buf[plan.slack:][dst]
    out = buf[:cells]
    out[src] = moved
    return out


def apply_forward(values: np.ndarray, plan: ShiftPlan) -> np.ndarray:
    """Same result as naive_sliding_permute with the plan's map, in
    O(len(values)).

    values is left untouched.
    """
    buf = np.empty(values.size + plan.slack, dtype=values.dtype)
    buf[:values.size] = values
    return permute_in_place(buf, plan, values.size)


def apply_backward(values: np.ndarray, plan: ShiftPlan) -> np.ndarray:
    """The exact inverse of apply_forward: the inverted map at every
    window position, right to left, in O(len(values)).

    values is left untouched.
    """
    buf = np.empty(values.size + plan.slack, dtype=values.dtype)
    buf[plan.slack:] = values
    return unpermute_in_place(buf, plan, values.size)
