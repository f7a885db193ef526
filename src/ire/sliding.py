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
W-1. That walk always retires: r -> g[r]-1 is injective with its image
in 0..W-2, so W-1 has no preimage and cannot lie on a cycle. All
interior values therefore retire after the same number of steps R and
land at their origin plus the constant shift R-W+1, which is never
positive. Only the first window's values (whose walks may cycle and
ride along to the end) and the last R values (whose walks the final
window cuts short) are placed individually.

A ShiftPlan holds what depends on the map alone: the O(W^2) offset
walks, R, and the placements of the last R values, which depend only
on the distance from the end. Per call only the W head placements are
computed, vectorized from the plan. The interior costs no data movement
at all: the kernels work in place on a buffer with |shift| spare cells,
and return the output as a view offset by |shift| from the input, so
every interior value already sits where it belongs and only the fixups
are written.
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


def _offset_walk(g: Sequence[int], start: int) -> tuple[list[int], int | None, int]:
    """Walk r -> g[r]-1 from start.

    Returns the offsets visited, the step at which the value retires
    (None if it never does), and the visit index where the walk starts
    repeating (0 if it retires).
    """
    seq = [start]
    first_seen = {start: 0}
    while True:
        nxt = g[seq[-1]]
        if nxt == 0:
            return seq, len(seq) - 1, 0
        nxt -= 1
        if nxt in first_seen:
            return seq, None, first_seen[nxt]
        first_seen[nxt] = len(seq)
        seq.append(nxt)


class ShiftPlan:
    """The length-independent part of one forward pass of a window map.

    A pass over n values moves value a to a + shift, except for the
    values listed by fixups(n). slack = -shift is the number of spare
    cells the in-place kernels need.
    """

    def __init__(self, pmap: Sequence[int]):
        width = len(pmap)
        g = invert_map(pmap)
        entry_seq, retire, _loop = _offset_walk(g, width - 1)
        self.width = width
        self.retire = retire
        self.slack = width - 1 - retire
        # The value d places from the end entered at offset W-1 and is
        # still in flight when the final window, starting at n-W, applies.
        self._tail_src = -1 - np.arange(retire, dtype=np.intp)
        self._tail_dst = np.array([g[r] - width for r in entry_seq[:retire]], dtype=np.intp)
        # The first window's values walk from their own offsets. Either a
        # value retires at window retire_at, or after the walk has taken
        # budget = n-W steps the final window puts it at n-W + g[offset].
        walks = [_offset_walk(g, a) for a in range(width)]
        longest = max(len(seq) for seq, _retire, _loop in walks)
        never = np.iinfo(np.intp).max
        self._head_src = np.arange(width, dtype=np.intp)
        self._retire_at = np.array([never if r is None else r for _s, r, _l in walks], dtype=np.intp)
        self._walk_len = np.array([len(seq) for seq, _r, _l in walks], dtype=np.intp)
        self._loop = np.array([loop for _s, _r, loop in walks], dtype=np.intp)
        self._period = self._walk_len - self._loop
        self._landing = np.zeros((width, longest), dtype=np.intp)
        for a, (seq, _retire, _loop) in enumerate(walks):
            self._landing[a, :len(seq)] = [g[r] for r in seq]

    def fixups(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Origin and final index of every value a pass over n values
        does not move by the constant shift: the first window's W values
        and the last min(R, n-W)."""
        budget = n - self.width
        if budget < 0:
            raise ValueError(f"buffer holds {n} values, need at least {self.width}")
        step = np.where(budget < self._walk_len, budget,
                        self._loop + (budget - self._loop) % self._period)
        head_dst = np.where(self._retire_at <= budget, self._retire_at,
                            budget + self._landing[self._head_src, step])
        tail = min(self.retire, budget)
        src = np.concatenate((self._head_src, n + self._tail_src[:tail]))
        dst = np.concatenate((head_dst, n + self._tail_dst[:tail]))
        return src, dst


@lru_cache(maxsize=8)
def shift_plan(pmap: tuple[int, ...]) -> ShiftPlan:
    """The plan for pmap, built on first use; the last few are kept."""
    return ShiftPlan(pmap)


def permute_in_place(buf: np.ndarray, plan: ShiftPlan) -> np.ndarray:
    """Forward pass over the first n = buf.size - plan.slack cells of buf.

    The slack cells after the input are scratch. Returns the output as
    the view buf[plan.slack:]; buf no longer holds the input.
    """
    src, dst = plan.fixups(buf.size - plan.slack)
    moved = buf[src]
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
