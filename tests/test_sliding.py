import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ire.sliding import (
    ShiftPlan,
    apply_backward,
    apply_forward,
    invert_map,
    naive_sliding_permute,
    naive_sliding_unpermute,
)

KNOWN_MAP = (7, 2, 6, 3, 0, 9, 1, 8, 5, 4)


def global_index_map(pmap, n):
    """Final buffer index of every starting index after one forward pass."""
    return apply_backward(np.arange(n), ShiftPlan(pmap))


def test_invert_map_known_vector():
    assert invert_map(KNOWN_MAP) == (4, 6, 1, 3, 9, 8, 2, 0, 7, 5)


def test_invert_map_round_trip():
    rng = random.Random(5)
    for width in (1, 2, 3, 10, 80):
        perm = list(range(width))
        rng.shuffle(perm)
        inv = invert_map(perm)
        assert all(inv[perm[i]] == i for i in range(width))
        assert invert_map(inv) == tuple(perm)


def test_single_window_reorders_known_vector():
    assert naive_sliding_permute(range(1, 11), KNOWN_MAP) == [8, 3, 7, 4, 1, 10, 2, 9, 6, 5]


def test_window_after_first_shift_known_vector():
    snapshots = []
    naive_sliding_permute(
        range(1, 16), KNOWN_MAP,
        on_window=lambda k, buf: snapshots.append(buf[k + 1:k + 11]))
    assert snapshots[0] == [3, 7, 4, 1, 10, 2, 9, 6, 5, 11]


def test_full_fifteen_value_trace():
    # frozen from the simulator itself once the two vectors above held
    assert naive_sliding_permute(range(1, 16), KNOWN_MAP) == \
        [8, 6, 2, 7, 9, 5, 1, 12, 3, 4, 15, 11, 13, 10, 14]


def test_window_counts_forward_and_backward():
    for n in range(10, 41):
        starts = []
        naive_sliding_permute([0] * n, KNOWN_MAP, on_window=lambda k, _buf: starts.append(k))
        assert starts == list(range(n - 10 + 1))
        starts = []
        naive_sliding_unpermute([0] * n, KNOWN_MAP, on_window=lambda k, _buf: starts.append(k))
        assert starts == list(range(n - 10, -1, -1))


def test_buffer_exactly_one_window():
    out = naive_sliding_permute(range(1, 11), KNOWN_MAP)
    back = naive_sliding_unpermute(out, KNOWN_MAP)
    assert back == list(range(1, 11))


def test_too_short_buffer_rejected():
    with pytest.raises(ValueError):
        naive_sliding_permute([1, 2, 3], KNOWN_MAP)
    with pytest.raises(ValueError):
        naive_sliding_unpermute([1, 2, 3], KNOWN_MAP)
    with pytest.raises(ValueError):
        global_index_map(KNOWN_MAP, 9)


def test_naive_round_trip_random():
    rng = random.Random(17)
    for _ in range(50):
        width = rng.choice([2, 3, 5, 10])
        n = rng.randrange(width, width + 50)
        perm = list(range(width))
        rng.shuffle(perm)
        values = [rng.randrange(256) for _ in range(n)]
        assert naive_sliding_unpermute(naive_sliding_permute(values, perm), perm) == values


def test_fast_path_equals_naive_small_widths():
    rng = random.Random(23)
    for width in (2, 3, 4, 5, 10):
        for n in range(width, width + 35):
            perm = list(range(width))
            rng.shuffle(perm)
            perm = tuple(perm)
            values = [rng.randrange(256) for _ in range(n)]
            arr = np.array(values, dtype=np.uint8)
            assert apply_forward(arr, ShiftPlan(perm)).tolist() == naive_sliding_permute(values, perm)
            assert apply_backward(arr, ShiftPlan(perm)).tolist() == naive_sliding_unpermute(values, perm)


def test_fast_path_equals_naive_structured_maps():
    # identity, full reversal, and rotations exercise the walk analysis corners
    for width in (2, 3, 10):
        maps = [tuple(range(width)), tuple(reversed(range(width)))]
        maps.append(tuple((i + 1) % width for i in range(width)))
        maps.append(tuple((i - 1) % width for i in range(width)))
        for pmap in maps:
            for n in range(width, 4 * width + 2):
                values = list(range(n))
                arr = np.array(values, dtype=np.int64)
                assert apply_forward(arr, ShiftPlan(pmap)).tolist() == naive_sliding_permute(values, pmap)
                assert apply_backward(arr, ShiftPlan(pmap)).tolist() == naive_sliding_unpermute(values, pmap)


def test_fast_path_equals_naive_width_80():
    rng = random.Random(29)
    for n in (80, 81, 93, 160, 355):
        perm = list(range(80))
        rng.shuffle(perm)
        perm = tuple(perm)
        values = [rng.randrange(2) for _ in range(n)]
        arr = np.array(values, dtype=np.uint8)
        assert apply_forward(arr, ShiftPlan(perm)).tolist() == naive_sliding_permute(values, perm)
        assert apply_backward(arr, ShiftPlan(perm)).tolist() == naive_sliding_unpermute(values, perm)


def test_global_index_map_is_permutation():
    rng = random.Random(31)
    for _ in range(20):
        width = rng.choice([2, 5, 10])
        n = rng.randrange(width, 200)
        perm = list(range(width))
        rng.shuffle(perm)
        sigma = global_index_map(tuple(perm), n)
        assert sorted(sigma.tolist()) == list(range(n))


def test_multiset_preserved():
    rng = random.Random(37)
    values = [rng.randrange(256) for _ in range(123)]
    out = naive_sliding_permute(values, KNOWN_MAP)
    assert Counter(out) == Counter(values)


@settings(max_examples=60)
@given(
    perm=st.permutations(list(range(10))),
    values=st.lists(st.integers(0, 255), min_size=10, max_size=80),
)
def test_round_trip_property(perm, values):
    pmap = tuple(perm)
    arr = np.array(values, dtype=np.uint8)
    forward = apply_forward(arr, ShiftPlan(pmap))
    assert apply_backward(forward, ShiftPlan(pmap)).tolist() == values
    assert forward.tolist() == naive_sliding_permute(values, pmap)


# --- shift kernel edges, widths 10 and 80 -----------------------------------

def _structured_maps(width):
    return {
        "identity": tuple(range(width)),
        "reversal": tuple(reversed(range(width))),
        "rotate left": tuple((i + 1) % width for i in range(width)),
        "rotate right": tuple((i - 1) % width for i in range(width)),
    }


def _assert_matches_naive(pmap, n, rng):
    values = [rng.randrange(1 << 16) for _ in range(n)]
    arr = np.array(values, dtype=np.int64)
    assert apply_forward(arr, ShiftPlan(pmap)).tolist() == naive_sliding_permute(values, pmap), (pmap, n)
    assert apply_backward(arr, ShiftPlan(pmap)).tolist() == naive_sliding_unpermute(values, pmap), (pmap, n)


@pytest.mark.parametrize("width", [10, 80])
def test_kernel_short_buffers_cut_head_walks(width):
    # n in [W, 3W]: the final window cuts first-window walks short, and
    # the interior is empty or a few values wide
    rng = random.Random(41 + width)
    maps = list(_structured_maps(width).values())
    maps += [tuple(rng.sample(range(width), width)) for _ in range(3)]
    for pmap in maps:
        for n in range(width, 3 * width + 1):
            _assert_matches_naive(pmap, n, rng)


@pytest.mark.parametrize("width", [10, 80])
def test_kernel_identity_map_has_no_shift(width):
    identity = tuple(range(width))
    assert ShiftPlan(identity).slack == 0
    arr = np.arange(5 * width)
    assert apply_forward(arr, ShiftPlan(identity)).tolist() == arr.tolist()
    assert apply_backward(arr, ShiftPlan(identity)).tolist() == arr.tolist()


@pytest.mark.parametrize("width", [10, 80])
def test_kernel_structured_maps_long_buffers(width):
    rng = random.Random(43)
    for pmap in _structured_maps(width).values():
        for n in (7 * width + 3, 20 * width):
            _assert_matches_naive(pmap, n, rng)


def _has_cycling_head_walk(pmap):
    g = invert_map(pmap)
    for start in range(len(pmap) - 1):
        seen, r = set(), start
        while g[r] != 0 and r not in seen:
            seen.add(r)
            r = g[r] - 1
        if g[r] != 0:
            return True
    return False


@pytest.mark.parametrize("width", [10, 80])
def test_kernel_cycling_head_walks_wrap_many_times(width):
    # rotating left sends even offsets round a cycle of W/2 offsets that
    # never retires, so at n near 2^14 those walks wrap hundreds of times
    rng = random.Random(47)
    rotation = _structured_maps(width)["rotate left"]
    assert _has_cycling_head_walk(rotation)
    random_map = next(m for m in (tuple(rng.sample(range(width), width)) for _ in range(1000))
                      if _has_cycling_head_walk(m))
    for pmap in (rotation, random_map):
        _assert_matches_naive(pmap, (1 << 14) + 5, rng)


def test_global_index_map_matches_naive_positions():
    rng = random.Random(53)
    for width in (10, 80):
        pmap = tuple(rng.sample(range(width), width))
        n = 4 * width + 1
        out = naive_sliding_permute(list(range(n)), pmap)
        sigma = global_index_map(pmap, n)
        assert [out[s] for s in sigma.tolist()] == list(range(n))


# --- fixup tables --------------------------------------------------------------

def _map_with_cycles(width, periods, rng):
    """A map whose offset walk r -> g[r]-1 has cycles of the given
    periods; the other offsets form the entry path from W-1."""
    offsets = rng.sample(range(width - 1), width - 1)
    g = [0] * width
    for period in periods:
        cycle, offsets = offsets[:period], offsets[period:]
        for j, r in enumerate(cycle):
            g[r] = cycle[(j + 1) % period] + 1
    path = [width - 1] + offsets
    for r, nxt in zip(path, path[1:]):
        g[r] = nxt + 1
    return invert_map(g)  # g[path[-1]] == 0: the path retires there


def _positions_for_every_length(pmap, longest):
    """For n = W .. longest, the final index of every starting index,
    from one window-by-window pass: the first n cells after window n-W
    are the whole pass over n values."""
    width = len(pmap)
    buf = np.arange(longest)
    windows = np.array(pmap)
    positions = {}
    for k in range(longest - width + 1):
        buf[k:k + width] = buf[k:k + width][windows]
        n = k + width
        sigma = np.empty(n, dtype=np.intp)
        sigma[buf[:n]] = np.arange(n)
        positions[n] = sigma
    return positions


def _table_entries(plan):
    return sum(v.size for v in vars(plan).values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("width, cycle_sets", [
    (10, [(1, 2), (1, 2, 6), (2, 2, 1, 1), (9,), ()]),
    (80, [(1, 2, 31), (1, 1, 2, 2, 31, 40), (79,), (33, 1)]),
])
def test_fixup_tables_match_the_window_pass(width, cycle_sets):
    rng = random.Random(83 + width)
    maps = [_map_with_cycles(width, periods, rng) for periods in cycle_sets]
    maps += [tuple(rng.sample(range(width), width)) for _ in range(2)]
    longest = max(3 * width, width + 399)
    for pmap, periods in zip(maps, cycle_sets + [None, None]):
        plan = ShiftPlan(pmap)
        if periods is not None:
            ring = slice(plan.retire + 1, width)
            assert sorted(plan._period[ring][plan._pos[ring] == 0].tolist()) == sorted(periods)
        assert _table_entries(plan) <= width * width, (pmap, _table_entries(plan))
        positions = _positions_for_every_length(pmap, longest)
        out = naive_sliding_permute(range(longest), pmap)
        assert [out[s] for s in positions[longest].tolist()] == list(range(longest))
        assert np.array_equal(global_index_map(pmap, longest), positions[longest])
        for n, sigma in positions.items():
            src, dst = plan.fixups(n)
            # the basis of the tables: every fixup sits within W of an end
            assert src.min() >= -plan.retire and src.max() < width
            assert dst.min() >= -width and dst.max() < width
            assert len(set((src % n).tolist())) == src.size == dst.size
            expected = np.arange(n) - plan.slack
            expected[src] = dst % n
            assert np.array_equal(expected, sigma), (pmap, n)


@pytest.mark.parametrize("width, periods", [
    (10, ()), (10, (1,)), (10, (2,)), (10, (9,)), (10, (1,) * 9), (10, None),
    (80, ()), (80, (1,)), (80, (2,)), (80, (31,)), (80, (79,)), (80, (1,) * 79),
    (80, (2,) * 39), (80, (1, 2, 31)), (80, None),
])
def test_closed_form_fixups_match_the_window_pass(width, periods):
    # fixups(n) reads every landing from one row of W + R, at
    # start + (j + n - W) % p; n from W to W + 399 takes each budget
    # residue of these periods, and budgets on both sides of R
    rng = random.Random(89 + width + len(periods or ()))
    if periods is None:
        pmap = tuple(rng.sample(range(width), width))
    else:
        pmap = _map_with_cycles(width, periods, rng)
    plan = ShiftPlan(pmap)
    rows = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert rows and all(row.shape == (width + plan.retire,) for row in rows)
    for n, sigma in _positions_for_every_length(pmap, width + 400).items():
        src, dst = plan.fixups(n)
        expected = np.arange(n) - plan.slack
        expected[src] = dst % n
        assert np.array_equal(expected, sigma), (pmap, n)
