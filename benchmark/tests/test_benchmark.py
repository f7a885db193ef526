"""Tests of the benchmark itself. Run: python3 -m pytest benchmark/tests -q"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402

ire, _reference = run.load_program()


@pytest.fixture(scope="module")
def keys():
    return run.Keys(ire, inputs.DEFAULT_SEED)


@pytest.fixture(scope="module")
def keyset(keys):
    return keys.keyset(0)


def test_inputs_depend_on_the_seed_alone():
    assert inputs.key_image(7) == inputs.key_image(7)
    assert inputs.key_image(7) != inputs.key_image(8)
    for workload in inputs.WORKLOADS:
        assert inputs.make_batch(workload, 7, 3) == inputs.make_batch(workload, 7, 3)
        assert inputs.make_batch(workload, 7, 3) != inputs.make_batch(workload, 8, 3)
        assert inputs.short_messages(workload, 7) == inputs.short_messages(workload, 7)
        assert inputs.fresh_lengths(workload, 7, set(), 4) == inputs.fresh_lengths(workload, 7, set(), 4)


def test_varied_batches_run_under_a_key_of_their_own():
    assert [inputs.make_batch("bulk-1m", 7, i).key for i in range(3)] == [0, 0, 0]
    assert [inputs.make_batch("mixed-len", 7, i).key for i in range(3)] == [0, 1, 2]
    loop = inputs.LOOP_BITS // 8
    images = [inputs.key_image(7, number) for number in range(3)]
    assert len({image[:-loop] for image in images}) == 3
    assert len({image[-loop:] for image in images}) == 1


def test_key_image_is_a_valid_default_key(keyset):
    assert keyset.rbs.length == inputs.LOOP_BITS
    assert ire.keymat.serialize_keyset(keyset) == inputs.key_image(inputs.DEFAULT_SEED)


@pytest.mark.parametrize("workload", ["mixed-len", "cli-small"])
def test_varied_batches_are_distinct_banded_and_cold(workload):
    lo, hi = inputs.LENGTH_RANGES[workload]
    for index in range(3):
        batch = inputs.make_batch(workload, 11, index)
        lengths = [len(m) for m in batch.messages]
        assert len(lengths) == inputs.BANDS * inputs.ROUNDS
        assert len(set(lengths)) == len(lengths)
        assert all(lo <= n < hi for n in lengths)
        assert sorted(batch.decrypt_order) == list(range(len(lengths)))
        assert batch.decrypt_order != tuple(range(len(lengths)))
        # Calls between a message's encryption and its decryption.
        for position, i in enumerate(batch.decrypt_order):
            assert (len(lengths) - 1 - i) + position >= (inputs.ROUNDS - 1) * inputs.BANDS


def test_fresh_lengths_avoid_used_ones():
    used = {len(m) for m in inputs.make_batch("cli-small", 5, 0).messages}
    fresh = inputs.fresh_lengths("cli-small", 5, used, 10)
    assert len(set(fresh)) == 10 and not used & set(fresh)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([4.0], 90) == 4.0
    assert stats.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90) == 9
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_sample_counts_leave_ten_beyond_the_percentile():
    assert stats.min_samples(50) == 20
    assert stats.min_samples(90) == 100
    assert stats.min_samples(99) == 1000
    assert run.MIN_CALLS == 100


def test_end_to_end_rows_state_rates_and_sample_counts():
    calls = [(2_000_000, 1_000_000)] * 99 + [(4_000_000, 1_000_000)]
    rows = {name: (value, unit, note) for name, value, unit, note in run.end_to_end(calls, calls[:99])}
    assert rows["enc_MBps"][:2] == (pytest.approx(100e6 / 202e6 * 1e3), "MB/s")
    assert rows["enc_p50_ms"][:2] == (2.0, "ms")
    assert rows["enc_p90_ms"][0] == 2.0 and rows["enc_p90_ms"][2] == "n=100"
    assert "below the 100 samples p90 needs" in rows["dec_p90_ms"][2]
    assert rows["dec_MBps"][0] == pytest.approx(500.0)


def test_digest_check_fires_on_a_tampered_envelope(keys):
    path = run.LibraryPath(ire, keys)
    tally = run.Tally()
    envelopes = [env for batch in run.first_batches("bulk-1m", inputs.DEFAULT_SEED)
                 for env in run.round_trip(path, batch, tally)]
    assert tally.failed == 0
    committed = run.committed_digests()
    assert run.digest_matches("bulk-1m", run.envelope_digest(envelopes), committed)

    tampered = bytearray(envelopes[-1])
    tampered[len(tampered) // 2] ^= 0x01
    assert not run.digest_matches("bulk-1m", run.envelope_digest(envelopes[:-1] + [bytes(tampered)]), committed)
    assert not run.digest_matches("bulk-1m", run.envelope_digest(envelopes[:-1] + [None]), committed)
    assert not run.digest_matches("mixed-len", run.envelope_digest(envelopes), committed)


class _TamperingPath(run.LibraryPath):
    def envelope(self, i):
        wire = bytearray(super().envelope(i))
        wire[-1] ^= 0x01
        return bytes(wire)


def test_every_seed_checks_the_default_seed_digest(tmp_path):
    committed = run.committed_digests()["cli-small"]
    messages = sum(len(b.messages) for b in run.first_batches("cli-small", inputs.DEFAULT_SEED))

    def cli(keys):
        return run.CliPath(ire, keys, tmp_path)

    tally = run.Tally()
    assert run.digest_check(ire, "cli-small", 5, None, cli, tally) == committed
    assert (tally.attempted, tally.failed) == (2 * messages + 1, 0)

    tally = run.Tally()
    run.digest_check(ire, "cli-small", 5, None, lambda keys: _TamperingPath(ire, keys), tally)
    assert (tally.attempted, tally.failed) == (2 * messages + 1, 1)

    tally = run.Tally()
    run.digest_check(ire, "cli-small", inputs.DEFAULT_SEED, "0" * 64, cli, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


class _CorruptingPath(run.LibraryPath):
    def result(self, i):
        out = bytearray(super().result(i))
        out[0] ^= 0xFF
        return bytes(out)


def test_round_trip_counts_a_wrong_message_as_failed(keys):
    batch = inputs.make_batch("cli-small", 2, 1)
    tally = run.Tally()
    run.round_trip(run.LibraryPath(ire, keys), batch, tally)
    assert (tally.attempted, tally.failed) == (2 * len(batch.messages), 0)
    tally = run.Tally()
    run.round_trip(_CorruptingPath(ire, keys), batch, tally)
    assert tally.failed == len(batch.messages)


def test_oracle_check_compares_envelopes_with_the_reference(keys):
    tally = run.Tally()
    run.oracle_check(ire, _reference, "bulk-1m", 4, keys, run.LibraryPath(ire, keys), tally)
    assert tally.attempted == 9 and tally.failed == 0
    tally = run.Tally()
    run.oracle_check(ire, _reference, "bulk-1m", 4, keys, _TamperingPath(ire, keys), tally)
    assert tally.failed == 3


def test_stage_composition_reproduces_ops(keyset):
    stages, absent = run.resolve_stages(ire)
    assert not absent
    samples = inputs.short_messages("mixed-len", 1)
    assert run.composition_matches(ire, keyset, stages, samples) is None
    swapped = dict(stages, **{"ops.substitute": stages["ops.unsubstitute"]})
    assert run.composition_matches(ire, keyset, swapped, samples) is not None


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("enc", 0) as root:
        tracer.call("child", root, 0, sum, range(1000))
    child, parent = tracer.spans
    own = tracer.self_ns()
    assert own[child.span_id] == child.ns
    assert own[parent.span_id] == parent.ns - child.ns
    assert child.parent == parent.span_id and child.msg_id == 0


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{bench.name}/run.py", "--workload", "bulk-1m", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
