"""The ire benchmark: end-to-end and per-stage numbers for one workload.

Run from the repository root:

    python3 benchmark/run.py --workload bulk-1m --seed 0 --seconds 55 --trace 0

Workloads (closed loop, one caller, one process, no extra threads: every
call starts after the previous one returned; inputs are made by
inputs.py from --seed and the program receives only those):

  bulk-1m    library round trips of 1 MiB messages, one fixed length, a
             fresh offset per message, timed warm. The throughput case:
             the bit window's gather and the unpack/pack/combine stages do
             nearly all the work.
  mixed-len  library batches of 64 distinct lengths, log-uniform over
             4 KiB..256 KiB, each batch under a key of its own. Each batch
             is encrypted, then decrypted in another order, as a separate
             receiver would see it, so every call meets a cold length:
             per-length set-up dominates.
  cli-small  ire.cli.main encrypt/decrypt on files of 10 B..4 KiB, batched
             the same way, with a key file holding the default 2^23-bit
             loop. Key parsing, envelope handling and file I/O dominate.
             Its per-call times follow the host's speed more than the
             others do, so BENCHMARK.json leaves it out of the gated
             workloads; the traced run of every workload measures the cli
             layer on this workload's files.

--trace 0 measures the end-to-end metrics with tracing off; setup_s is
timed in fresh processes started during the timed pass (setup_time.py).
--trace 1 is a separate run that composes encrypt and decrypt from the
public stage functions, records a span around each call and reports
per-layer metrics; its spans are written to benchmark/out/ when it ends.

Every run first checks correctness: the default seed's first batches,
encrypted under the default seed's keys, must hash to the digest in
digests.json, whatever --seed is (on the default seed these are the
envelopes of the memory pass, which runs under tracemalloc outside any
timed region); a few short messages are checked against the naive
reference pipeline in tests/oracles.py; and every round trip of the run
is compared byte for byte. Traced memory is
what tracemalloc sees: it excludes any allocation numpy or other native
code does not report to it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output was
right, 1 when any was wrong, and 2 when the program cannot be loaded.
MB means 10^6 bytes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns

import inputs
import stats
from inputs import DEFAULT_SEED, LOOP_BITS, WORKLOADS, Batch
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Set-up is timed SETUP_REPS times in each of SETUP_PROCESSES fresh
# processes (setup_time.py), started one at a time at even intervals over
# the timed pass, between its batches, so that its median sees the host's
# speed over the whole run.
SETUP_PROCESSES = 5
SETUP_REPS = 20
MIN_CALLS = stats.min_samples(90)  # per direction, so p90 has ten samples beyond it
MAX_SECONDS = 120  # hard stop for the measured loop, whatever MIN_CALLS says
DIGEST_BATCHES = {"bulk-1m": 2, "mixed-len": 1, "cli-small": 1}

# Traced run.
MAX_TRACED_MESSAGES = 512
COLD_LENGTHS = 3
PEAK_LENGTHS = 2
LAYER_REPS = 5
CLI_WORKLOAD = "cli-small"  # the cli layer is measured on its small files, whatever the workload

ENCRYPT_STAGES = (
    "ops.pad", "ops.substitute", "ops.sliding_byte_permute", "bits.bytes_to_bits",
    "ops.sliding_bit_permute", "ops.keystream_combine", "bits.bits_to_bytes",
    "envelope.encode_envelope",
)
DECRYPT_STAGES = (
    "envelope.decode_envelope", "bits.bytes_to_bits", "ops.keystream_combine",
    "ops.sliding_bit_unpermute", "bits.bits_to_bytes", "ops.sliding_byte_unpermute",
    "ops.unsubstitute", "ops.unpad",
)


def load_program():
    """Import ire from this checkout's src/ and the reference pipeline from tests/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ire
    import ire.analysis
    import ire.bits
    import ire.cli
    import ire.envelope
    import ire.keymat
    import ire.keystream
    import ire.ops

    if not Path(ire.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ire was imported from {ire.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("ire_bench_oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return ire, oracles.encrypt_reference


class Tally:
    """Operations attempted and failed; the first failures are shown on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAIL {what}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc()


class Keys:
    """A seed's keys by number (inputs.key_image); the last one asked for is kept, image and parse."""

    def __init__(self, ire, seed: int):
        self.ire = ire
        self.seed = seed
        self._image = (None, b"")
        self._keyset = (None, None)

    def image(self, number: int) -> bytes:
        if self._image[0] != number:
            self._image = (number, inputs.key_image(self.seed, number))
        return self._image[1]

    def keyset(self, number: int):
        if self._keyset[0] != number:
            self._keyset = (number, self.ire.keymat.parse_keyset(self.image(number)))
        return self._keyset[1]


# ---------------------------------------------------------------------------
# The ways a workload reaches the program. Each prepares a batch untimed,
# then exposes one call per message and direction, so that the timed region
# holds that call and nothing else.


class LibraryPath:
    """ops.encrypt + encode_envelope, then decode_envelope + ops.decrypt."""

    def __init__(self, ire, keys: Keys):
        self.ire = ire
        self.keys = keys

    def prepare(self, batch: Batch) -> None:
        self.keyset = self.keys.keyset(batch.key)
        self.batch = batch
        self.wire = [b""] * len(batch.messages)
        self.out = [b""] * len(batch.messages)

    def encrypt(self, i: int) -> None:
        env = self.ire.ops.encrypt(self.batch.messages[i], self.keyset, self.batch.offsets[i])
        self.wire[i] = self.ire.envelope.encode_envelope(env)

    def decrypt(self, i: int) -> None:
        env = self.ire.envelope.decode_envelope(self.wire[i])
        self.out[i] = self.ire.ops.decrypt(env, self.keyset)

    def envelope(self, i: int) -> bytes:
        return self.wire[i]

    def result(self, i: int) -> bytes:
        return self.out[i]

    def finish(self) -> None:
        self.batch = self.wire = self.out = None


class CliPath:
    """ire.cli.main on files in a work directory, with the key in a file."""

    def __init__(self, ire, keys: Keys, workdir: Path):
        self.ire = ire
        self.keys = keys
        self.key = str(workdir / f"key-seed{keys.seed}.irek")
        self.workdir = workdir

    def _file(self, kind: str, i: int) -> str:
        return str(self.workdir / f"{kind}{i}")

    def prepare(self, batch: Batch) -> None:
        self.batch = batch
        Path(self.key).write_bytes(self.keys.image(batch.key))
        for i, message in enumerate(batch.messages):
            Path(self._file("plain", i)).write_bytes(message)

    def _main(self, argv: list[str]) -> None:
        code = self.ire.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ire {argv[0]} exited with {code}")

    def encrypt(self, i: int) -> None:
        self._main(["encrypt", "--key", self.key, "--in", self._file("plain", i),
                    "--out", self._file("env", i), "--offset", str(self.batch.offsets[i])])

    def decrypt(self, i: int) -> None:
        self._main(["decrypt", "--key", self.key, "--in", self._file("env", i),
                    "--out", self._file("out", i)])

    def envelope(self, i: int) -> bytes:
        return Path(self._file("env", i)).read_bytes()

    def result(self, i: int) -> bytes:
        return Path(self._file("out", i)).read_bytes()

    def finish(self) -> None:
        for entry in self.workdir.iterdir():
            if entry.name.startswith(("plain", "env", "out")):
                entry.unlink()
        self.batch = None


class ComposedPath(LibraryPath):
    """encrypt and decrypt composed stage by stage, as ops does it, each stage in a span."""

    def __init__(self, ire, keys: Keys, tracer: Tracer, stages: dict):
        super().__init__(ire, keys)
        self.tracer = tracer
        self.stages = stages
        self.next_msg = 0

    def prepare(self, batch: Batch) -> None:
        super().prepare(batch)
        self.first_msg = self.next_msg
        self.next_msg += len(batch.messages)

    def encrypt(self, i: int) -> None:
        self.wire[i] = compose_encrypt(self.tracer, self.stages, self.ire, self.first_msg + i,
                                       self.batch.messages[i], self.keyset, self.batch.offsets[i])

    def decrypt(self, i: int) -> None:
        self.out[i] = compose_decrypt(self.tracer, self.stages, self.ire, self.first_msg + i,
                                      self.wire[i], self.keyset)


def compose_encrypt(tr: Tracer, fn: dict, ire, msg_id: int, message: bytes, keyset, offset: int) -> bytes:
    with tr.span("enc", msg_id) as root:
        def stage(name, *args):
            return tr.call(name, root, msg_id, fn[name], *args)

        padded = stage("ops.pad", message)
        data = stage("ops.substitute", padded.data, keyset.sub)
        data = stage("ops.sliding_byte_permute", data, keyset.byte_perm)
        bits = stage("bits.bytes_to_bits", data)
        bits = stage("ops.sliding_bit_permute", bits, keyset.bit_perm)
        bits = stage("ops.keystream_combine", bits, keyset.rbs, offset, keyset.rule)
        payload = stage("bits.bits_to_bytes", bits)
        env = ire.envelope.CipherEnvelope(
            rule_echo=keyset.rule, pad_count=padded.pad_count, start_offset=offset, payload=payload)
        return stage("envelope.encode_envelope", env)


def compose_decrypt(tr: Tracer, fn: dict, ire, msg_id: int, wire: bytes, keyset) -> bytes:
    with tr.span("dec", msg_id) as root:
        def stage(name, *args):
            return tr.call(name, root, msg_id, fn[name], *args)

        env = stage("envelope.decode_envelope", wire)
        bits = stage("bits.bytes_to_bits", env.payload)
        bits = stage("ops.keystream_combine", bits, keyset.rbs, env.start_offset, keyset.rule)
        bits = stage("ops.sliding_bit_unpermute", bits, keyset.bit_perm)
        data = stage("bits.bits_to_bytes", bits)
        data = stage("ops.sliding_byte_unpermute", data, keyset.byte_perm)
        data = stage("ops.unsubstitute", data, keyset.sub)
        return stage("ops.unpad", ire.ops.PaddedMessage(data, env.pad_count))


def round_trip(path, batch: Batch, tally: Tally, enc=None, dec=None) -> list[bytes | None]:
    """Encrypt a batch in order, then decrypt it in its decrypt order.

    Every decrypted message is compared with the original. enc and dec,
    when given, collect (nanoseconds, payload bytes) per successful call.
    Returns the envelopes in encryption order, None where encryption failed.
    """
    path.prepare(batch)
    envelopes: list[bytes | None] = [None] * len(batch.messages)
    try:
        for i, message in enumerate(batch.messages):
            tally.attempted += 1
            try:
                start = perf_counter_ns()
                path.encrypt(i)
                took = perf_counter_ns() - start
                envelopes[i] = path.envelope(i)
            except Exception:
                tally.fail(f"encrypt of a {len(message)}-byte message in batch {batch.index}")
                continue
            if enc is not None:
                enc.append((took, len(message)))
        for i in batch.decrypt_order:
            if envelopes[i] is None:
                continue
            message = batch.messages[i]
            tally.attempted += 1
            try:
                start = perf_counter_ns()
                path.decrypt(i)
                took = perf_counter_ns() - start
                recovered = path.result(i)
            except Exception:
                tally.fail(f"decrypt of a {len(message)}-byte message in batch {batch.index}")
                continue
            if recovered != message:
                tally.fail(f"round trip of a {len(message)}-byte message in batch {batch.index} is not byte-exact")
                continue
            if dec is not None:
                dec.append((took, len(message)))
    finally:
        path.finish()
    return envelopes


# ---------------------------------------------------------------------------
# Correctness checks shared by both modes.


def envelope_digest(envelopes: list[bytes | None]) -> str | None:
    """SHA-256 over the envelopes, each prefixed by its length; None if any is missing."""
    if any(e is None for e in envelopes):
        return None
    h = hashlib.sha256()
    for e in envelopes:
        h.update(len(e).to_bytes(8, "little"))
        h.update(e)
    return h.hexdigest()


def committed_digests() -> dict:
    return json.loads((BENCH_DIR / "digests.json").read_text())


def digest_matches(workload: str, digest: str | None, committed: dict) -> bool:
    """Whether the default seed's envelopes hash to the digest committed for the workload."""
    return digest is not None and committed.get(workload) == digest


def first_batches(workload: str, seed: int) -> list[Batch]:
    return [inputs.make_batch(workload, seed, index) for index in range(DIGEST_BATCHES[workload])]


def batches_digest(path, batches: list[Batch], tally: Tally) -> str | None:
    """Round trips of the batches through path; the digest of their envelopes."""
    return envelope_digest([env for batch in batches for env in round_trip(path, batch, tally)])


def memory_pass(workload: str, keys: Keys, make_path, tally: Tally):
    """Parse the key and run the first batches under tracemalloc.

    Returns the envelope digest, and peak and retained traced MB. Retained
    memory is what is still allocated after a gc.collect(): the parsed
    keyset plus whatever the library keeps between calls. The key image is
    made before tracing starts. The pass also warms the process up before
    any timed call.
    """
    first = first_batches(workload, keys.seed)
    keys.image(first[0].key)
    gc.collect()
    tracemalloc.start()
    try:
        digest = batches_digest(make_path(keys), first, tally)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return digest, peak / 1e6, retained / 1e6


def digest_check(ire, workload: str, seed: int, digest: str | None, make_path, tally: Tally) -> str | None:
    """Check the default seed's envelope digest against digests.json; return it.

    digest is the digest of this run's memory pass. On another seed than
    the default, the default seed's first batches are run again under the
    default seed's keys, so that every run checks the committed ciphertext.
    """
    if seed != DEFAULT_SEED:
        path = make_path(Keys(ire, DEFAULT_SEED))
        digest = batches_digest(path, first_batches(workload, DEFAULT_SEED), tally)
    tally.attempted += 1
    if not digest_matches(workload, digest, committed_digests()):
        tally.fail(f"default-seed envelope digest {digest} differs from the committed one")
    return digest


def oracle_check(ire, reference, workload: str, seed: int, keys: Keys, path, tally: Tally) -> None:
    """Short messages through the workload's path, under key 0, must match the naive reference pipeline."""
    shorts = inputs.short_messages(workload, seed)
    batch = Batch(-1, tuple(m for m, _ in shorts), tuple(o for _, o in shorts), tuple(range(len(shorts))))
    keyset = keys.keyset(batch.key)
    for (message, offset), wire in zip(shorts, round_trip(path, batch, tally)):
        if wire is None:
            continue
        tally.attempted += 1
        payload, pad_count = reference(message, keyset, offset)
        try:
            env = ire.envelope.decode_envelope(wire)
        except Exception:
            tally.fail("decode of an oracle-checked envelope")
            continue
        if (env.payload, env.pad_count, env.start_offset) != (payload, pad_count, offset):
            tally.fail(f"{len(message)}-byte message at offset {offset} differs from the reference pipeline")


def setup_seconds(seed: int, part: int) -> list[float]:
    """Seconds to generate, serialize and parse a default keyset, SETUP_REPS times in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_time.py"), str(seed), str(part * SETUP_REPS), str(SETUP_REPS)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# End-to-end run.


def timed_pass(path, workload: str, seed: int, seconds: float, tally: Tally):
    """Round trips for seconds, with the set-up processes due so far run between batches."""
    enc: list[tuple[int, int]] = []
    dec: list[tuple[int, int]] = []
    setup: list[float] = []
    parts = 0
    every = min(seconds, MAX_SECONDS) / SETUP_PROCESSES
    gc.collect()
    start = perf_counter()
    for batch in inputs.batches(workload, seed):
        while parts < SETUP_PROCESSES and perf_counter() - start >= parts * every:
            setup += setup_seconds(seed, parts)
            parts += 1
        elapsed = perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= seconds and min(len(enc), len(dec)) >= MIN_CALLS):
            break
        round_trip(path, batch, tally, enc, dec)
    return enc, dec, setup


def end_to_end(enc, dec) -> list[tuple[str, float, str, str]]:
    rows = []
    for direction, calls in (("enc", enc), ("dec", dec)):
        if not calls:
            continue
        ns = [c[0] for c in calls]
        payload = sum(c[1] for c in calls)
        rows.append((f"{direction}_MBps", payload / sum(ns) * 1e3, "MB/s",
                     f"{len(calls)} calls, {payload / 1e6:.1f} MB"))
        for q in (50, 90):
            note = f"n={len(calls)}"
            if len(calls) < stats.min_samples(q):
                note += f", below the {stats.min_samples(q)} samples p{q} needs"
            rows.append((f"{direction}_p{q}_ms", stats.percentile(ns, q) / 1e6, "ms", note))
    return rows


# ---------------------------------------------------------------------------
# Traced run.


def resolve_stages(ire) -> tuple[dict, list[str]]:
    found, absent = {}, []
    for name in dict.fromkeys(ENCRYPT_STAGES + DECRYPT_STAGES):
        module, function = name.split(".")
        fn = getattr(getattr(ire, module), function, None)
        if fn is None:
            absent.append(name)
        else:
            found[name] = fn
    return found, absent


def composition_matches(ire, keyset, stages: dict, samples) -> str | None:
    """None when composing the stages reproduces ops.encrypt and ops.decrypt, else why not."""
    scratch = Tracer()
    try:
        for message, offset in samples:
            wire = ire.envelope.encode_envelope(ire.ops.encrypt(message, keyset, offset))
            if compose_encrypt(scratch, stages, ire, 0, message, keyset, offset) != wire:
                return "composed encrypt differs from ops.encrypt"
            expected = ire.ops.decrypt(ire.envelope.decode_envelope(wire), keyset)
            if compose_decrypt(scratch, stages, ire, 0, wire, keyset) != expected:
                return "composed decrypt differs from ops.decrypt"
    except Exception as exc:
        return f"composition raised {exc!r}"
    return None


def stage_rows(tracer: Tracer) -> tuple[list, dict]:
    """Median self time and share of the composed direction, per stage."""
    own = tracer.self_ns()
    roots = {s.span_id: s for s in tracer.spans if s.name in ("enc", "dec")}
    per: dict[tuple[str, str], tuple[list, list]] = {}
    for s in tracer.spans:
        root = roots.get(s.parent)
        if root is not None:
            ms, share = per.setdefault((root.name, s.name), ([], []))
            ms.append(own[s.span_id] / 1e6)
            share.append(own[s.span_id] / root.ns)
    composed = {d: statistics.median([r.ns / 1e6 for r in roots.values() if r.name == d]) for d in ("enc", "dec")}
    rows = []
    for direction, names in (("enc", ENCRYPT_STAGES), ("dec", DECRYPT_STAGES)):
        rows.append((f"{direction}.composed_ms", composed[direction], "ms",
                     f"traced, median of {sum(r.name == direction for r in roots.values())}"))
        for name in names:
            ms, share = per[(direction, name)]
            rows.append((f"{direction}.{name}.self_ms", statistics.median(ms), "ms", f"n={len(ms)}"))
            rows.append((f"{direction}.{name}.share", statistics.median(share), "fraction", f"n={len(share)}"))
    return rows, composed


def timed_ms(fn, *args) -> float:
    start = perf_counter_ns()
    fn(*args)
    return (perf_counter_ns() - start) / 1e6


def bit_window_rows(ire, workload: str, seed: int, keyset, used: set[int]) -> list:
    """First and second call on fresh lengths, and the traced peak of a cold call."""
    permute = ire.ops.sliding_bit_permute
    lengths = inputs.fresh_lengths(workload, seed, used, COLD_LENGTHS + PEAK_LENGTHS)
    cold, warm, peak = [], [], []
    for k, length in enumerate(lengths):
        bits = ire.bits.bytes_to_bits(inputs.fresh_message(length, seed))
        if k < COLD_LENGTHS:
            cold.append(timed_ms(permute, bits, keyset.bit_perm))
            warm.append(timed_ms(permute, bits, keyset.bit_perm))
        else:
            gc.collect()
            tracemalloc.start()
            try:
                permute(bits, keyset.bit_perm)
                peak.append(tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
    name = "ops.sliding_bit_permute"
    return [
        (f"{name}.cold_ms", statistics.median(cold), "ms", f"first call on a fresh length, n={len(cold)}"),
        (f"{name}.warm_ms", statistics.median(warm), "ms", f"second call on the same length, n={len(warm)}"),
        (f"{name}.peak_MB", statistics.median(peak), "MB", f"traced peak of a cold call, n={len(peak)}"),
    ]


def key_layer_rows(ire, seed: int, keyset, image: bytes) -> list:
    km, ks, an = ire.keymat, ire.keystream, ire.analysis
    calls = {
        "keymat.generate_keyset.ms": lambda rng: km.generate_keyset(rng),
        "keystream.generate_rbs.ms": lambda rng: ks.generate_rbs(rng, LOOP_BITS),
        "analysis.monobit_test.ms": lambda rng: an.monobit_test(keyset.rbs.bits),
        "analysis.runs_test.ms": lambda rng: an.runs_test(keyset.rbs.bits),
        "keymat.parse_keyset.ms": lambda rng: km.parse_keyset(image),
        "keymat.serialize_keyset.ms": lambda rng: km.serialize_keyset(keyset),
    }
    rows = []
    for name, call in calls.items():
        times = [timed_ms(call, random.Random(f"ire-bench/{seed}/{name}/{rep}")) for rep in range(LAYER_REPS)]
        rows.append((name, statistics.median(times), "ms", f"default 2^23-bit key, n={LAYER_REPS}"))
    return rows


def cli_rows(ire, keys: Keys, cli: CliPath, tracer: Tracer, batch: Batch, tally: Tally) -> list:
    """cli.main against the library calls it makes, on the same inputs.

    Each message is encrypted once through the library first, so that
    both sides see a warm length and the difference is the CLI's own cost.
    """
    lib = LibraryPath(ire, keys)
    lib.prepare(batch)
    cli.prepare(batch)
    image = keys.image(batch.key)
    total, parse_share, lib_share, rest_share, overhead = [], [], [], [], []

    def measure(msg_id: int, cli_call, lib_call) -> None:
        tracer.call("cli.main", None, msg_id, cli_call)
        tracer.call("keymat.parse_keyset", None, msg_id, ire.keymat.parse_keyset, image)
        tracer.call("library", None, msg_id, lib_call)
        t_cli, t_parse, t_lib = (s.ns / 1e6 for s in tracer.spans[-3:])
        total.append(t_cli)
        overhead.append(t_cli - t_parse - t_lib)
        parse_share.append(t_parse / t_cli)
        lib_share.append(t_lib / t_cli)
        rest_share.append(overhead[-1] / t_cli)

    try:
        for i, message in enumerate(batch.messages):
            msg_id = -1 - i
            tally.attempted += 2
            try:
                lib.encrypt(i)
                measure(msg_id, lambda: cli.encrypt(i), lambda: lib.encrypt(i))
                if cli.envelope(i) != lib.envelope(i):
                    tally.fail(f"cli and library envelopes differ for a {len(message)}-byte message")
                    continue
                measure(msg_id, lambda: cli.decrypt(i), lambda: lib.decrypt(i))
                if cli.result(i) != message or lib.result(i) != message:
                    tally.fail(f"cli round trip of a {len(message)}-byte message is not byte-exact")
            except Exception:
                tally.fail(f"cli round trip of a {len(message)}-byte message")
    finally:
        cli.finish()
        lib.finish()
    shares = {"keymat.parse_keyset": statistics.median(parse_share), "pipeline": statistics.median(lib_share),
              "rest of cli.main": statistics.median(rest_share)}
    print(f"largest share of cli.main: {max(shares, key=shares.get)}")
    n = f"n={len(total)} calls"
    return [
        ("cli.main.ms", statistics.median(total), "ms", n),
        ("cli.overhead_ms", statistics.median(overhead), "ms",
         f"derived: cli.main minus parse_keyset and the library round-trip calls, {n}"),
        ("cli.keymat.parse_keyset.share", shares["keymat.parse_keyset"], "fraction", n),
        ("cli.pipeline.share", shares["pipeline"], "fraction", n),
    ]


def traced_run(ire, workload: str, seed: int, seconds: float, keys: Keys,
               cli: CliPath, tally: Tally, spans_path: Path) -> list:
    tracer = Tracer()
    keyset, image = keys.keyset(0), keys.image(0)
    rows = []
    stages, absent = resolve_stages(ire)
    used = {len(m) for m, _ in inputs.short_messages(workload, seed)}
    if not absent:
        why = composition_matches(ire, keyset, stages, inputs.short_messages(workload, seed))
        if why is not None:
            print(f"stage composition not trusted ({why}); stage layers reported absent")
            absent = list(stages)
    for name in absent:
        print(f"absent: {name}")

    untraced_enc: list[tuple[int, int]] = []
    untraced_dec: list[tuple[int, int]] = []
    next_batch = 0
    if not absent:
        lib = LibraryPath(ire, keys)
        composed = ComposedPath(ire, keys, tracer, stages)
        start = perf_counter()
        # Every batch runs both untraced and traced, so that trace.overhead
        # compares the same messages; which goes first alternates by batch.
        # In a varied-length batch at least (ROUNDS - 1) * BANDS calls of
        # other lengths lie between a message's two runs, as between its
        # encryption and decryption, so both runs meet a cold length.
        for batch in inputs.batches(workload, seed):
            used.update(len(m) for m in batch.messages)
            runs = [(lib, untraced_enc, untraced_dec), (composed, None, None)]
            for path, enc, dec in runs[::1 if batch.index % 2 == 0 else -1]:
                round_trip(path, batch, tally, enc, dec)
            elapsed = perf_counter() - start
            if elapsed >= min(seconds, MAX_SECONDS) or composed.next_msg >= MAX_TRACED_MESSAGES:
                next_batch = batch.index + 1
                break
        stage_table, composed_ms = stage_rows(tracer)
        rows += stage_table
        untraced = {d: statistics.median([c[0] / 1e6 for c in calls])
                    for d, calls in (("enc", untraced_enc), ("dec", untraced_dec))}
        overhead = (composed_ms["enc"] + composed_ms["dec"]) / (untraced["enc"] + untraced["dec"])
        rows.append(("trace.overhead", overhead, "ratio",
                     "traced composed time over untraced ops time on the same messages, medians per message"))
        own = sum(r[1] for r in stage_table if r[0].endswith(".self_ms"))
        print(f"check: stage self_ms medians sum to {own:.4f} ms per round trip, untraced ops "
              f"{untraced['enc'] + untraced['dec']:.4f} ms, ratio {own / (untraced['enc'] + untraced['dec']):.3f} "
              f"against trace.overhead {overhead:.3f}")
        shares = [r for r in stage_table if r[0].startswith("enc.") and r[0].endswith(".share")]
        print(f"largest encrypt share: {max(shares, key=lambda r: r[1])[0]}")
    if "ops.sliding_bit_permute" not in absent:
        rows += bit_window_rows(ire, workload, seed, keyset, used)
    rows += key_layer_rows(ire, seed, keyset, image)
    rows += cli_rows(ire, keys, cli, tracer, inputs.make_batch(CLI_WORKLOAD, seed, next_batch), tally)
    tracer.write(spans_path)
    return rows


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ire, reference = load_program()
    except (ImportError, OSError) as exc:
        print(f"cannot load the program from {ROOT}: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        tally = Tally()
        keys = Keys(ire, args.seed)
        cli = CliPath(ire, keys, workdir)

        def make_path(keys):
            return CliPath(ire, keys, workdir) if args.workload == "cli-small" else LibraryPath(ire, keys)

        digest, peak_mb, retained_mb = memory_pass(args.workload, keys, make_path, tally)
        path = make_path(keys)
        oracle_check(ire, reference, args.workload, args.seed, keys, path, tally)
        digest = digest_check(ire, args.workload, args.seed, digest, make_path, tally)
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, default-seed envelope digest {digest}")

        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            rows = traced_run(ire, args.workload, args.seed, args.seconds, keys, cli, tally, spans_path)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            enc, dec, setup = timed_pass(path, args.workload, args.seed, args.seconds, tally)
            rows = [("setup_s", statistics.median(setup), "s",
                     f"median of {len(setup)}, in {SETUP_PROCESSES} fresh processes over the timed pass")]
            rows += end_to_end(enc, dec)
            rows += [
                ("peak_traced_MB", peak_mb, "MB", "separate untimed pass, tracemalloc"),
                ("retained_MB", retained_mb, "MB", "after that pass and gc.collect(): keyset plus library caches"),
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value, unit, note in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<9} {note}")
    print(f"  {'fail_frac':<40} {tally.failed / max(1, tally.attempted):>14.6g} {'':<9} "
          f"{tally.failed} of {tally.attempted} operations failed or wrong")
    print("  traced memory excludes any allocation that numpy or other native code does not report to tracemalloc")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
