"""Command-line front end.

Exit codes: 0 success, 1 crypto/format/IO error, 2 usage error. Only
IreError and OSError become exit code 1; any other exception is a bug
and propagates.
Output files are written to a temporary name and renamed into place on
success, so a failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import analysis, envelope as envelope_mod, keymat, keystream, ops, sliding
from .bits import bits_from_string
from .entropy import insecure_seeded_rng, system_rng
from .errors import IreError, SampleSizeError

DEFAULT_BENCH_SIZES = (65536, 131072, 262144, 524288, 1048576)


@dataclass
class CommandConfig:
    subcommand: str
    key_path: str | None = None
    input_path: str | None = None
    output_path: str | None = None
    rbs_bits: int = keystream.DEFAULT_RBS_BITS
    rule: str = keymat.RULE_B
    explicit_offset: int | None = None
    test_seed: int | None = None
    verbose: bool = False
    csv: bool = False
    sizes: tuple[int, ...] = field(default=DEFAULT_BENCH_SIZES)
    repetitions: int = 5


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ire",
        description="Iterated random encryption: keyed byte/bit scrambling over a looped random bit sequence.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    keygen = sub.add_parser("keygen", help="generate a keyset file")
    keygen.add_argument("--out", required=True, metavar="PATH", help="where to write the key file")
    keygen.add_argument("--rbs-bits", type=int, default=keystream.DEFAULT_RBS_BITS, metavar="N",
                        help="random bit sequence length in bits (default %(default)s)")
    keygen.add_argument("--rule", choices=["a", "b", "A", "B"], default="b",
                        help="combine rule (default %(default)s)")
    keygen.add_argument("--seed", type=int, default=None, metavar="N",
                        help="deterministic generation for tests; NOT secure")

    encrypt = sub.add_parser("encrypt", help="encrypt a file")
    encrypt.add_argument("--key", required=True, metavar="PATH")
    encrypt.add_argument("--in", dest="input", required=True, metavar="PATH")
    encrypt.add_argument("--out", required=True, metavar="PATH")
    encrypt.add_argument("--offset", type=int, default=None, metavar="N",
                         help="explicit keystream start offset (default: drawn at random)")
    encrypt.add_argument("--seed", type=int, default=None, metavar="N",
                         help="deterministic offset draw for tests; NOT secure")
    encrypt.add_argument("-v", "--verbose", action="store_true",
                         help="print the chosen start offset to stderr")

    decrypt = sub.add_parser("decrypt", help="decrypt an envelope file")
    decrypt.add_argument("--key", required=True, metavar="PATH")
    decrypt.add_argument("--in", dest="input", required=True, metavar="PATH")
    decrypt.add_argument("--out", required=True, metavar="PATH")

    sub.add_parser("selftest", help="run the built-in known-answer checks")

    bench = sub.add_parser("bench", help="measure encrypt/decrypt scaling")
    bench.add_argument("--key", default=None, metavar="PATH",
                       help="keyset to bench with (default: ephemeral keyset)")
    bench.add_argument("--sizes", type=_sizes_arg, default=DEFAULT_BENCH_SIZES, metavar="N,N,...",
                       help="payload sizes in bytes (default %(default)s)")
    bench.add_argument("--reps", type=int, default=5, metavar="N",
                       help="timed repetitions per size, minimum 3 (default %(default)s)")
    bench.add_argument("--csv", action="store_true", help="machine-readable output")

    rndtest = sub.add_parser("rndtest", help="run randomness checks over keystream bits")
    rndtest.add_argument("--key", default=None, metavar="PATH",
                         help="check the RBS inside a keyset file")
    rndtest.add_argument("--in", dest="input", default=None, metavar="PATH",
                         help="check a raw bit file (MSB-first packed bytes)")
    rndtest.add_argument("--csv", action="store_true", help="machine-readable output")

    return parser


def parse_args(argv) -> CommandConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg = CommandConfig(subcommand=ns.subcommand)
    if ns.subcommand == "keygen":
        if ns.rbs_bits < keystream.RbsLoop.MIN_BITS:
            parser.error(f"--rbs-bits must be at least {keystream.RbsLoop.MIN_BITS}")
        cfg.output_path = ns.out
        cfg.rbs_bits = ns.rbs_bits
        cfg.rule = ns.rule.upper()
        cfg.test_seed = ns.seed
    elif ns.subcommand == "encrypt":
        if ns.offset is not None and ns.offset < 0:
            parser.error("--offset must be non-negative")
        cfg.key_path = ns.key
        cfg.input_path = ns.input
        cfg.output_path = ns.out
        cfg.explicit_offset = ns.offset
        cfg.test_seed = ns.seed
        cfg.verbose = ns.verbose
    elif ns.subcommand == "decrypt":
        cfg.key_path = ns.key
        cfg.input_path = ns.input
        cfg.output_path = ns.out
    elif ns.subcommand == "bench":
        if ns.reps < 3:
            parser.error("--reps must be at least 3")
        if not ns.sizes or any(s < 10 for s in ns.sizes) or sorted(set(ns.sizes)) != list(ns.sizes):
            parser.error("--sizes must be strictly increasing and at least 10 bytes each")
        cfg.key_path = ns.key
        cfg.sizes = tuple(ns.sizes)
        cfg.repetitions = ns.reps
        cfg.csv = ns.csv
    elif ns.subcommand == "rndtest":
        if (ns.key is None) == (ns.input is None):
            parser.error("give exactly one of --key or --in")
        cfg.key_path = ns.key
        cfg.input_path = ns.input
        cfg.csv = ns.csv
    return cfg


def _select_rng(cfg: CommandConfig):
    if cfg.test_seed is not None:
        print("WARNING: --seed makes the output deterministic; test use only, NOT secure",
              file=sys.stderr)
        return insecure_seeded_rng(cfg.test_seed)
    return system_rng()


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ire-tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def run_keygen(cfg: CommandConfig) -> int:
    rng = _select_rng(cfg)
    ks = keymat.generate_keyset(rng, rbs_bits=cfg.rbs_bits, rule=cfg.rule)
    blob = keymat.serialize_keyset(ks)
    _write_atomic(cfg.output_path, blob)
    print(f"wrote {cfg.output_path} ({len(blob)} bytes)")
    print(f"fingerprint sha256:{keymat.keyset_fingerprint(blob)}")
    return 0


def run_encrypt(cfg: CommandConfig) -> int:
    ks = keymat.parse_keyset(_read(cfg.key_path))
    message = _read(cfg.input_path)
    offset = cfg.explicit_offset
    if offset is None:
        offset = keystream.choose_offset(_select_rng(cfg), ks.rbs.length)
    envelope = ops.encrypt(message, ks, offset)
    bits = 8 * len(envelope.payload)
    if bits > ks.rbs.length:
        print(f"WARNING: the message takes {bits} keystream bits from a loop of {ks.rbs.length}; "
              "it reuses its own keystream (a two-time pad)", file=sys.stderr)
    if cfg.verbose:
        print(f"start offset: {offset}", file=sys.stderr)
    _write_atomic(cfg.output_path, envelope_mod.encode_envelope(envelope))
    return 0


def run_decrypt(cfg: CommandConfig) -> int:
    ks = keymat.parse_keyset(_read(cfg.key_path))
    envelope = envelope_mod.decode_envelope(_read(cfg.input_path))
    message = ops.decrypt(envelope, ks)
    _write_atomic(cfg.output_path, message)
    return 0


# Known-answer material for selftest. The ten-wide map sends
# input offsets (7,2,6,3,0,9,1,8,5,4) to output slots 0..9; applied to
# the labels 1..10 that reads out (8,3,7,4,1,10,2,9,6,5). The 15-label
# trace and the shifted-window snapshot were frozen from the
# step-by-step window simulator.
_KNOWN_MAP = (7, 2, 6, 3, 0, 9, 1, 8, 5, 4)
_KNOWN_MAP_INVERSE = (4, 6, 1, 3, 9, 8, 2, 0, 7, 5)
_KNOWN_ONE_WINDOW = bytes([8, 3, 7, 4, 1, 10, 2, 9, 6, 5])
_KNOWN_SHIFTED_WINDOW = [3, 7, 4, 1, 10, 2, 9, 6, 5, 11]
_KNOWN_FULL_15 = bytes([8, 6, 2, 7, 9, 5, 1, 12, 3, 4, 15, 11, 13, 10, 14])
_KNOWN_PLAIN_BITS = "1011001010"
_KNOWN_KEY_BITS = "1001100001"
_KNOWN_RULE_B_BITS = "0010101011"
_KNOWN_RULE_A_BITS = "1101010100"


def _selftest_checks() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    perm = keymat.WindowPermutation(10, _KNOWN_MAP)

    got = ops.sliding_byte_permute(bytes(range(1, 11)), perm)
    checks.append(("ten-byte window reorder", got == _KNOWN_ONE_WINDOW))

    got = ops.sliding_byte_permute(bytes(range(1, 16)), perm)
    checks.append(("fifteen-byte sliding pass", got == _KNOWN_FULL_15))

    snapshots: list[list[int]] = []
    sliding.naive_sliding_permute(
        range(1, 16), _KNOWN_MAP,
        on_window=lambda k, buf: snapshots.append(buf[k + 1:k + 11]) if k == 0 else None)
    checks.append(("window contents after first shift", snapshots[0] == _KNOWN_SHIFTED_WINDOW))

    checks.append(("window map inversion",
                   keymat.invert_window_permutation(perm).map == _KNOWN_MAP_INVERSE))

    loop = keystream.RbsLoop(np.concatenate([
        bits_from_string(_KNOWN_KEY_BITS), np.zeros(70, dtype=np.uint8)]))
    plain = bits_from_string(_KNOWN_PLAIN_BITS)
    rule_b = ops.keystream_combine(plain, loop, 0, keymat.RULE_B)
    rule_a = ops.keystream_combine(plain, loop, 0, keymat.RULE_A)
    checks.append(("combine rule B vector",
                   rule_b.tolist() == [int(c) for c in _KNOWN_RULE_B_BITS]))
    checks.append(("combine rule A vector",
                   rule_a.tolist() == [int(c) for c in _KNOWN_RULE_A_BITS]))

    padded = ops.pad(b"8 bytes!")
    checks.append(("short message padding",
                   padded.pad_count == 2 and padded.data == b"8 bytes!  "))
    checks.append(("long message untouched", ops.pad(b"0123456789").pad_count == 0))
    trailing = b"ends in  "
    checks.append(("trailing whitespace survives",
                   ops.unpad(ops.pad(trailing)) == trailing))

    rng = system_rng()
    sweep_ok = True
    for _ in range(25):
        ks = keymat.generate_keyset(rng, rbs_bits=rng.randrange(80, 2048),
                                    rule=rng.choice(keymat.RULES))
        message = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 300)))
        offset = keystream.choose_offset(rng, ks.rbs.length)
        try:
            envelope = envelope_mod.decode_envelope(
                envelope_mod.encode_envelope(ops.encrypt(message, ks, offset)))
            sweep_ok = ops.decrypt(envelope, ks) == message
        except IreError:
            # a broken stage can garble the padding so that decrypt refuses it
            sweep_ok = False
        if not sweep_ok:
            break
    checks.append(("random round-trip sweep", sweep_ok))
    return checks


def run_selftest(cfg: CommandConfig) -> int:
    checks = _selftest_checks()
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    failed = sum(1 for _, ok in checks if not ok)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def run_bench(cfg: CommandConfig) -> int:
    if cfg.key_path is not None:
        ks = keymat.parse_keyset(_read(cfg.key_path))
    else:
        print("no key given, benching with an ephemeral keyset", file=sys.stderr)
        ks = keymat.generate_keyset(system_rng(), rbs_bits=1 << 20)
    report = analysis.bench_linear(ks, cfg.sizes, repetitions=cfg.repetitions)
    if cfg.csv:
        print("size_bytes,encrypt_seconds,decrypt_seconds")
        for point in report.points:
            print(f"{point.size},{point.encrypt_seconds:.9f},{point.decrypt_seconds:.9f}")
        for label, fit in (("encrypt", report.encrypt_fit), ("decrypt", report.decrypt_fit)):
            print(f"fit_{label},{fit.slope:.6e},{fit.intercept:.6e},{fit.r_squared:.6f}")
    else:
        print(f"{'size_bytes':>12} {'encrypt_s':>12} {'decrypt_s':>12}")
        for point in report.points:
            print(f"{point.size:>12} {point.encrypt_seconds:>12.6f} {point.decrypt_seconds:>12.6f}")
        for label, fit in (("encrypt", report.encrypt_fit), ("decrypt", report.decrypt_fit)):
            print(f"{label} fit: slope {fit.slope:.3e} s/byte, "
                  f"intercept {fit.intercept:.3e} s, r^2 {fit.r_squared:.4f}")
    if report.note:
        print(f"note: {report.note}", file=sys.stderr)
    return 0


def run_rndtest(cfg: CommandConfig) -> int:
    if cfg.key_path is not None:
        rbs = keymat.parse_keyset(_read(cfg.key_path)).rbs
        packed, n = rbs.packed, rbs.length
        source = cfg.key_path
    else:
        packed = np.frombuffer(_read(cfg.input_path), dtype=np.uint8)
        n = 8 * packed.size
        source = cfg.input_path
    if n < analysis.MIN_TEST_BITS:
        raise SampleSizeError(f"{source} holds {n} bits; the checks need at least {analysis.MIN_TEST_BITS}")
    ones, transitions = analysis.packed_bit_counts(packed, n)
    results = [("monobit", analysis.monobit_verdict(ones, n)),
               ("runs", analysis.runs_verdict(ones, transitions, n))]
    if cfg.csv:
        print("test,statistic,p_value,verdict")
    else:
        print(f"{n} bits from {source}")
        print(f"{'test':>8} {'statistic':>12} {'p_value':>10} verdict")
    failed = 0
    for name, verdict in results:
        word = "pass" if verdict.passed else ("n/a" if not verdict.applicable else "FAIL")
        if verdict.applicable and not verdict.passed:
            failed += 1
        if cfg.csv:
            print(f"{name},{verdict.statistic:.6f},{verdict.p_value:.6f},{word}")
        else:
            print(f"{name:>8} {verdict.statistic:>12.6f} {verdict.p_value:>10.6f} {word}")
    return 0 if failed == 0 else 1


_DISPATCH = {
    "keygen": run_keygen,
    "encrypt": run_encrypt,
    "decrypt": run_decrypt,
    "selftest": run_selftest,
    "bench": run_bench,
    "rndtest": run_rndtest,
}


def main(argv=None) -> int:
    cfg = parse_args(argv)
    try:
        return _DISPATCH[cfg.subcommand](cfg)
    except (IreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main(sys.argv[1:]))
