"""Command-line front end.

Exit codes: 0 success, 1 crypto/format/IO error, 2 usage error. Only
IreError and OSError become exit code 1; any other exception is a bug
and propagates.
Output files are written to a temporary name and renamed into place on
success, so a failing run never leaves a partial file behind.

parse_args builds the whole parser (build_parser), lets argparse read
the arguments and makes the checks that argparse cannot state; a usage
error exits before any file is read. Such an error is reported by the
subcommand's parser, under its usage line, as argparse's own errors are.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile

import numpy as np

from . import analysis, envelope as envelope_mod, keymat, keystream, ops, sliding
from .bits import bits_from_string
from .entropy import system_rng
from .errors import IreError, SampleSizeError

DEFAULT_BENCH_SIZES = (65536, 131072, 262144, 524288, 1048576)


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    """The ire parser: each subcommand with its arguments and the
    function that runs it (args.run). A subcommand that parse_args
    checks further also records its own parser (args.parser)."""
    parser = argparse.ArgumentParser(
        prog="ire",
        description="Iterated random encryption: keyed byte/bit scrambling over a looped random bit sequence.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    keygen = sub.add_parser("keygen", help="generate a keyset file")
    keygen.set_defaults(run=run_keygen, parser=keygen)
    keygen.add_argument("--out", required=True, metavar="PATH", help="where to write the key file")
    keygen.add_argument("--rbs-bits", type=int, default=keystream.DEFAULT_RBS_BITS, metavar="N",
                        help="random bit sequence length in bits (default %(default)s)")
    keygen.add_argument("--rule", type=str.upper, choices=keymat.RULES, default=keymat.RULE_B,
                        help="combine rule, in either case (default %(default)s)")
    keygen.add_argument("--seed", type=int, default=None, metavar="N",
                        help="deterministic generation for tests; NOT secure")

    encrypt = sub.add_parser("encrypt", help="encrypt a file")
    encrypt.set_defaults(run=run_encrypt, parser=encrypt)
    encrypt.add_argument("--key", required=True, metavar="PATH")
    encrypt.add_argument("--in", dest="input", required=True, metavar="PATH")
    encrypt.add_argument("--out", required=True, metavar="PATH")
    encrypt.add_argument("--offset", type=int, default=None, metavar="N",
                         help="explicit keystream start offset (default: drawn at random)")
    encrypt.add_argument("-v", "--verbose", action="store_true",
                         help="print the chosen start offset to stderr")

    decrypt = sub.add_parser("decrypt", help="decrypt an envelope file")
    decrypt.set_defaults(run=run_decrypt)
    decrypt.add_argument("--key", required=True, metavar="PATH")
    decrypt.add_argument("--in", dest="input", required=True, metavar="PATH")
    decrypt.add_argument("--out", required=True, metavar="PATH")

    sub.add_parser("selftest", help="run the built-in known-answer checks").set_defaults(run=run_selftest)

    bench = sub.add_parser("bench", help="measure encrypt/decrypt scaling")
    bench.set_defaults(run=run_bench, parser=bench)
    bench.add_argument("--key", default=None, metavar="PATH",
                       help="keyset to bench with (default: ephemeral keyset)")
    bench.add_argument("--sizes", type=_sizes_arg, default=DEFAULT_BENCH_SIZES, metavar="N,N,...",
                       help="payload sizes in bytes (default %(default)s)")
    bench.add_argument("--reps", type=int, default=5, metavar="N",
                       help="timed repetitions per size, minimum 3 (default %(default)s)")
    bench.add_argument("--csv", action="store_true", help="machine-readable output")

    rndtest = sub.add_parser("rndtest", help="run randomness checks over keystream bits")
    rndtest.set_defaults(run=run_rndtest)
    source = rndtest.add_mutually_exclusive_group(required=True)
    source.add_argument("--key", metavar="PATH", help="check the RBS inside a keyset file")
    source.add_argument("--in", dest="input", metavar="PATH",
                        help="check a raw bit file (MSB-first packed bytes)")
    rndtest.add_argument("--csv", action="store_true", help="machine-readable output")
    return parser


def parse_args(argv) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    if args.subcommand == "keygen" and args.rbs_bits < keystream.RbsLoop.MIN_BITS:
        args.parser.error(f"--rbs-bits must be at least {keystream.RbsLoop.MIN_BITS}")
    elif args.subcommand == "encrypt" and args.offset is not None and args.offset < 0:
        args.parser.error("--offset must be non-negative")
    elif args.subcommand == "bench":
        error = analysis._bench_plan_error(args.sizes, args.reps, "--sizes", "--reps")
        if error:
            args.parser.error(error)
    return args


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


def run_keygen(args: argparse.Namespace) -> int:
    rng = None
    if args.seed is not None:
        print("WARNING: --seed makes the output deterministic; test use only, NOT secure",
              file=sys.stderr)
        rng = random.Random(args.seed)
    ks = keymat.generate_keyset(rng, rbs_bits=args.rbs_bits, rule=args.rule)
    blob = keymat.serialize_keyset(ks)
    _write_atomic(args.out, blob)
    print(f"wrote {args.out} ({len(blob)} bytes)")
    print(f"fingerprint sha256:{keymat.keyset_fingerprint(blob)}")
    return 0


def run_encrypt(args: argparse.Namespace) -> int:
    ks = keymat.parse_keyset(_read(args.key))
    message = _read(args.input)
    offset = args.offset
    if offset is None:
        offset = keystream.choose_offset(None, ks.rbs.length)
    envelope = ops.encrypt(message, ks, offset)
    bits = 8 * len(envelope.payload)
    if bits > ks.rbs.length:
        print(f"WARNING: the message takes {bits} keystream bits from a loop of {ks.rbs.length}; "
              "it reuses its own keystream (a two-time pad)", file=sys.stderr)
    if args.verbose:
        print(f"start offset: {offset}", file=sys.stderr)
    _write_atomic(args.out, envelope_mod.encode_envelope(envelope))
    return 0


def run_decrypt(args: argparse.Namespace) -> int:
    ks = keymat.parse_keyset(_read(args.key))
    envelope = envelope_mod.decode_envelope(_read(args.input))
    message = ops.decrypt(envelope, ks)
    _write_atomic(args.out, message)
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
                   sliding.invert_map(_KNOWN_MAP) == _KNOWN_MAP_INVERSE))

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


def run_selftest(args: argparse.Namespace) -> int:
    checks = _selftest_checks()
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    failed = sum(1 for _, ok in checks if not ok)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def run_bench(args: argparse.Namespace) -> int:
    if args.key is not None:
        ks = keymat.parse_keyset(_read(args.key))
    else:
        print("no key given, benching with an ephemeral keyset", file=sys.stderr)
        ks = keymat.generate_keyset()
    report = analysis.bench_linear(ks, args.sizes, repetitions=args.reps)
    if args.csv:
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


def run_rndtest(args: argparse.Namespace) -> int:
    if args.key is not None:
        rbs = keymat.parse_keyset(_read(args.key)).rbs
        packed, n = rbs.packed, rbs.length
        source = args.key
    else:
        packed = np.frombuffer(_read(args.input), dtype=np.uint8)
        n = 8 * packed.size
        source = args.input
    if n < analysis.MIN_TEST_BITS:
        raise SampleSizeError(f"{source} holds {n} bits; the checks need at least {analysis.MIN_TEST_BITS}")
    ones, transitions = analysis.packed_bit_counts(packed, n)
    results = [("monobit", analysis.monobit_verdict(ones, n)),
               ("runs", analysis.runs_verdict(ones, transitions, n))]
    if args.csv:
        print("test,statistic,p_value,verdict")
    else:
        print(f"{n} bits from {source}")
        print(f"{'test':>8} {'statistic':>12} {'p_value':>10} verdict")
    failed = 0
    for name, verdict in results:
        word = "pass" if verdict.passed else ("n/a" if not verdict.applicable else "FAIL")
        if verdict.applicable and not verdict.passed:
            failed += 1
        if args.csv:
            print(f"{name},{verdict.statistic:.6f},{verdict.p_value:.6f},{word}")
        else:
            print(f"{name:>8} {verdict.statistic:>12.6f} {verdict.p_value:>10.6f} {word}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.run(args)
    except (IreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
