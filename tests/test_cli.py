import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ire.analysis
import ire.cli
import ire.ops
from ire.cli import main
from ire.envelope import HEADER_LEN, decode_envelope, encode_envelope
from ire.keymat import parse_keyset
from ire.keystream import DEFAULT_RBS_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def key_file(tmp_path, capsys):
    path = tmp_path / "test.irek"
    code, _out, _err = run(capsys, "keygen", "--out", str(path), "--rbs-bits", "512")
    assert code == 0
    return str(path)


def test_app_exits_with_the_code_main_returns(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing")
    monkeypatch.setattr(sys, "argv", ["ire", "decrypt", "--key", missing, "--in", missing, "--out", missing])
    with pytest.raises(SystemExit) as excinfo:
        ire.cli.app()
    assert excinfo.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_python_m_ire_cli_runs_the_command():
    # a subprocess, not runpy: ire.cli is already imported here, and
    # runpy warns when it runs a module that is
    env = dict(os.environ, PYTHONPATH=str(Path(ire.cli.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "ire.cli", "selftest"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "10/10 checks passed"


def test_console_script_entry_point_is_app():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"ire": "ire.cli:app"}
    module, _, name = scripts["ire"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


# --- keygen -----------------------------------------------------------------

def test_keygen_writes_expected_size(tmp_path, capsys):
    path = tmp_path / "k.irek"
    code, out, _ = run(capsys, "keygen", "--out", str(path), "--rbs-bits", "1048576")
    assert code == 0
    assert os.path.getsize(path) == 131_432
    assert "131432 bytes" in out
    assert "fingerprint sha256:" in out
    parse_keyset(path.read_bytes())  # well-formed


def test_keygen_fingerprints_differ_across_runs(tmp_path, capsys):
    prints = set()
    for name in ("a", "b"):
        _, out, _ = run(capsys, "keygen", "--out", str(tmp_path / name), "--rbs-bits", "80")
        prints.add(out.split("sha256:")[1].strip())
    assert len(prints) == 2


def test_keygen_seed_is_deterministic_and_warns(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        path = tmp_path / name
        code, _out, err = run(capsys, "keygen", "--out", str(path),
                              "--rbs-bits", "256", "--seed", "7")
        assert code == 0
        assert "NOT secure" in err
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_keygen_rejects_tiny_rbs(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["keygen", "--out", str(tmp_path / "k"), "--rbs-bits", "79"])
    assert excinfo.value.code == 2
    assert not (tmp_path / "k").exists()


def test_keygen_rule_flag(tmp_path, capsys):
    for flag, rule in (("a", "A"), ("A", "A"), ("b", "B"), ("B", "B")):
        path = tmp_path / flag
        code, _, _ = run(capsys, "keygen", "--out", str(path), "--rbs-bits", "80", "--rule", flag)
        assert code == 0
        assert parse_keyset(path.read_bytes()).rule == rule
    with pytest.raises(SystemExit) as excinfo:
        main(["keygen", "--out", str(tmp_path / "c"), "--rule", "c"])
    assert excinfo.value.code == 2
    assert "--rule" in capsys.readouterr().err


# --- encrypt / decrypt --------------------------------------------------------

def test_file_round_trip(tmp_path, key_file, capsys):
    plain = tmp_path / "plain.bin"
    plain.write_bytes(os.urandom(500))
    code, _, _ = run(capsys, "encrypt", "--key", key_file,
                     "--in", str(plain), "--out", str(tmp_path / "c.ire1"))
    assert code == 0
    code, _, _ = run(capsys, "decrypt", "--key", key_file,
                     "--in", str(tmp_path / "c.ire1"), "--out", str(tmp_path / "back.bin"))
    assert code == 0
    assert (tmp_path / "back.bin").read_bytes() == plain.read_bytes()


def test_empty_plaintext_round_trip(tmp_path, key_file, capsys):
    plain = tmp_path / "empty"
    plain.write_bytes(b"")
    run(capsys, "encrypt", "--key", key_file, "--in", str(plain),
        "--out", str(tmp_path / "c"))
    assert os.path.getsize(tmp_path / "c") == HEADER_LEN + 10
    run(capsys, "decrypt", "--key", key_file, "--in", str(tmp_path / "c"),
        "--out", str(tmp_path / "back"))
    assert (tmp_path / "back").read_bytes() == b""


def test_explicit_offset_is_deterministic(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"same input, same offset, same bytes out")
    images = []
    for name in ("c1", "c2"):
        run(capsys, "encrypt", "--key", key_file, "--in", str(plain),
            "--out", str(tmp_path / name), "--offset", "33")
        images.append((tmp_path / name).read_bytes())
    assert images[0] == images[1]


def test_random_offsets_usually_differ(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"same input, fresh offset each send")
    images = set()
    for i in range(4):
        run(capsys, "encrypt", "--key", key_file, "--in", str(plain),
            "--out", str(tmp_path / f"c{i}"))
        images.add((tmp_path / f"c{i}").read_bytes())
    assert len(images) > 1  # 512 offsets, 4 draws: collision of all four is absurd


def test_verbose_prints_offset(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"loud")
    code, _, err = run(capsys, "encrypt", "--key", key_file, "--in", str(plain),
                       "--out", str(tmp_path / "c"), "--offset", "5", "-v")
    assert code == 0
    assert "start offset: 5" in err
    # a drawn offset is printed as the envelope records it
    code, _, err = run(capsys, "encrypt", "--key", key_file, "--in", str(plain),
                       "--out", str(tmp_path / "d"), "-v")
    assert code == 0
    start_offset = decode_envelope((tmp_path / "d").read_bytes()).start_offset
    assert f"start offset: {start_offset}\n" in err


def test_encrypt_offset_out_of_range(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"x")
    code, _, err = run(capsys, "encrypt", "--key", key_file, "--in", str(plain),
                       "--out", str(tmp_path / "c"), "--offset", "512")
    assert code == 1
    assert "error:" in err and "offset" in err
    assert not (tmp_path / "c").exists()


def test_encrypt_rejects_negative_offset(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"x")
    with pytest.raises(SystemExit) as excinfo:
        main(["encrypt", "--key", key_file, "--in", str(plain), "--out", str(tmp_path / "c"),
              "--offset", "-1"])
    assert excinfo.value.code == 2
    assert "--offset" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_encrypt_warns_when_message_outruns_the_loop(tmp_path, key_file, capsys):
    # the key_file loop holds 512 bits: 65 bytes reuse keystream, 64 do not
    for size, warned in ((5, False), (64, False), (65, True), (1000, True)):
        plain = tmp_path / "p"
        plain.write_bytes((bytes(range(256)) * 4)[:size])
        code, _, err = run(capsys, "encrypt", "--key", key_file, "--in", str(plain),
                           "--out", str(tmp_path / "c"))
        assert code == 0
        assert ("two-time pad" in err) == warned, (size, err)
        code, _, _ = run(capsys, "decrypt", "--key", key_file,
                         "--in", str(tmp_path / "c"), "--out", str(tmp_path / "back"))
        assert code == 0 and (tmp_path / "back").read_bytes() == plain.read_bytes()


def test_library_bug_is_not_an_exit_code(tmp_path, key_file, capsys, monkeypatch):
    # a ValueError from inside a stage is a bug, not a data fault
    def broken(data, table):
        raise ValueError("stage bug")

    monkeypatch.setattr(ire.ops, "substitute", broken)
    plain = tmp_path / "p"
    plain.write_bytes(b"hits the broken stage")
    with pytest.raises(ValueError, match="stage bug"):
        main(["encrypt", "--key", key_file, "--in", str(plain), "--out", str(tmp_path / "c")])
    assert not (tmp_path / "c").exists()


def _encrypt_with_refused_rename(tmp_path, key_file, capsys, monkeypatch, temporary_gone):
    def refuse(src, dst):
        if temporary_gone:  # the cleanup's unlink then finds nothing, and the rename's error still stands
            os.unlink(src)
        raise OSError("rename refused")

    monkeypatch.setattr(ire.cli.os, "replace", refuse)
    plain = tmp_path / "p"
    plain.write_bytes(b"never lands")
    (tmp_path / "c").write_bytes(b"old contents")
    code, _, err = run(capsys, "encrypt", "--key", key_file, "--in", str(plain), "--out", str(tmp_path / "c"))
    assert code == 1
    assert "error: rename refused" in err
    assert (tmp_path / "c").read_bytes() == b"old contents"
    assert not list(tmp_path.glob(".ire-tmp-*"))


def test_failed_rename_leaves_no_temporary_file(tmp_path, key_file, capsys, monkeypatch):
    _encrypt_with_refused_rename(tmp_path, key_file, capsys, monkeypatch, temporary_gone=False)


def test_failed_rename_with_temporary_already_gone(tmp_path, key_file, capsys, monkeypatch):
    _encrypt_with_refused_rename(tmp_path, key_file, capsys, monkeypatch, temporary_gone=True)


def test_decrypt_with_wrong_rule_keyset(tmp_path, capsys):
    key_b = tmp_path / "b.irek"
    key_a = tmp_path / "a.irek"
    run(capsys, "keygen", "--out", str(key_b), "--rbs-bits", "256", "--seed", "1")
    run(capsys, "keygen", "--out", str(key_a), "--rbs-bits", "256", "--seed", "1", "--rule", "a")
    plain = tmp_path / "p"
    plain.write_bytes(b"rule crossing")
    run(capsys, "encrypt", "--key", str(key_b), "--in", str(plain), "--out", str(tmp_path / "c"))
    code, _, err = run(capsys, "decrypt", "--key", str(key_a),
                       "--in", str(tmp_path / "c"), "--out", str(tmp_path / "back"))
    assert code == 1
    assert "rule" in err
    assert not (tmp_path / "back").exists()  # no partial output


def test_decrypt_rejects_corrupt_envelope(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"about to be mangled")
    run(capsys, "encrypt", "--key", key_file, "--in", str(plain), "--out", str(tmp_path / "c"))
    blob = bytearray((tmp_path / "c").read_bytes())
    blob[0] = 0x58
    (tmp_path / "c").write_bytes(bytes(blob))
    code, _, err = run(capsys, "decrypt", "--key", key_file,
                       "--in", str(tmp_path / "c"), "--out", str(tmp_path / "back"))
    assert code == 1
    assert "magic" in err
    assert not (tmp_path / "back").exists()


def test_decrypt_offset_outside_loop(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"offset moved past the loop")
    run(capsys, "encrypt", "--key", key_file, "--in", str(plain), "--out", str(tmp_path / "c"))
    env = decode_envelope((tmp_path / "c").read_bytes())
    moved = type(env)(env.rule_echo, env.pad_count, 512, env.payload)  # the loop holds 512 bits
    (tmp_path / "c").write_bytes(encode_envelope(moved))
    code, _, err = run(capsys, "decrypt", "--key", key_file,
                       "--in", str(tmp_path / "c"), "--out", str(tmp_path / "back"))
    assert code == 1
    assert "error:" in err and "offset" in err
    assert not (tmp_path / "back").exists()


def test_missing_input_file(tmp_path, key_file, capsys):
    code, _, err = run(capsys, "decrypt", "--key", key_file,
                       "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in err


def test_swapped_key_and_envelope_is_an_error(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"q")
    run(capsys, "encrypt", "--key", key_file, "--in", str(plain), "--out", str(tmp_path / "c"))
    code, _, err = run(capsys, "decrypt", "--key", str(tmp_path / "c"),
                       "--in", key_file, "--out", str(tmp_path / "o"))
    assert code == 1
    assert "magic" in err


# --- selftest -------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "10/10 checks passed" in out
    assert "FAIL" not in out


def test_selftest_catches_broken_combine(capsys, monkeypatch):
    real = ire.ops.keystream_combine
    monkeypatch.setattr(ire.ops, "keystream_combine",
                        lambda bits, rbs, offset, rule: 1 - real(bits, rbs, offset, rule))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL combine rule B vector" in out


def test_selftest_catches_broken_permute(capsys, monkeypatch):
    monkeypatch.setattr(ire.ops, "sliding_byte_permute", lambda data, perm: bytes(data))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL ten-byte window reorder" in out


def test_selftest_reports_sweep_that_raises(capsys, monkeypatch):
    # Seed 83 makes the sweep's first message one byte long. Encrypting
    # without substitution garbles its padding on decrypt, which raises
    # CorruptionError; the sweep must report that, not abort the command.
    monkeypatch.setattr(ire.cli, "system_rng", lambda: random.Random(83))
    monkeypatch.setattr(ire.ops, "substitute", lambda data, table: bytes(data))
    lengths = []
    real_encrypt = ire.ops.encrypt

    def recording_encrypt(message, keyset, offset):
        lengths.append(len(message))
        return real_encrypt(message, keyset, offset)

    monkeypatch.setattr(ire.ops, "encrypt", recording_encrypt)
    code, out, _ = run(capsys, "selftest")
    assert lengths == [1]
    assert code == 1
    assert "FAIL random round-trip sweep" in out
    assert "9/10 checks passed" in out


# --- bench ----------------------------------------------------------------------

def test_bench_csv_smoke(tmp_path, key_file, capsys):
    code, out, err = run(capsys, "bench", "--key", key_file,
                         "--sizes", "16,64,256", "--reps", "3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size_bytes,encrypt_seconds,decrypt_seconds"
    assert len(lines) == 1 + 3 + 2  # header, three points, two fit rows
    assert lines[4].startswith("fit_encrypt,")


def test_bench_table_smoke(tmp_path, key_file, capsys):
    code, out, _ = run(capsys, "bench", "--key", key_file, "--sizes", "16,64", "--reps", "3")
    assert code == 0
    assert "encrypt fit" in out and "r^2" in out


def test_bench_rejects_bad_sizes(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--sizes", "64,16"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--reps", "2"])
    assert excinfo.value.code == 2


def test_bench_rejects_a_size_that_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--sizes", "1,x"])
    assert excinfo.value.code == 2
    assert "not a comma-separated list of integers: '1,x'" in capsys.readouterr().err


def test_bench_without_a_key_uses_an_ephemeral_keyset(capsys, monkeypatch):
    benched = []
    bench_linear = ire.analysis.bench_linear

    def spy(ks, *args, **kwargs):
        benched.append(ks)
        return bench_linear(ks, *args, **kwargs)

    monkeypatch.setattr(ire.analysis, "bench_linear", spy)
    code, out, err = run(capsys, "bench", "--sizes", "16,64", "--reps", "3", "--csv")
    assert code == 0
    assert "no key given, benching with an ephemeral keyset" in err
    assert len(out.strip().splitlines()) == 1 + 2 + 2
    # a default keyset, whose loop the default sizes do not run past
    assert [ks.rbs.length for ks in benched] == [DEFAULT_RBS_BITS]


def test_bench_notes_a_single_size_on_stderr(key_file, capsys):
    code, out, err = run(capsys, "bench", "--key", key_file, "--sizes", "64", "--reps", "3")
    assert code == 0
    assert "note: single size measured: fit is degenerate" in err
    assert "note" not in out


# --- rndtest --------------------------------------------------------------------

def test_rndtest_on_key(tmp_path, capsys):
    # seeded so the verdict is reproducible; a fresh random loop would
    # fail one of the checks about 2% of the time by design
    path = tmp_path / "k"
    run(capsys, "keygen", "--out", str(path), "--rbs-bits", "65536", "--seed", "424242")
    code, out, _ = run(capsys, "rndtest", "--key", str(path))
    assert code == 0
    assert "monobit" in out and "runs" in out


def test_rndtest_on_raw_file(tmp_path, capsys):
    import random

    raw = tmp_path / "bits.bin"
    raw.write_bytes(random.Random(99).randbytes(4096))
    code, out, _ = run(capsys, "rndtest", "--in", str(raw), "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "test,statistic,p_value,verdict"
    assert lines[1].startswith("monobit,") and lines[2].startswith("runs,")


def test_rndtest_flags_constant_bits(tmp_path, capsys):
    raw = tmp_path / "flat.bin"
    raw.write_bytes(bytes(4096))  # all zero bits
    code, out, _ = run(capsys, "rndtest", "--in", str(raw))
    assert code == 1
    assert "FAIL" in out
    assert "n/a" in out  # runs check bows out on a fully biased input


def test_rndtest_refuses_input_under_100_bits(tmp_path, capsys):
    for size in (0, 12):  # 0 and 96 bits
        raw = tmp_path / "short.bin"
        raw.write_bytes(bytes(range(size)))
        code, out, err = run(capsys, "rndtest", "--in", str(raw))
        assert code == 1
        assert "error:" in err and "100" in err
        assert out == ""


def test_rndtest_runs_at_100_bits(tmp_path, capsys):
    # a raw file holds whole bytes, so its smallest accepted size is 104 bits;
    # a key loop can hold exactly 100
    key = tmp_path / "k"
    run(capsys, "keygen", "--out", str(key), "--rbs-bits", "100", "--seed", "5")
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes.fromhex("5a3c96e1b20f7d48a6c3195e2b"))
    for source, path, bits in (("--key", key, 100), ("--in", raw, 104)):
        code, out, err = run(capsys, "rndtest", source, str(path))
        assert code == 0
        assert "error:" not in err
        assert f"{bits} bits from" in out
        assert "monobit" in out and "runs" in out


def test_rndtest_requires_exactly_one_source(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rndtest"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["rndtest", "--key", "k", "--in", "i"])
    assert excinfo.value.code == 2


# --- usage ------------------------------------------------------------------

def test_option_values_that_name_subcommands_are_paths(tmp_path, key_file, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("bench").write_bytes(Path(key_file).read_bytes())
    Path("keygen").write_bytes(b"a message")
    code, _out, _err = run(capsys, "encrypt", "--key", "bench", "--in", "keygen", "--out", "o")
    assert code == 0
    code, _out, _err = run(capsys, "decrypt", "--key", "bench", "--in", "o", "--out", "selftest")
    assert code == 0
    assert Path("selftest").read_bytes() == b"a message"


def test_an_option_before_the_subcommand_is_a_usage_error(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"x")
    with pytest.raises(SystemExit) as excinfo:
        main(["--bogus", "encrypt", "--key", key_file, "--in", str(plain), "--out", str(tmp_path / "c")])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith("ire: error: unrecognized arguments: --bogus\n")
    assert not (tmp_path / "c").exists()


def _usage_cases():
    """(argv, exit code, stdout, stderr) for each section of cli_usage.txt."""
    text = (Path(__file__).parent / "cli_usage.txt").read_text()
    for section in text.split("=== ire")[1:]:
        header, rest = section.split("\n", 1)
        code, rest = rest.removeprefix("--- exit ").split("\n", 1)
        out, err = rest.removeprefix("--- stdout\n").split("--- stderr\n")
        yield header.split(), int(code), out, err


_USAGE_CASES = list(_usage_cases())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="usage text captured under Python 3.11")
@pytest.mark.parametrize("argv, code, out, err", _USAGE_CASES,
                         ids=[" ".join(case[0]) or "no arguments" for case in _USAGE_CASES])
def test_help_and_usage_errors_are_unchanged(monkeypatch, capsys, argv, code, out, err):
    # ire --help, each ire <cmd> --help and the usage errors, pinned
    # byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)
