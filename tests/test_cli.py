import os
import random

import pytest

import ire.cli
import ire.ops
from ire.cli import main
from ire.envelope import HEADER_LEN, decode_envelope, encode_envelope
from ire.keymat import parse_keyset


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
    path = tmp_path / "k"
    run(capsys, "keygen", "--out", str(path), "--rbs-bits", "80", "--rule", "a")
    assert parse_keyset(path.read_bytes()).rule == "A"


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


def test_encrypt_offset_out_of_range(tmp_path, key_file, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"x")
    code, _, err = run(capsys, "encrypt", "--key", key_file, "--in", str(plain),
                       "--out", str(tmp_path / "c"), "--offset", "512")
    assert code == 1
    assert "error:" in err and "offset" in err
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


def test_rndtest_requires_exactly_one_source(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["rndtest"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["rndtest", "--key", "k", "--in", "i"])
    assert excinfo.value.code == 2
