import pickle
import struct
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ire.envelope import (
    HEADER_LEN,
    CipherEnvelope,
    decode_envelope,
    encode_envelope,
)
from ire.errors import EnvelopeFormatError
from ire.keymat import RULE_A, RULE_B


def sample_envelope(payload=b"0123456789", pad_count=0, offset=6722, rule=RULE_B):
    return CipherEnvelope(rule_echo=rule, pad_count=pad_count, start_offset=offset, payload=payload)


def test_byte_exact_image():
    blob = encode_envelope(sample_envelope(pad_count=2, offset=6722))
    assert blob[:4] == b"IRE1"
    assert blob[4] == 1
    assert blob[5] == 1  # rule B
    assert blob[6] == 2
    assert blob[7:15] == struct.pack("<Q", 6722)
    assert blob[15:23] == struct.pack("<Q", 10)
    assert blob[23:] == b"0123456789"
    assert len(blob) == 33


def test_rule_a_flag_is_zero():
    assert encode_envelope(sample_envelope(rule=RULE_A))[5] == 0


def test_minimum_envelope_is_33_bytes():
    # an empty plaintext pads to 10 bytes, so 23 header + 10 payload
    assert len(encode_envelope(sample_envelope(pad_count=10))) == HEADER_LEN + 10


def test_round_trip():
    for env in (
        sample_envelope(),
        sample_envelope(pad_count=7),
        sample_envelope(payload=bytes(range(100)) * 3, offset=2 ** 63),
        sample_envelope(rule=RULE_A, offset=0),
    ):
        assert decode_envelope(encode_envelope(env)) == env


@given(
    payload=st.binary(min_size=10, max_size=400),
    offset=st.integers(0, 2 ** 64 - 1),
    rule=st.sampled_from([RULE_A, RULE_B]),
)
def test_round_trip_property(payload, offset, rule):
    env = CipherEnvelope(rule_echo=rule, pad_count=0, start_offset=offset, payload=payload)
    assert decode_envelope(encode_envelope(env)) == env


def test_constructor_validation():
    with pytest.raises(ValueError):
        sample_envelope(rule="Z")
    with pytest.raises(ValueError):
        sample_envelope(pad_count=11)
    with pytest.raises(ValueError):
        sample_envelope(payload=b"niner")  # under 10 bytes
    with pytest.raises(ValueError):
        CipherEnvelope(RULE_B, 1, 0, b"0123456789x")  # pad forces 10 bytes
    with pytest.raises(ValueError):
        sample_envelope(offset=2 ** 64)
    with pytest.raises(ValueError):
        sample_envelope(offset=-1)
    with pytest.raises(ValueError, match="at least 10"):
        sample_envelope(payload=memoryview(b"niner"))
    with pytest.raises(ValueError, match="10-byte payload"):
        sample_envelope(payload=memoryview(b"0123456789x"), pad_count=1)
    with pytest.raises(ValueError, match="pad count"):
        sample_envelope(payload=memoryview(b"0123456789"), pad_count=11)
    with pytest.raises(TypeError):
        sample_envelope(payload="0123456789")  # not a bytes-like object


def test_decode_rejects_bad_magic():
    with pytest.raises(EnvelopeFormatError, match="magic"):
        decode_envelope(b"JUNKJUNKJUNK" + bytes(30))
    with pytest.raises(EnvelopeFormatError, match="truncated"):
        decode_envelope(b"IR")


def test_decode_rejects_short_header():
    blob = encode_envelope(sample_envelope())
    with pytest.raises(EnvelopeFormatError, match="header"):
        decode_envelope(blob[:15])


def test_decode_rejects_unknown_version():
    blob = bytearray(encode_envelope(sample_envelope()))
    blob[4] = 9
    with pytest.raises(EnvelopeFormatError, match="version"):
        decode_envelope(bytes(blob))


def test_decode_rejects_bad_rule_flag():
    blob = bytearray(encode_envelope(sample_envelope()))
    blob[5] = 2
    with pytest.raises(EnvelopeFormatError, match="rule flag"):
        decode_envelope(bytes(blob))


def test_decode_rejects_oversize_pad_count():
    blob = bytearray(encode_envelope(sample_envelope()))
    blob[6] = 11
    with pytest.raises(EnvelopeFormatError, match="pad count"):
        decode_envelope(bytes(blob))


def test_decode_rejects_inconsistent_pad_count():
    blob = bytearray(encode_envelope(sample_envelope(payload=bytes(20))))
    blob[6] = 3  # nonzero pad over a 20-byte payload
    with pytest.raises(EnvelopeFormatError, match="pad count"):
        decode_envelope(bytes(blob))


def test_decode_rejects_length_mismatch():
    blob = encode_envelope(sample_envelope())
    with pytest.raises(EnvelopeFormatError, match="truncated payload"):
        decode_envelope(blob[:-1])
    with pytest.raises(EnvelopeFormatError, match="trailing data"):
        decode_envelope(blob + b"\x00")


def test_decode_rejects_short_payload():
    env_bytes = (
        b"IRE1" + bytes([1, 1, 0]) + struct.pack("<QQ", 0, 9) + bytes(9))
    with pytest.raises(EnvelopeFormatError, match="at least 10"):
        decode_envelope(env_bytes)


def test_decode_huge_declared_length_is_cheap():
    # a hostile header naming petabytes must fail by comparison, not by
    # attempting the allocation
    blob = bytearray(encode_envelope(sample_envelope()))
    struct.pack_into("<Q", blob, 15, 1 << 60)
    started = time.perf_counter()
    with pytest.raises(EnvelopeFormatError, match="truncated payload"):
        decode_envelope(bytes(blob))
    assert time.perf_counter() - started < 0.05


# --- payload handoff -----------------------------------------------------------

def test_decode_of_bytes_shares_its_memory():
    blob = encode_envelope(sample_envelope(payload=bytes(range(40))))
    env = decode_envelope(blob)
    assert isinstance(env.payload, memoryview) and env.payload.obj is blob
    assert env.payload.readonly
    assert env.payload == bytes(range(40))
    with pytest.raises(TypeError):
        env.payload[0] = 1
    copy = bytes(env.payload)
    assert type(copy) is bytes and copy == bytes(range(40))


def test_writable_and_odd_buffers_are_copied_once():
    blob = bytearray(encode_envelope(sample_envelope(payload=bytes(range(40)))))
    env = decode_envelope(blob)
    blob[HEADER_LEN:] = bytes(40)
    assert type(env.payload) is bytes and env.payload == bytes(range(40))
    backing = bytearray(b"0123456789abc")
    env = sample_envelope(payload=memoryview(backing))
    backing[0] = ord("X")
    assert type(env.payload) is bytes and env.payload == b"0123456789abc"
    # a read-only view that is strided or not of unsigned bytes is copied too
    assert type(sample_envelope(payload=memoryview(bytes(30))[::2]).payload) is bytes
    assert type(sample_envelope(payload=memoryview(bytes(12)).cast("b")).payload) is bytes


def test_view_and_bytes_payloads_compare_and_hash_equal():
    payload = bytes(range(100, 140))
    array = np.frombuffer(payload, dtype=np.uint8).copy()
    array.setflags(write=False)  # as encrypt hands over its working array
    as_bytes = sample_envelope(payload=payload)
    for other in (sample_envelope(payload=memoryview(payload)), sample_envelope(payload=array)):
        assert isinstance(other.payload, memoryview)
        assert other == as_bytes and as_bytes == other
        assert hash(other) == hash(as_bytes)
    assert len({as_bytes, sample_envelope(payload=array)}) == 1
    assert sample_envelope(payload=array) != sample_envelope(payload=payload[::-1])


def test_equality_reads_the_payload_bytes_and_every_header_field():
    payload = bytes(range(60, 100))
    blob = encode_envelope(sample_envelope(payload=payload))
    view, other_view, as_bytes = decode_envelope(blob), decode_envelope(bytes(blob)), sample_envelope(payload=payload)
    assert view == other_view and view == as_bytes and as_bytes == view
    assert hash(view) == hash(other_view) == hash(as_bytes)
    differs = payload[:-1] + b"\x00"  # same length, last byte changed
    for changed in (
        sample_envelope(payload=differs),
        sample_envelope(payload=memoryview(differs)),
        sample_envelope(payload=payload + b"\x00"),
        sample_envelope(payload=payload, offset=6723),
        sample_envelope(payload=payload, rule=RULE_A),
    ):
        assert view != changed and changed != view and as_bytes != changed
    short = bytes(range(10))
    assert sample_envelope(payload=memoryview(short), pad_count=3) != sample_envelope(payload=short, pad_count=4)
    assert view != payload and view.__eq__(payload) is NotImplemented


def test_a_read_only_byte_view_is_kept_as_given():
    view = memoryview(bytes(range(30)))
    assert sample_envelope(payload=view).payload is view


def test_pickle_round_trips_an_envelope():
    blob = encode_envelope(sample_envelope(payload=bytes(range(50)), pad_count=0, rule=RULE_A))
    for env in (decode_envelope(blob), sample_envelope(pad_count=4)):
        back = pickle.loads(pickle.dumps(env))
        assert back == env and type(back.payload) is bytes


def test_repr_shows_the_payload_length():
    env = decode_envelope(encode_envelope(sample_envelope(payload=bytes(1 << 16))))
    text = repr(env)
    assert text == "CipherEnvelope(rule_echo='B', pad_count=0, start_offset=6722, payload=<65536 bytes>)"
