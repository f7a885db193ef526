import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ire.bits import bits_from_string, bits_to_bytes, bits_to_string, bytes_to_bits


def test_msb_first_convention():
    assert bytes_to_bits(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bytes_to_bits(b"\x01").tolist() == [0, 0, 0, 0, 0, 0, 0, 1]
    assert bits_to_bytes(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)) == b"\x80"


def test_empty():
    assert bytes_to_bits(b"").size == 0
    assert bits_to_bytes(np.array([], dtype=np.uint8)) == b""


def test_partial_byte_rejected():
    with pytest.raises(ValueError):
        bits_to_bytes(np.array([1, 0, 1], dtype=np.uint8))


def test_string_round_trip():
    text = "1011001010"
    assert bits_to_string(bits_from_string(text)) == text


def test_bad_string():
    with pytest.raises(ValueError):
        bits_from_string("10201")


@given(st.binary(max_size=200))
def test_byte_round_trip(data):
    assert bits_to_bytes(bytes_to_bits(data)) == data
    assert bytes_to_bits(data).size == 8 * len(data)
