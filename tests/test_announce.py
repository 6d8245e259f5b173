"""Announcement wire format: byte layout, round trips, hostile input."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitterfit import (
    ModelKind,
    ModelParams,
    RegimeAnnouncement,
    WIRE_VERSION,
    WireFormatError,
    decode,
    encode,
)

WORKED_EXAMPLE_HEX = "01000140000000000000000000000000000dac"


def test_worked_example_bytes():
    record = RegimeAnnouncement(
        model=ModelKind.EXPONENTIAL, params=(2.0,), window_start=0, window_len=3500
    )
    blob = encode(record)
    assert blob == bytes.fromhex(WORKED_EXAMPLE_HEX)
    assert len(blob) == 19
    assert decode(blob) == record


def test_gamma_record_length_and_round_trip():
    record = RegimeAnnouncement(
        model=ModelKind.GAMMA,
        params=(4.25, 0.75),
        window_start=123456,
        window_len=3500,
    )
    blob = encode(record)
    assert len(blob) == 27
    assert decode(blob) == record


def test_round_trip_extreme_params():
    for params in [(1e-300,), (1e300,)]:
        record = RegimeAnnouncement(
            model=ModelKind.EXPONENTIAL,
            params=params,
            window_start=0xFFFFFFFF,
            window_len=0xFFFFFFFF,
        )
        assert decode(encode(record)) == record


def test_from_model_params():
    exp_record = RegimeAnnouncement.from_model_params(
        ModelParams.exponential(2.0), 0, 3500
    )
    assert exp_record.model is ModelKind.EXPONENTIAL
    assert exp_record.params == (2.0,)
    gamma_record = RegimeAnnouncement.from_model_params(
        ModelParams.gamma(4.0, 1.0), 100, 200
    )
    assert gamma_record.model is ModelKind.GAMMA
    assert gamma_record.params == (4.0, 1.0)


_positive_doubles = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from([ModelKind.EXPONENTIAL, ModelKind.GAMMA]),
    values=st.lists(_positive_doubles, min_size=2, max_size=2),
    window_start=st.integers(min_value=0, max_value=0xFFFFFFFF),
    window_len=st.integers(min_value=1, max_value=0xFFFFFFFF),
)
def test_round_trip_property(model, values, window_start, window_len):
    count = 1 if model is ModelKind.EXPONENTIAL else 2
    record = RegimeAnnouncement(
        model=model,
        params=tuple(values[:count]),
        window_start=window_start,
        window_len=window_len,
    )
    assert decode(encode(record)) == record


@settings(max_examples=500, deadline=None)
@given(blob=st.binary(max_size=64))
def test_decode_never_crashes_and_is_canonical(blob):
    try:
        record = decode(blob)
    except WireFormatError:
        return
    # anything that decodes must re-encode to the very same bytes
    assert encode(record) == blob


def test_decode_rejects_truncation_everywhere():
    blob = bytes.fromhex(WORKED_EXAMPLE_HEX)
    for cut in range(len(blob)):
        with pytest.raises(WireFormatError):
            decode(blob[:cut])
    with pytest.raises(WireFormatError):
        decode(blob + b"\x00")


def test_decode_rejects_bad_header_fields():
    good = bytes.fromhex(WORKED_EXAMPLE_HEX)
    with pytest.raises(WireFormatError, match="version"):
        decode(b"\x02" + good[1:])
    with pytest.raises(WireFormatError, match="model id"):
        decode(good[:1] + b"\x07" + good[2:])
    # param count that contradicts the model
    with pytest.raises(WireFormatError):
        decode(good[:2] + b"\x02" + good[3:])


def test_decode_rejects_bad_values():
    nan_param = struct.pack(">BBB", 1, 0, 1) + struct.pack(">d", float("nan"))
    nan_param += struct.pack(">II", 0, 3500)
    with pytest.raises(WireFormatError, match="finite and positive"):
        decode(nan_param)
    negative = struct.pack(">BBB", 1, 0, 1) + struct.pack(">d", -2.0)
    negative += struct.pack(">II", 0, 3500)
    with pytest.raises(WireFormatError):
        decode(negative)
    zero_len = struct.pack(">BBB", 1, 0, 1) + struct.pack(">d", 2.0)
    zero_len += struct.pack(">II", 0, 0)
    with pytest.raises(WireFormatError, match="window length"):
        decode(zero_len)


def test_encode_validation():
    def record(**overrides):
        fields = dict(
            model=ModelKind.EXPONENTIAL, params=(2.0,), window_start=0, window_len=3500
        )
        fields.update(overrides)
        return RegimeAnnouncement(**fields)

    with pytest.raises(WireFormatError, match="version"):
        encode(record(version=99))
    with pytest.raises(WireFormatError, match="parameter"):
        encode(record(params=(2.0, 3.0)))
    with pytest.raises(WireFormatError, match="parameter"):
        encode(record(model=ModelKind.GAMMA, params=(4.0,)))
    with pytest.raises(WireFormatError):
        encode(record(params=(0.0,)))
    with pytest.raises(WireFormatError):
        encode(record(params=(float("inf"),)))
    with pytest.raises(WireFormatError, match="window start"):
        encode(record(window_start=-1))
    with pytest.raises(WireFormatError, match="window length"):
        encode(record(window_len=0))
    with pytest.raises(WireFormatError, match="window length"):
        encode(record(window_len=2**32))
    with pytest.raises(WireFormatError, match="integer"):
        encode(record(window_start="12"))
    with pytest.raises(WireFormatError, match="window start must be an integer"):
        encode(record(window_start=False))
    with pytest.raises(WireFormatError, match="window length must be an integer"):
        encode(record(window_len=True))
    with pytest.raises(WireFormatError, match="model"):
        encode(record(model=True))
    with pytest.raises(WireFormatError, match="version"):
        encode(record(version=True))
    with pytest.raises(WireFormatError, match="model"):
        encode(record(model=3))


def test_single_byte_corruptions_never_crash():
    blob = bytearray(bytes.fromhex(WORKED_EXAMPLE_HEX))
    for position in range(len(blob)):
        for flip in (0x01, 0x80, 0xFF):
            mutated = bytearray(blob)
            mutated[position] ^= flip
            try:
                record = decode(bytes(mutated))
            except WireFormatError:
                continue
            assert isinstance(record, RegimeAnnouncement)
            assert record.version == WIRE_VERSION
