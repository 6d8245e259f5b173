"""Binary regime announcement records.

A record states which model currently governs the channel, with which
parameters, over which window of the trace.  Layout, all fields big-endian:

====================  =====  ========================================
field                 bytes  meaning
====================  =====  ========================================
version               1      format version, currently 1
model                 1      model id (0 exponential, 1 gamma)
param count           1      number of parameters that follow
params                8 * k  IEEE 754 binary64, one per parameter
window start          4      unsigned first sample index of the window
window length         4      unsigned sample count, at least 1
====================  =====  ========================================

An exponential record carries one parameter (the rate); a gamma record
carries two (shape, then scale).  A record is therefore exactly
``11 + 8 * k`` bytes and both ends validate every field, so a truncated,
oversized, or internally inconsistent buffer is rejected rather than
partially decoded.
"""

import math
import struct
from dataclasses import dataclass

from .distributions import ModelKind, ModelParams
from .errors import WireFormatError

__all__ = ["WIRE_VERSION", "RegimeAnnouncement", "encode", "decode"]

WIRE_VERSION = 1

_U32_MAX = 0xFFFFFFFF
_PARAM_COUNT = {ModelKind.EXPONENTIAL: 1, ModelKind.GAMMA: 2}
_HEADER = struct.Struct(">BBB")
_WINDOW = struct.Struct(">II")


@dataclass(frozen=True)
class RegimeAnnouncement:
    """One decoded (or to-be-encoded) announcement."""

    model: ModelKind
    params: tuple[float, ...]
    window_start: int
    window_len: int
    version: int = WIRE_VERSION

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    @classmethod
    def from_model_params(
        cls, params: ModelParams, window_start: int, window_len: int
    ) -> "RegimeAnnouncement":
        """Build an announcement from a fitted model."""
        if params.kind is ModelKind.EXPONENTIAL:
            values: tuple[float, ...] = (params.rate,)
        else:
            values = (params.shape, params.scale)
        return cls(
            model=params.kind,
            params=values,
            window_start=window_start,
            window_len=window_len,
        )


def _validated(ann: RegimeAnnouncement) -> RegimeAnnouncement:
    if isinstance(ann.version, bool) or ann.version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported format version {ann.version!r}; this build speaks {WIRE_VERSION}"
        )
    try:
        if isinstance(ann.model, bool):
            raise ValueError(ann.model)
        model = ModelKind(ann.model)
    except ValueError:
        raise WireFormatError(f"unknown model id {ann.model!r}") from None
    expected = _PARAM_COUNT[model]
    if len(ann.params) != expected:
        raise WireFormatError(
            f"{model.name.lower()} announcements carry {expected} parameter(s), "
            f"got {len(ann.params)}"
        )
    for position, value in enumerate(ann.params):
        if not math.isfinite(value) or value <= 0.0:
            raise WireFormatError(
                f"parameter {position} must be finite and positive, got {value!r}"
            )
    for name, value, low in (
        ("window start", ann.window_start, 0),
        ("window length", ann.window_len, 1),
    ):
        if isinstance(value, bool) or not isinstance(value, int):
            raise WireFormatError(f"{name} must be an integer, got {value!r}")
        if not low <= value <= _U32_MAX:
            raise WireFormatError(
                f"{name} must be between {low} and {_U32_MAX}, got {value}"
            )
    return ann


def encode(announcement: RegimeAnnouncement) -> bytes:
    """Serialize an announcement; the result is exactly 11 + 8k bytes."""
    ann = _validated(announcement)
    parts = [_HEADER.pack(ann.version, int(ann.model), len(ann.params))]
    parts.extend(struct.pack(">d", value) for value in ann.params)
    parts.append(_WINDOW.pack(ann.window_start, ann.window_len))
    return b"".join(parts)


def decode(data: bytes) -> RegimeAnnouncement:
    """Parse and validate an announcement record.

    Raises :class:`WireFormatError` for anything malformed: short or long
    buffers, unknown version or model id, a parameter count that does not
    match the model, non-positive or non-finite parameters, or a zero
    window length.
    """
    buf = bytes(data)
    if len(buf) < _HEADER.size:
        raise WireFormatError(
            f"buffer of {len(buf)} byte(s) is shorter than the {_HEADER.size}-byte header"
        )
    version, model_id, count = _HEADER.unpack_from(buf, 0)
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported format version {version}; this build speaks {WIRE_VERSION}"
        )
    try:
        model = ModelKind(model_id)
    except ValueError:
        raise WireFormatError(f"unknown model id {model_id}") from None
    if count != _PARAM_COUNT[model]:
        raise WireFormatError(
            f"{model.name.lower()} announcements carry {_PARAM_COUNT[model]} "
            f"parameter(s), record claims {count}"
        )
    expected_size = _HEADER.size + 8 * count + _WINDOW.size
    if len(buf) != expected_size:
        raise WireFormatError(
            f"a {model.name.lower()} record is exactly {expected_size} bytes, got {len(buf)}"
        )
    params = struct.unpack_from(f">{count}d", buf, _HEADER.size)
    window_start, window_len = _WINDOW.unpack_from(buf, _HEADER.size + 8 * count)
    announcement = RegimeAnnouncement(
        model=model,
        params=params,
        window_start=window_start,
        window_len=window_len,
        version=version,
    )
    return _validated(announcement)
