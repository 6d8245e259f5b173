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
carries two (shape, then scale), so a record is exactly ``11 + 8 * k``
bytes.  Each window field is bounded on its own, so start plus length may
pass 0xFFFFFFFF.  :class:`RegimeAnnouncement` checks every field when it
is built, so an invalid record cannot exist: :func:`encode` only packs,
and :func:`decode` checks the buffer length against the header's count,
then unpacks and builds the record, which rejects a bad version, model
id, count, parameter or window field.
"""

import math
import numbers
import struct
from dataclasses import dataclass

from .distributions import ModelKind, ModelParams
from .errors import WireFormatError

__all__ = ["WIRE_VERSION", "RegimeAnnouncement", "encode", "decode"]

WIRE_VERSION = 1

_U32_MAX = 0xFFFFFFFF
_PARAM_COUNT = {ModelKind.EXPONENTIAL: 1, ModelKind.GAMMA: 2}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RegimeAnnouncement:
    """One decoded (or to-be-encoded) announcement.

    Every field is checked here, so an invalid record cannot be built:
    ``params`` must be a list or tuple of real, non-bool numbers within the
    range of a double, as many as the model takes and each finite positive;
    ``version`` the integer :data:`WIRE_VERSION`; ``model`` an integer model
    id (stored as a :class:`ModelKind`); the window fields integers in the
    u32 range, the length at least 1.  Anything else raises
    :class:`WireFormatError`.
    """

    model: ModelKind
    params: tuple[float, ...]
    window_start: int
    window_len: int
    version: int = WIRE_VERSION

    def __post_init__(self):
        params = self.params
        if not isinstance(params, (list, tuple)) or not all(
            isinstance(p, numbers.Real) and not isinstance(p, bool) for p in params
        ):
            raise WireFormatError(
                f"params must be a list or tuple of real numbers, got {params!r}"
            )
        try:
            params = tuple(float(p) for p in params)
        except OverflowError:
            raise WireFormatError(
                f"params must be within the range of a double, got {params!r}"
            ) from None
        object.__setattr__(self, "params", params)
        if not _is_int(self.version) or self.version != WIRE_VERSION:
            raise WireFormatError(
                f"unsupported format version {self.version!r}; this build speaks {WIRE_VERSION}"
            )
        if not _is_int(self.model) or self.model not in _PARAM_COUNT:
            raise WireFormatError(f"unknown model id {self.model!r}")
        model = ModelKind(self.model)
        object.__setattr__(self, "model", model)
        expected = _PARAM_COUNT[model]
        if len(params) != expected:
            raise WireFormatError(
                f"{model.name.lower()} announcements carry {expected} parameter(s), "
                f"got {len(params)}"
            )
        for position, value in enumerate(params):
            if not math.isfinite(value) or value <= 0.0:
                raise WireFormatError(
                    f"parameter {position} must be finite and positive, got {value!r}"
                )
        for name, value, low in (
            ("window start", self.window_start, 0),
            ("window length", self.window_len, 1),
        ):
            if not _is_int(value):
                raise WireFormatError(f"{name} must be an integer, got {value!r}")
            if not low <= value <= _U32_MAX:
                raise WireFormatError(
                    f"{name} must be between {low} and {_U32_MAX}, got {value}"
                )

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


def encode(announcement: RegimeAnnouncement) -> bytes:
    """Serialize an announcement; the result is exactly 11 + 8k bytes."""
    ann, k = announcement, len(announcement.params)
    return struct.pack(
        f">BBB{k}dII", ann.version, ann.model, k, *ann.params, ann.window_start, ann.window_len
    )


def decode(data: bytes) -> RegimeAnnouncement:
    """Parse and validate an announcement record.

    Raises :class:`WireFormatError` for anything malformed: a buffer shorter
    than the header or of another length than its parameter count implies,
    and, from :class:`RegimeAnnouncement`, an unknown version or model id, a
    parameter count that does not match the model, non-positive or
    non-finite parameters, or a zero window length.
    """
    buf = bytes(data)
    if len(buf) < 3:
        raise WireFormatError(
            f"buffer of {len(buf)} byte(s) is shorter than the 3-byte header"
        )
    count = buf[2]
    size = 11 + 8 * count
    if len(buf) != size:
        raise WireFormatError(
            f"a record with {count} parameter(s) is exactly {size} bytes, got {len(buf)}"
        )
    version, model_id, _, *params, window_start, window_len = struct.unpack(
        f">BBB{count}dII", buf
    )
    return RegimeAnnouncement(
        model=model_id,
        params=params,
        window_start=window_start,
        window_len=window_len,
        version=version,
    )
