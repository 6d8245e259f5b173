"""Integer fields of the public specs: a value that is not a whole number is
a named error, never a silent truncation.  Numeric fields and arrays: a value
that is not a number is a named error, never numpy's or ``float()``'s bare
exception."""

from decimal import Decimal

import numpy as np
import pytest

from jitterfit import (
    EMConfig,
    JitterTrace,
    LabeledTrace,
    ModelParams,
    ParameterDomainError,
    RegimeSpec,
    WindowSpec,
    WireFormatError,
    decode,
    digamma,
    log_pdf,
    log_pdf_many,
    mle_exponential,
    mle_gamma,
)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EMConfig(max_iters=2.7), "max_iters must be an integer, got 2.7"),
        (lambda: WindowSpec(size=3500.9), "window size must be an integer, got 3500.9"),
        (lambda: WindowSpec(size=500, stride=250.5), "stride must be an integer, got 250.5"),
        (
            lambda: RegimeSpec(segments=((ModelParams.exponential(1.0), 5),), seed=1.9),
            "seed must be an integer, got 1.9",
        ),
        (
            lambda: RegimeSpec(segments=((ModelParams.exponential(1.0), 10.5),)),
            "segment length must be an integer, got 10.5",
        ),
        (
            lambda: EMConfig(max_iters=Decimal("2.5")),
            "max_iters must be an integer, got Decimal('2.5')",
        ),
    ],
    ids=["max_iters", "window size", "stride", "seed", "segment length", "decimal"],
)
def test_integer_fields_reject_fractions(build, message):
    with pytest.raises(ParameterDomainError) as caught:
        build()
    assert str(caught.value) == message


_EXPONENTIAL = ModelParams.exponential(1.0)
_TRACE = JitterTrace([1.0, 2.0])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: JitterTrace(["x"]), ParameterDomainError, "jitter samples must be"),
        (lambda: JitterTrace([1j]), ParameterDomainError, "jitter samples must be"),
        (
            lambda: JitterTrace([[1.0, 2.0], [3.0]]),
            ParameterDomainError,
            "jitter samples must be",
        ),
        (lambda: mle_gamma(["x"]), ParameterDomainError, "gamma fit samples must be"),
        (
            lambda: mle_exponential([object()]),
            ParameterDomainError,
            "exponential fit samples must be",
        ),
        (
            lambda: log_pdf_many(_EXPONENTIAL, ["x"]),
            ParameterDomainError,
            "jitter values must be",
        ),
        (lambda: log_pdf(_EXPONENTIAL, "x"), ParameterDomainError, "jitter value must be"),
        (lambda: ModelParams.exponential("x"), ParameterDomainError, "rate must be"),
        (lambda: ModelParams.gamma(None, 1.0), ParameterDomainError, "shape must be"),
        (lambda: ModelParams(5, rate=1.0), ParameterDomainError, "unknown model kind 5"),
        (lambda: LabeledTrace(_TRACE, ["a"]), ParameterDomainError, "truth labels must be"),
        (
            lambda: LabeledTrace(_TRACE, [0.5, 1.7]),
            ParameterDomainError,
            "truth labels must be whole numbers",
        ),
        (
            lambda: LabeledTrace(_TRACE, np.array([0.0, np.nan])),
            ParameterDomainError,
            "truth labels must be whole numbers",
        ),
        (
            lambda: JitterTrace(np.array([1 + 1j, 2])),
            ParameterDomainError,
            "jitter samples must be",
        ),
        (
            lambda: mle_gamma(np.array([1.0, 2.0], dtype=np.complex64)),
            ParameterDomainError,
            "gamma fit samples must be",
        ),
        (
            lambda: log_pdf_many(_EXPONENTIAL, np.array([1 + 0j])),
            ParameterDomainError,
            "jitter values must be",
        ),
        (lambda: digamma("x"), ParameterDomainError, "digamma argument must be"),
        (lambda: decode("zz"), WireFormatError, "a record must be bytes, got str"),
        (lambda: decode(None), WireFormatError, "a record must be bytes, got NoneType"),
    ],
    ids=[
        "trace of text",
        "trace of complex",
        "ragged trace",
        "mle_gamma",
        "mle_exponential",
        "log_pdf_many",
        "log_pdf",
        "rate",
        "shape",
        "kind",
        "truth labels",
        "fractional truth labels",
        "NaN truth labels",
        "trace of complex array",
        "mle_gamma of complex array",
        "log_pdf_many of complex array",
        "digamma",
        "decode text",
        "decode None",
    ],
)
def test_fields_that_are_not_numbers_are_named(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value).startswith(message)
