"""Integer fields of the public specs: a value that is not a whole number is
a named error, never a silent truncation."""

from decimal import Decimal

import pytest

from jitterfit import EMConfig, ModelParams, ParameterDomainError, RegimeSpec, WindowSpec


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
