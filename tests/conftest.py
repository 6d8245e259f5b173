import dataclasses

import numpy as np
import pytest

from jitterfit import LabeledTrace, ModelParams, RegimeSpec, generate_synthetic

REFERENCE_SEED = 42
REFERENCE_HALF = 15000


def reference_spec(seed: int = REFERENCE_SEED, half: int = REFERENCE_HALF) -> RegimeSpec:
    """Two-regime recipe: gamma(4, 1) samples, then exponential(rate 1)."""
    return RegimeSpec(
        segments=(
            (ModelParams.gamma(4.0, 1.0), half),
            (ModelParams.exponential(1.0), half),
        ),
        seed=seed,
    )


@pytest.fixture(scope="session")
def reference_labeled() -> LabeledTrace:
    return generate_synthetic(reference_spec())


@pytest.fixture(scope="session")
def reference_trace(reference_labeled):
    return reference_labeled.trace


def assert_built_as_checked(made) -> None:
    """``made``, a frozen dataclass that its maker built without the
    constructor, holds field by field what the constructor makes of the same
    fields, and its arrays are frozen.  A dataclass field is checked the
    same way."""
    cls = type(made)
    checked = cls(**{field.name: getattr(made, field.name) for field in dataclasses.fields(cls)})
    assert vars(made).keys() == vars(checked).keys()
    for name, want in vars(checked).items():
        got = vars(made)[name]
        assert type(got) is type(want), name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert not got.flags.writeable, name
        elif dataclasses.is_dataclass(want):
            assert got is want, name
            assert_built_as_checked(got)
        else:
            assert got == want, name
