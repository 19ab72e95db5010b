import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from stridekit import IndexKind, Series

# On a failure, hypothesis's pytest plugin imports its patch writer, whose
# libcst dependency warns at import (mypy_extensions.TypedDict); under
# -W error that ends the run in INTERNALERROR before the failing test is
# reported. Import it once here, with only that import's warnings silenced.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: nothing to import
        pass

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

NS = 1_000_000_000


def time_series(name, seconds, values=None, **kw):
    """Series with a TIME_NS index given in (possibly fractional) seconds."""
    idx = (np.asarray(seconds, dtype=np.float64) * NS).round().astype(np.int64)
    if values is None:
        values = np.arange(len(idx), dtype=np.float64)
    return Series(name, idx, np.asarray(values), kind=IndexKind.TIME_NS, **kw)


def numeric_series(name, index, values=None, **kw):
    idx = np.asarray(index, dtype=np.float64)
    if values is None:
        values = np.arange(len(idx), dtype=np.float64)
    return Series(name, idx, np.asarray(values), kind=IndexKind.NUMERIC, **kw)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
