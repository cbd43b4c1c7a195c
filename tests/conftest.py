import pathlib
import sys

import numpy as np
import pytest

# allow running the suite without installing the package
_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from slfold.branch import ReductionParams  # noqa: E402
from slfold.grid import GridDomain, ScalarField2D  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_params(rng, n=None, lo=-2.0, hi=3.0) -> ReductionParams:
    """Random levels with min multiplicity one (the nonsingular regime)."""
    if n is None:
        n = int(rng.integers(3, 7))
    while True:
        a = rng.uniform(lo, hi, n - 1)
        if (a == a.min()).sum() == 1:
            return ReductionParams(n, tuple(a))


def constant_field(domain: GridDomain, value: float) -> ScalarField2D:
    return ScalarField2D(domain, np.full((domain.nx, domain.ny), float(value)))
