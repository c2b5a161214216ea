import time

import pytest

from harborth.pipeline import Pipeline
from harborth.poly import poly_Z
from harborth.tower import Tower


@pytest.fixture(scope="session")
def pipeline():
    """The seven-stage derivation, shared across the whole run.

    Uses the default on-disk cache, so a cold first run pays the full
    derivation cost and later runs are fast."""
    pipe = Pipeline(verbose=True)
    start = time.monotonic()
    pipe.run_all()
    pipe.elapsed = time.monotonic() - start
    return pipe


@pytest.fixture(scope="session")
def report(pipeline):
    return pipeline.certify()


@pytest.fixture(scope="session")
def nested_endpoint():
    """b = sqrt(7 - 3*sqrt(5))/4 as an element of the radical tower
    Q(sqrt 5)(sqrt(7 - 3*sqrt 5)), built without the endpoint quartic."""
    tw = Tower(poly_Z([-5, 0, 1], "T"), (2, 3))
    tw.adjoin("r", 7 - 3 * tw.param())
    return tw.gen("r") / 4
