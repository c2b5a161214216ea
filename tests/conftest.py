import time

import pytest

from harborth.multipoly import MultiPoly
from harborth.pipeline import Pipeline
from harborth.poly import poly_Z
from harborth.quadratic import QuadInt
from harborth.rings import ZS3
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


@pytest.fixture(scope="session")
def rand_bivariate():
    """make(rng, ring, deg_x, deg_T): a random polynomial in ("x", "T")
    over Z or Z[sqrt 3], of exact degrees deg_x in x and deg_T in T, whose
    leading coefficient in x has degree deg_T in T."""
    def make(rng, ring, deg_x, deg_T, bound=6):
        def coeff():
            c = 0
            while not c:
                c = rng.randint(-bound, bound)
            if ring is ZS3:
                return QuadInt(c, rng.randint(-bound, bound))
            return c
        terms = {(i, j): coeff() for i in range(deg_x + 1)
                 for j in range(deg_T + 1) if rng.random() < 0.6}
        terms[(deg_x, deg_T)] = coeff()
        terms[(0, 0)] = coeff()
        return MultiPoly(ring, ("x", "T"), terms).primitive_part()
    return make
