import numpy as np
import pytest
from hypothesis import settings

from envelope import geometry as geom

# property tests draw the same bounded set of examples on every run and
# replay no saved failures, so every run of the suite tests the same inputs
settings.register_profile("envelope", derandomize=True, database=None,
                          max_examples=25, deadline=None)
settings.load_profile("envelope")


@pytest.fixture(scope="session")
def annulus():
    return geom.DomainSpec(geom.circle(0j, 2.0), (geom.circle(0j, 0.5),))


@pytest.fixture(scope="session")
def two_hole():
    return geom.DomainSpec(
        geom.circle(1.5 + 0j, 4.0),
        (geom.circle(0j, 0.5), geom.circle(3 + 0j, 0.5)))


@pytest.fixture(scope="session")
def slab():
    """A 2.6 x 0.2 slab hole 0.3 from a circle hole: no circle separates the
    slab from the rest of the boundary."""
    return geom.DomainSpec(geom.circle(0j, 3.0), (
        geom.polygon([-1.3 - 0.1j, 1.3 - 0.1j, 1.3 + 0.1j, -1.3 + 0.1j]),
        geom.circle(0.57j, 0.17)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
