import pytest

from pgblock.gf import Field
from pgblock.pgkernel import GeometryContext
from pgblock.search import min_blocking_search


@pytest.fixture(scope="session")
def pg22():
    return GeometryContext(Field(2), 2)


@pytest.fixture(scope="session")
def pg23():
    return GeometryContext(Field(3), 2)


@pytest.fixture(scope="session")
def pg24():
    return GeometryContext(Field(2, 2), 2)


@pytest.fixture(scope="session")
def pg25():
    return GeometryContext(Field(5), 2)


@pytest.fixture(scope="session")
def pg32():
    return GeometryContext(Field(2), 3)


@pytest.fixture(scope="session")
def pg33():
    return GeometryContext(Field(3), 3)


@pytest.fixture(scope="session")
def pg42():
    return GeometryContext(Field(2), 4)


@pytest.fixture(scope="session")
def pg32_minima(pg32):
    """All minimum blocking sets of PG(3,2) w.r.t. lines; shared by the
    property tests (the acceptance suite runs its own timed search)."""
    return min_blocking_search(pg32, 1, 6)
