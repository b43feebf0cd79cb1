import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from latsweep.assembly import assemble
from latsweep.generators import (
    build_example1,
    build_tri_grid_with_hole,
    build_triangular_periodic,
)


@pytest.fixture(scope="session")
def example1():
    definition, loads = build_example1()
    return definition, loads, assemble(definition)


@pytest.fixture(scope="session")
def grid_with_hole():
    definition, loads = build_tri_grid_with_hole()
    return definition, loads, assemble(definition)


@pytest.fixture(scope="session")
def periodic_patch():
    definition, loads = build_triangular_periodic(4, 4)
    return definition, loads, assemble(definition)


@pytest.fixture(scope="session")
def periodic_8x8():
    definition, loads = build_triangular_periodic(8, 8)
    return definition, loads, assemble(definition)
