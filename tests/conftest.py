import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphbao import ags
from graphbao.atoms import enumerate_atoms
from graphbao.bao import complex_algebra
from graphbao.graph import complete_graph, cycle_graph, path_graph


@pytest.fixture(scope="session")
def k1_model():
    return ags.build_model(complete_graph(1), 3)


@pytest.fixture(scope="session")
def k2_model():
    return ags.build_model(complete_graph(2), 3)


@pytest.fixture(scope="session")
def k3_model():
    return ags.build_model(complete_graph(3), 3)


@pytest.fixture(scope="session")
def k1_n4():
    return ags.build_model(complete_graph(1), 4)


@pytest.fixture(scope="session")
def p3_model():
    return ags.build_model(path_graph(3), 3)


@pytest.fixture(scope="session")
def p3_algebra():
    return complex_algebra(enumerate_atoms(path_graph(3), 3))


@pytest.fixture(scope="session")
def c3_structure():
    return enumerate_atoms(cycle_graph(3), 3)


@pytest.fixture(scope="session")
def c6_structure():
    return enumerate_atoms(cycle_graph(6), 3, max_atoms=6000)
