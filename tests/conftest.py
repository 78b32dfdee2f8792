import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no per-example
# deadline, so timing noise on a loaded machine cannot fail them.
settings.register_profile("pathdist", derandomize=True, deadline=None)
settings.load_profile("pathdist")

from pathdist.graph import EmbeddedGraph
from pathdist.experiments import grid_graph


@pytest.fixture
def grid6() -> EmbeddedGraph:
    """The controlled-study grid: vertices on even integers in [0, 10]^2."""
    return grid_graph(10.0, 2.0)


@pytest.fixture
def star4() -> EmbeddedGraph:
    """Degree-4 vertex with four perpendicular unit-10 straight edges."""
    return EmbeddedGraph(
        [(0, (0.0, 0.0)), (1, (10.0, 0.0)), (2, (0.0, 10.0)), (3, (-10.0, 0.0)), (4, (0.0, -10.0))],
        [(0, (0, 1)), (1, (0, 2)), (2, (0, 3)), (3, (0, 4))],
    )


@pytest.fixture
def tee() -> EmbeddedGraph:
    """T-junction: a horizontal street with a stub going up at its middle."""
    return EmbeddedGraph(
        [("w", (-10.0, 0.0)), ("c", (0.0, 0.0)), ("e", (10.0, 0.0)), ("n", (0.0, 10.0))],
        [("we", ("w", "c")), ("ce", ("c", "e")), ("cn", ("c", "n"))],
    )
