"""Distances, geodesics and delta cross-checked against networkx as an independent oracle."""

import itertools
import random
from math import comb

import networkx as nx
import pytest

from freecert import CycleModel, ExplicitGraphModel, all_geodesics, compute_delta


def _torus(m, n):
    """The m x n grid torus with its two translations, and the same graph in networkx."""
    vertex = lambda x, y: (x % m) * n + (y % n)
    adjacency = [
        [vertex(x + 1, y), vertex(x - 1, y), vertex(x, y + 1), vertex(x, y - 1)] for x in range(m) for y in range(n)
    ]
    shift = lambda dx, dy: [vertex(x + dx, y + dy) for x in range(m) for y in range(n)]
    graph = nx.Graph((v, u) for v, row in enumerate(adjacency) for u in row)
    return ExplicitGraphModel(adjacency, [shift(1, 0), shift(0, 1)]), graph


def _explicit(graph):
    """The graph as an ExplicitGraphModel with no automorphisms, and the graph."""
    return ExplicitGraphModel([sorted(graph[v]) for v in range(len(graph))]), graph


CYCLES = [(CycleModel(n), nx.cycle_graph(n)) for n in range(5, 10)]
TORI = [_torus(m, n) for m, n in ((3, 3), (3, 4), (4, 4))]
# Graphs with no symmetry, where the vertex order and the geodesic choices matter.
IRREGULAR = [_explicit(nx.connected_watts_strogatz_graph(11, 4, 0.5, seed=s)) for s in (1, 2, 3)]
GRAPHS = CYCLES + TORI + IRREGULAR
GRAPH_IDS = [f"C{n}" for n in range(5, 10)] + ["torus3x3", "torus3x4", "torus4x4", "ws1", "ws2", "ws3"]


def test_explicit_graph_distances_match_networkx():
    rng = random.Random("networkx-distances")
    graphs = [nx.petersen_graph(), nx.path_graph(7)] + [graph for _, graph in TORI]
    graphs += [nx.connected_watts_strogatz_graph(14, 4, 0.4, seed=rng.randrange(10**6)) for _ in range(6)]
    for graph in graphs:
        model, _ = _explicit(graph)
        for x, lengths in nx.all_pairs_shortest_path_length(graph):
            assert len(lengths) == len(graph)
            for y, d in lengths.items():
                assert model.distance(x, y) == d


@pytest.mark.parametrize("model, graph", GRAPHS, ids=GRAPH_IDS)
def test_all_geodesics_match_networkx(model, graph):
    for x, y in itertools.product(graph, repeat=2):
        paths, truncated = all_geodesics(model, x, y)
        assert not truncated
        assert len({tuple(p) for p in paths}) == len(paths)
        assert sorted(paths) == sorted(nx.all_shortest_paths(graph, x, y))


def _networkx_delta(graph, points):
    """Max over triples of ``points``, geodesic choices and side vertices of the distance to the other sides."""
    length = dict(nx.all_pairs_shortest_path_length(graph))
    delta = 0
    for x, y, z in itertools.combinations(points, 3):
        choices = [list(nx.all_shortest_paths(graph, p, q)) for p, q in ((x, y), (y, z), (x, z))]
        for sides in itertools.product(*choices):
            for i, side in enumerate(sides):
                others = set(sides[i - 1]) | set(sides[i - 2])
                delta = max(delta, max(min(length[v][u] for u in others) for v in side))
    return delta


@pytest.mark.parametrize("model, graph", GRAPHS, ids=GRAPH_IDS)
def test_delta_matches_networkx(model, graph):
    report = compute_delta(model, radius=len(graph))
    assert report.region["size"] == len(graph) and report.exhaustive
    assert report.triple_count == comb(len(graph), 3)
    assert report.delta == _networkx_delta(graph, graph) > 0


@pytest.mark.parametrize("model, graph", GRAPHS, ids=GRAPH_IDS)
def test_delta_on_few_points_matches_networkx(model, graph):
    # On a few points a triangle's worst geodesic choice is not repeated by
    # another triple, so every choice has to be measured.
    rng = random.Random(f"networkx-delta:{len(graph)}:{graph.number_of_edges()}")
    for _ in range(12):
        points = rng.sample(sorted(graph), rng.randint(3, 5))
        assert compute_delta(model, points=points).delta == _networkx_delta(graph, points)
