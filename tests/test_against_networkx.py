"""Distances, geodesics and delta cross-checked against networkx as an independent oracle."""

import itertools
import random
from collections import deque
from math import comb

import networkx as nx
import pytest

from freecert import CycleModel, ExplicitGraphModel, ModelError, all_geodesics, compute_delta


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


def _tailed_cycle():
    """A 7-cycle with a path of 5 edges hung off vertex 0 and one of 6 off vertex 3."""
    graph = nx.cycle_graph(7)
    nx.add_path(graph, [0, *range(7, 12)])
    nx.add_path(graph, [3, *range(12, 18)])
    return graph


CYCLES = [(CycleModel(n), nx.cycle_graph(n)) for n in range(5, 10)]
TORI = [_torus(m, n) for m, n in ((3, 3), (3, 4), (4, 4))]
# Graphs with no symmetry, where the vertex order and the geodesic choices matter.
IRREGULAR = [_explicit(nx.connected_watts_strogatz_graph(11, 4, 0.5, seed=s)) for s in (1, 2, 3)]
# Every graph above has delta = floor(diameter / 2), so a triangle reaching
# it ends the measuring; on these two delta is lower, so compute_delta
# measures only part of their triangles and a bound that skips too many shows.
PARTIAL = [_explicit(nx.convert_node_labels_to_integers(nx.grid_2d_graph(3, 6))), _explicit(_tailed_cycle())]
GRAPHS = CYCLES + TORI + IRREGULAR + PARTIAL
GRAPH_IDS = [f"C{n}" for n in range(5, 10)] + ["torus3x3", "torus3x4", "torus4x4", "ws1", "ws2", "ws3"]
GRAPH_IDS += ["grid3x6", "tailed-C7"]


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
    # Two components: a 5-cycle and a path of 4, each row read off its own BFS.
    graph = nx.disjoint_union(nx.cycle_graph(5), nx.path_graph(4))
    model, _ = _explicit(graph)
    components = {v: i for i, part in enumerate(nx.connected_components(graph)) for v in part}
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    for x, y in itertools.product(graph, repeat=2):
        if components[x] == components[y]:
            assert model.distance(x, y) == lengths[x][y]
        else:
            with pytest.raises(ModelError, match="points lie in different components"):
                model.distance(x, y)


@pytest.mark.parametrize("model, graph", GRAPHS, ids=GRAPH_IDS)
def test_all_geodesics_match_networkx(model, graph):
    for x, y in itertools.product(graph, repeat=2):
        paths, truncated = all_geodesics(model, x, y)
        assert not truncated
        assert len({tuple(p) for p in paths}) == len(paths)
        assert sorted(paths) == sorted(nx.all_shortest_paths(graph, x, y))


def _bfs_geodesic(model, x, y):
    """The BFS-parent geodesic, neighbours taken in the model's order: the reference for ``geodesic``."""
    if x == y:
        return [x]
    parent = {x: None}
    frontier = deque([x])
    while frontier:
        p = frontier.popleft()
        for q in model.neighbors(p):
            if q not in parent:
                parent[q] = p
                if q == y:
                    path = [y]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                frontier.append(q)
    raise AssertionError("points lie in different components")


# More graphs for the first geodesic: small cycles, a torus with shuffled
# vertex labels, and seeded irregular graphs.
FIRST_GEODESIC_GRAPHS = [(CycleModel(n), nx.cycle_graph(n)) for n in (3, 4, 13)] + [
    _explicit(nx.relabel_nodes(graph, dict(zip(graph, random.Random(5).sample(range(len(graph)), len(graph))))))
    for _, graph in TORI
] + [_explicit(nx.connected_watts_strogatz_graph(14, 4, 0.4, seed=s)) for s in range(10, 20)]


@pytest.mark.parametrize("model, graph", GRAPHS + FIRST_GEODESIC_GRAPHS)
def test_geodesic_is_the_bfs_parent_geodesic(model, graph):
    for x, y in itertools.product(graph, repeat=2):
        path = model.geodesic(x, y)
        assert path == _bfs_geodesic(model, x, y)
        assert len(path) - 1 == nx.shortest_path_length(graph, x, y)


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


@pytest.mark.parametrize("model, graph", PARTIAL, ids=GRAPH_IDS[-2:])
def test_delta_is_below_half_the_diameter(model, graph):
    assert compute_delta(model, radius=len(graph)).delta < nx.diameter(graph) // 2


@pytest.mark.parametrize("model, graph", GRAPHS, ids=GRAPH_IDS)
def test_delta_on_few_points_matches_networkx(model, graph):
    # On a few points a triangle's worst geodesic choice is not repeated by
    # another triple, so every choice has to be measured.
    rng = random.Random(f"networkx-delta:{len(graph)}:{graph.number_of_edges()}")
    for _ in range(12):
        points = rng.sample(sorted(graph), rng.randint(3, 5))
        assert compute_delta(model, points=points).delta == _networkx_delta(graph, points)
