"""Thin-triangle constant and the slimness measure it runs on each triangle."""

import json
import random
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from freecert import (
    CycleModel,
    EdgePath,
    ExplicitGraphModel,
    FreeGroupModel,
    FreeProductModel,
    ModelError,
    all_geodesics,
    compute_delta,
    hyperbolicity,
)
from freecert.cli import main
from freecert.models import build_model


def test_tree_unique_geodesic():
    m = FreeGroupModel(2, cap=64)
    paths, truncated = all_geodesics(m, (), (1, 2, 1))
    assert len(paths) == 1 and not truncated


def test_a_tree_geodesic_between_points_at_the_cap_is_listed_whole():
    # The walk from (1, 1, 1, 1) would list its neighbours, one of them past
    # cap 4; the tree yields its one geodesic without listing them.
    m = FreeGroupModel(2, cap=4)
    paths, truncated = all_geodesics(m, (1, 1, 1, 1), (2,))
    assert paths == [m.geodesic((1, 1, 1, 1), (2,))] == [[(1, 1, 1, 1), (1, 1, 1), (1, 1), (1,), (), (2,)]]
    assert not truncated


def test_c4_antipodal_two_geodesics():
    paths, truncated = all_geodesics(CycleModel(4), 0, 2)
    assert len(paths) == 2 and not truncated
    assert sorted(paths) == [[0, 1, 2], [0, 3, 2]]


def test_c6_antipodal_two_geodesics_length_three():
    paths, _ = all_geodesics(CycleModel(6), 0, 3)
    assert len(paths) == 2
    assert all(len(p) == 4 for p in paths)


def test_a_geodesic_longer_than_the_recursion_limit_is_walked():
    paths, truncated = all_geodesics(CycleModel(3000), 0, 1500)
    assert not truncated
    assert sorted(paths) == [list(range(1501)), [0] + list(range(2999, 1499, -1))]


def test_a_long_geodesic_delta_runs_sampled(capsys, tmp_path):
    spec = tmp_path / "c3000.json"
    spec.write_text(json.dumps({"kind": "cycle", "n": 3000}))
    assert main(["delta", "--model", str(spec), "--radius", "1500", "--budget", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["region"]["size"], doc["exhaustive"], doc["triple_count"]) == (3000, False, 5)


def test_tree_delta_zero():
    m = FreeGroupModel(2, cap=64)
    report = compute_delta(m, radius=3)
    assert report.delta == 0
    assert report.exhaustive


def test_c4_delta_one():
    report = compute_delta(CycleModel(4), radius=4)
    assert report.delta == 1
    assert report.exhaustive


def test_single_point_region_delta_zero():
    m = FreeGroupModel(2, cap=64)
    report = compute_delta(m, points=[()])
    assert report.delta == 0 and report.triple_count == 0


def test_delta_monotone_in_region():
    # A larger region can only require a larger (or equal) constant.
    m = CycleModel(8)
    small = compute_delta(m, points=[0, 1, 2])
    full = compute_delta(m, radius=8)
    assert small.delta <= full.delta


def test_check_slim_c4_witness():
    m = CycleModel(4)
    # Sides (v0,v1), (v1,v2) and the far arc v0-v3-v2: v3 is 1 away.
    tri = ([0, 1], [1, 2], [0, 3, 2])
    assert hyperbolicity._slimness([EdgePath(m, side) for side in tri]) == (1, 3)
    assert _scanned_slack(m, tri) == 1  # v3 is on neither other side, so the scan hands it to _slimness


def test_sampled_mode_flags_non_exhaustive():
    m = FreeGroupModel(2, cap=64)
    report = compute_delta(m, radius=4, triple_budget=50, seed=3)
    assert not report.exhaustive
    assert report.triple_count == 50
    assert report.delta == 0


def _torus(m=4, n=4, label_seed=None):
    """m x n grid torus with its two translations; ``label_seed`` shuffles the vertex labels."""
    label = list(range(m * n))
    if label_seed is not None:
        random.Random(label_seed).shuffle(label)
    vertex = lambda x, y: label[(x % m) * n + (y % n)]
    adjacency, shift_x, shift_y = ([None] * (m * n) for _ in range(3))
    for x, y in product(range(m), range(n)):
        v = vertex(x, y)
        adjacency[v] = [vertex(x + 1, y), vertex(x - 1, y), vertex(x, y + 1), vertex(x, y - 1)]
        shift_x[v], shift_y[v] = vertex(x + 1, y), vertex(x, y + 1)
    return ExplicitGraphModel(adjacency, [shift_x, shift_y])


def _scanned_slack(metric, triangle):
    """The tree scan on a triangle given as three point sequences over ``metric``."""
    return hyperbolicity._tripod_slack(metric, *((tuple(side), frozenset(side)) for side in triangle))


def _reference_slack(model, triangle):
    """The all-pairs formula: each side vertex off the union of the other sides, min over that union."""
    worst, witness = 0, triangle[0][0]
    for i, side in enumerate(triangle):
        union = set(triangle[i - 1]) | set(triangle[i - 2])
        for v in side:
            if v in union:
                continue
            d = min(model.distance(v, u) for u in union)
            if d > worst:
                worst, witness = d, v
    return worst, witness


def _random_side(model, rng, x, y):
    """A geodesic from x to y, or a random edge walk from x (with stays) closed by a geodesic to y."""
    if rng.random() < 0.5:
        return rng.choice(all_geodesics(model, x, y)[0])
    path = [x]
    for _ in range(rng.randint(1, 6)):
        here = path[-1]
        path.append(here if rng.random() < 0.15 else rng.choice(model.neighbors(here)))
    return path + model.geodesic(path[-1], y)[1:]


@pytest.mark.parametrize(
    "model",
    [FreeGroupModel(2, cap=64), CycleModel(7), _torus()],
    ids=["free-group", "cycle", "torus"],
)
def test_check_slim_matches_all_pairs_reference(model):
    """The slimness measure compute_delta runs, on edge-path sides, against the all-pairs formula."""
    rng = random.Random(f"slim:{model.kind}")
    region = model.ball(model.basepoint(), 3)
    fallbacks = 0
    for _ in range(150):
        x, y, z = rng.sample(region, 3)
        triangle = (_random_side(model, rng, x, y), _random_side(model, rng, y, z), _random_side(model, rng, x, z))
        sides = [EdgePath(model, side) for side in triangle]
        slack, witness = hyperbolicity._slimness(sides)
        assert (slack, witness) == _reference_slack(model, triangle)
        # The tree scan measures a triangle that is not a tripod, here a
        # random edge walk or a graph geodesic, by the same rule.
        assert _scanned_slack(model, triangle) == slack
        fallbacks += slack > 0
    assert fallbacks > 0


def test_tree_scan_measures_a_triangle_that_is_not_a_tripod_over_ids():
    """The scan's fallback on ball ids: EdgePaths over _TreeSides, measured as on the points."""
    model = FreeGroupModel(2, cap=64)
    parents = model.ball_parents((), 6)
    tree, place = hyperbolicity._TreeSides(model, parents), {p: i for i, p in enumerate(parents)}
    rng = random.Random("slim:free-group")
    region = model.ball((), 3)
    measured = 0
    for _ in range(150):
        x, y, z = rng.sample(region, 3)
        triangle = (_random_side(model, rng, x, y), _random_side(model, rng, y, z), _random_side(model, rng, x, z))
        if not all(v in place for side in triangle for v in side):
            continue
        slack = _reference_slack(model, triangle)[0]
        assert _scanned_slack(tree, [[place[v] for v in side] for side in triangle]) == slack
        measured += slack > 0
    assert measured > 50


def test_delta_measures_each_side_once(monkeypatch):
    calls = []

    def counted(model, x, y, *args, **kwargs):
        calls.append((x, y))
        return all_geodesics(model, x, y, *args, **kwargs)

    monkeypatch.setattr(hyperbolicity, "all_geodesics", counted)
    report = compute_delta(_torus(), radius=4)
    assert report.exhaustive and report.region["size"] == 16
    assert len(calls) == comb(16, 2) == len(set(calls))


def test_delta_takes_the_worst_choice_of_a_truncated_geodesic_set():
    model = _torus(6, 6)
    # 0 and 21 = (3, 3) are antipodal: 80 geodesics, cut at the cap of 64.
    points = [0, 21, 1, 8, 15]
    paths, truncated = all_geodesics(model, 0, 21)
    assert truncated and len(paths) == 64
    report = compute_delta(model, points=points)
    assert report.exhaustive is False
    worst = first = 0
    for i, j, k in combinations(range(len(points)), 3):
        x, y, z = points[i], points[j], points[k]
        choices = [all_geodesics(model, p, q)[0] for p, q in ((x, y), (y, z), (x, z))]
        worst = max(worst, max(_reference_slack(model, triangle)[0] for triangle in product(*choices)))
        first = max(first, _reference_slack(model, [sides[0] for sides in choices])[0])
    assert report.delta == worst > first  # the first geodesic of each side is not the worst choice


def _grid(m, n):
    """The m x n grid graph, (x, y) numbered x * n + y, with no automorphisms given."""
    steps = ((-1, 0), (0, -1), (0, 1), (1, 0))
    return ExplicitGraphModel(
        [
            [(x + dx) * n + y + dy for dx, dy in steps if 0 <= x + dx < m and 0 <= y + dy < n]
            for x, y in product(range(m), range(n))
        ]
    )


def _measured_corners(monkeypatch):
    """The corners of every triangle compute_delta hands to :func:`_slimness`, each as a frozenset."""
    measured = []

    def ends(side):
        return side.ends if isinstance(side, hyperbolicity._GeodesicSet) else (side.points[0], side.points[-1])

    def measuring(sides):
        measured.append(frozenset(ends(sides[0]) + ends(sides[1])))
        return slimness(sides)

    slimness = hyperbolicity._slimness
    monkeypatch.setattr(hyperbolicity, "_slimness", measuring)
    return measured


def test_graph_delta_measures_only_triangles_that_can_beat_it(monkeypatch):
    # The 5x5 torus has delta 2 = floor(diameter / 2): once a triangle
    # reaches it, no other's half longest side can beat it.
    measured = _measured_corners(monkeypatch)
    report = compute_delta(_torus(5, 5), radius=4)
    assert (report.delta, report.exhaustive, report.triple_count) == (2, True, 2300)
    assert 0 < len(measured) < 23


def test_a_graph_triangle_left_unmeasured_cannot_beat_delta(monkeypatch):
    # On the 3x6 grid delta is 2 and the diameter 7, so pruning is partial.
    model, slimness = _grid(3, 6), hyperbolicity._slimness
    measured = _measured_corners(monkeypatch)
    report = compute_delta(model, radius=7)
    assert (report.delta, report.exhaustive, report.triple_count) == (2, True, 816)
    assert 0 < len(measured) < 816
    for x, y, z in combinations(range(18), 3):
        if frozenset((x, y, z)) in measured:
            continue
        longest = max(model.distance(p, q) for p, q in ((x, y), (y, z), (x, z)))
        assert longest // 2 <= report.delta
        sides = [hyperbolicity._GeodesicSet(model, all_geodesics(model, p, q)[0]) for p, q in ((x, y), (y, z), (x, z))]
        assert slimness(sides)[0] <= report.delta  # and so, measured, it does not


def test_a_sampled_tree_ball_scans_every_triangle(monkeypatch):
    calls = []
    slack = hyperbolicity._TreeSides.slack
    monkeypatch.setattr(hyperbolicity._TreeSides, "slack", lambda self, *ids: calls.append(ids) or slack(self, *ids))
    report = compute_delta(FreeGroupModel(2, cap=64), radius=5, triple_budget=300, seed=4)
    assert (report.delta, report.exhaustive) == (0, False)
    assert len(calls) == report.triple_count == 300


def test_delta_refuses_a_triple_budget_below_one():
    for budget in (0, -3):
        with pytest.raises(ModelError, match="triple budget must be >= 1"):
            compute_delta(CycleModel(4), triple_budget=budget)
    assert compute_delta(CycleModel(4), triple_budget=1).triple_count == 1


def _recorded_sides(monkeypatch):
    """Every triangle compute_delta measures, as (metric, its three sides' point tuples).

    A tree ball's triangle is the three id tuples :func:`_tripod_slack`
    scans, over the ball's :class:`_TreeSides`; any other is the points of
    the three sides :func:`_slimness` measures, over the model.
    """
    triangles = []

    def scanning(metric, *sides):
        triangles.append((metric, [ids for ids, _ in sides]))
        return tripod_slack(metric, *sides)

    def measuring(sides):
        triangles.append((sides[0].model, [side.points for side in sides]))
        return slimness(sides)

    tripod_slack, slimness = hyperbolicity._tripod_slack, hyperbolicity._slimness
    monkeypatch.setattr(hyperbolicity, "_tripod_slack", scanning)
    monkeypatch.setattr(hyperbolicity, "_slimness", measuring)
    return triangles


@pytest.mark.parametrize(
    "model, kwargs",
    [
        (FreeGroupModel(2, cap=64), {"radius": 4, "triple_budget": 300, "seed": 5}),
        (FreeGroupModel(2, cap=64), {"radius": 2}),
        (FreeProductModel(cap=64), {"radius": 5, "triple_budget": 300, "seed": 2}),
        (FreeGroupModel(2, cap=64), {"points": [(1, 2), (), (1, 2, 1), (-2, 1), (1, -2), (1, 2), (2, 2, 2)]}),
    ],
    ids=["f2-sampled", "f2-exhaustive", "zxz2-sampled", "explicit-points"],
)
def test_tree_sides_are_the_model_geodesics_between_their_corners(monkeypatch, model, kwargs):
    triangles = _recorded_sides(monkeypatch)
    report = compute_delta(model, **kwargs)
    region = kwargs.get("points") or model.ball(model.basepoint(), kwargs["radius"])
    assert report.delta == 0 and report.triple_count > 0
    assert report.exhaustive == ("triple_budget" not in kwargs)
    if "points" in kwargs:
        # An explicit region's triangle is measured only if half its longest
        # side beats delta, here 0: the one on (1, 2), (1, 2, 1) and the
        # repeated (1, 2) has sides of length 1 and 0 and is not.
        measured = [tuple(map(tuple, triangle)) for _, triangle in triangles]
        for x, y, z in combinations(region, 3):
            sides = tuple(tuple(model.geodesic(p, q)) for p, q in ((x, y), (y, z), (x, z)))
            assert (sides in measured) == ((max(map(len, sides)) - 1) // 2 > report.delta)
        assert len(triangles) == report.triple_count - 1 == 34
    else:  # a tree ball scans every triangle
        assert len(triangles) == report.triple_count
    for metric, triangle in triangles:
        if "points" in kwargs:  # an explicit region's sides are paths over the model's own points
            assert metric is model
            sides = [list(side) for side in triangle]
        else:  # a ball's sides are tuples of ids, their places in the ball
            assert isinstance(metric, hyperbolicity._TreeSides)
            assert all(type(side) is tuple and all(type(v) is int for v in side) for side in triangle)
            sides = [[metric.point(v) for v in side] for side in triangle]
        x, y, z = sides[0][0], sides[1][0], sides[2][-1]
        assert {x, y, z} <= set(region)
        assert sides == [model.geodesic(x, y), model.geodesic(y, z), model.geodesic(x, z)]


def test_tree_side_distance_maps_ids_back_to_points(monkeypatch):
    model = FreeGroupModel(2, cap=64)
    triangles = _recorded_sides(monkeypatch)
    compute_delta(model, radius=3, triple_budget=40, seed=1)
    assert len(triangles) == 40
    metric = triangles[0][0]
    ids = {v for _, triangle in triangles for side in triangle for v in side}
    for side in triangles[-1][1]:
        # The edge path the scan's fallback would build on these ids.
        edges = EdgePath(metric, side)
        path = [metric.point(v) for v in side]
        for v in ids:
            assert metric.distance(v, side[0]) == model.distance(metric.point(v), path[0])
            assert edges.distance(v) == min(model.distance(metric.point(v), p) for p in path)


def test_sampled_tree_delta_builds_one_geodesic_per_region_point(monkeypatch):
    model = FreeGroupModel(2, cap=64)
    calls = []
    geodesic = model.geodesic

    def counted(x, y):
        calls.append(y)
        return geodesic(x, y)

    monkeypatch.setattr(model, "geodesic", counted)
    report = compute_delta(model, radius=4, triple_budget=500, seed=7)
    assert not report.exhaustive and report.triple_count == 500 and report.region["size"] == 161
    assert calls == []  # a ball's branches are read off its BFS parents
    points = model.ball((), 4)[::3] + [(1, 2, 1), (1, 2), (1,), (1, 2, 1)]
    report = compute_delta(model, points=points, triple_budget=500, seed=7)
    assert report.delta == 0 and report.triple_count == 500


@pytest.mark.parametrize("kwargs, exhaustive, count", [({}, True, 1540), ({"triple_budget": 400, "seed": 3}, False, 400)])
def test_an_explicit_tree_region_with_points_at_the_cap_is_slim(kwargs, exhaustive, count):
    # Sides ending at a point of cap length are the model's geodesics, built
    # without reading a neighbour past the cap.
    model = FreeGroupModel(2, cap=4)
    points = model.ball((), 2) + [(1, 1, 1, 1), (2, 2, 2, 2), (-1, 2, -1, 2), (1, 2, 1), (1, 1, 1, 1)]
    report = compute_delta(model, points=points, **kwargs)
    assert (report.delta, report.exhaustive, report.triple_count) == (0, exhaustive, count)


def test_tree_delta_walks_branches_longer_than_the_recursion_limit(monkeypatch):
    # Z is a line, so the ball of radius 3000 is a BFS tree 3,000 levels deep.
    built = []

    class Recorded(hyperbolicity._TreeSides):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self._branches)

    monkeypatch.setattr(hyperbolicity, "_TreeSides", Recorded)
    report = compute_delta(FreeGroupModel(1, cap=4096), radius=3000, triple_budget=20, seed=3)
    assert (report.delta, report.triple_count, report.region["size"]) == (0, 20, 6001)
    # Branches are built on first use: only the drawn ids', each of up to
    # 3,001 ids, never one per point of the ball.
    drawn = {v for triple in hyperbolicity._triples(random.Random(3), 6001, 20) for v in triple}
    (branches,) = built
    assert {v for v, branch in enumerate(branches) if branch is not None} == drawn
    assert len(drawn) <= 60


@pytest.mark.parametrize("n", [*range(3, 81), 161, 485, 1457])
def test_sampled_triples_are_the_ones_random_sample_draws(n):
    # n <= 21 takes Random.sample's pool method, larger n its set method.
    for seed in range(20):
        reference = random.Random(seed)
        triples = hyperbolicity._triples(random.Random(seed), n, 50)
        assert [list(t) for t in triples] == [reference.sample(range(n), 3) for _ in range(50)], seed


def test_sampled_tree_reports_match_their_golden_bytes():
    # tests/data/delta_tree.json holds compute_delta(...).to_doc() on tree
    # balls of F2, F3 and Z * Z/2 (cap 64) at radii 3-6, budgets 1, 300 and
    # 900 and seeds 0-2, and one refusal at cap 5, recorded while each
    # sampled tree triangle still built an EdgePath per side.  The test only
    # reads it.
    golden = json.loads((Path(__file__).parent / "data/delta_tree.json").read_text())
    assert len(golden) == 109
    models = {"f2": lambda cap: FreeGroupModel(2, cap=cap), "f3": lambda cap: FreeGroupModel(3, cap=cap),
              "zxz2": lambda cap: FreeProductModel(cap=cap)}
    for case in golden:
        model = models[case["model"]](case["cap"])
        kwargs = dict(radius=case["radius"], triple_budget=case["triple_budget"], seed=case["seed"])
        if "error" in case:
            with pytest.raises(ModelError) as refusal:
                compute_delta(model, **kwargs)
            assert f"{refusal.type.__name__}: {refusal.value}" == case["error"], case
        else:
            assert json.dumps(compute_delta(model, **kwargs).to_doc()) == json.dumps(case["doc"]), case


def test_sampled_reports_match_their_golden_bytes():
    # tests/data/delta_sampled.json holds compute_delta(...).to_doc() on
    # sampled tori with shuffled vertex labels and on cycles, recorded while
    # each triple was still drawn by Random.sample.  The test only reads it.
    golden = json.loads((Path(__file__).parent / "data/delta_sampled.json").read_text())
    assert len(golden) == 56
    for case in golden:
        if "cycle" in case:
            model = CycleModel(case["cycle"])
        else:
            model = _torus(*case["torus"], label_seed=case["seed"])
        report = compute_delta(model, radius=case["radius"], triple_budget=case["triple_budget"], seed=case["seed"])
        assert json.dumps(report.to_doc()) == json.dumps(case["doc"]), case


def test_graph_reports_match_their_golden_bytes():
    # tests/data/delta_graph.json holds compute_delta(...).to_doc() on graph
    # models, recorded while every graph triangle was still measured: cycles
    # 3-16 at every radius (exhaustive, and sampled at budgets 1 and 30),
    # tori 3x3 to 5x5 relabelled as the benchmark relabels them, the 6x6
    # torus (truncated at the geodesic cap), three Watts-Strogatz graphs, the
    # 3x6 grid, a 7-cycle with two pendant paths, and explicit regions with a
    # repeated point.  The test only reads it.
    golden = json.loads((Path(__file__).parent / "data/delta_graph.json").read_text())
    assert len(golden) == 41 and sum(len(graph["runs"]) for graph in golden) == 331
    runs = [run for graph in golden for run in graph["runs"]]
    assert any(not run["doc"]["exhaustive"] and "triple_budget" not in run["kwargs"] for run in runs)  # truncated
    for graph in golden:
        model = build_model(graph["spec"])
        for run in graph["runs"]:
            report = compute_delta(model, **run["kwargs"])
            assert json.dumps(report.to_doc()) == json.dumps(run["doc"]), (graph["spec"], run)


def _geodesic_sets():
    """(model, vertex count, set): every side of the 4x4 torus, and the truncated set between antipodes of the 6x6."""
    torus = _torus()
    for x, y in combinations(range(16), 2):
        yield torus, 16, hyperbolicity._GeodesicSet(torus, all_geodesics(torus, x, y)[0])
    torus = _torus(6, 6)
    paths, truncated = all_geodesics(torus, 0, 21)
    assert truncated and len(paths) == 64
    yield torus, 36, hyperbolicity._GeodesicSet(torus, paths)


def test_geodesic_set_distance_is_the_farthest_choice():
    stopped = scanned = 0
    for model, size, side in _geodesic_sets():
        scans = []
        for path in side.paths:
            path.distance = lambda v, measure=path.distance: scans.append(v) or measure(v)
        for v in range(size):
            far = max(min(model.distance(v, p) for p in path.points) for path in side.paths)
            scans.clear()
            assert side.distance(v) == far
            count = len(scans)
            assert side.distance(v) == far and len(scans) == count  # memoised: no second scan
            stopped += count < len(side.paths)  # a choice reached the nearer end's distance
            scanned += count == len(side.paths) > 1
    assert stopped > 0 and scanned > 0
