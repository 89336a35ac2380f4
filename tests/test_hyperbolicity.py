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
    for _ in range(150):
        x, y, z = rng.sample(region, 3)
        triangle = (_random_side(model, rng, x, y), _random_side(model, rng, y, z), _random_side(model, rng, x, z))
        sides = [EdgePath(model, side) for side in triangle]
        assert hyperbolicity._slimness(sides) == _reference_slack(model, triangle)


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


def test_delta_refuses_a_triple_budget_below_one():
    for budget in (0, -3):
        with pytest.raises(ModelError, match="triple budget must be >= 1"):
            compute_delta(CycleModel(4), triple_budget=budget)
    assert compute_delta(CycleModel(4), triple_budget=1).triple_count == 1


def _recorded_sides(monkeypatch):
    """Every triangle compute_delta measures, as the sides it built."""
    triangles = []

    def recording(sides):
        triangles.append(sides)
        return slimness(sides)

    slimness = hyperbolicity._slimness
    monkeypatch.setattr(hyperbolicity, "_slimness", recording)
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
    assert report.delta == 0 and len(triangles) == report.triple_count > 0
    assert report.exhaustive == ("triple_budget" not in kwargs)
    for a, b, c in triangles:
        if "points" in kwargs:  # an explicit region's sides are paths over the model's own points
            assert all(side.model is model for side in (a, b, c))
            sides = [list(side.points) for side in (a, b, c)]
        else:  # a ball's sides are paths over ids, their places in the ball
            sides = [[side.model.point(v) for v in side.points] for side in (a, b, c)]
        x, y, z = sides[0][0], sides[1][0], sides[2][-1]
        assert {x, y, z} <= set(region)
        assert sides == [model.geodesic(x, y), model.geodesic(y, z), model.geodesic(x, z)]


def test_tree_side_distance_maps_ids_back_to_points(monkeypatch):
    model = FreeGroupModel(2, cap=64)
    triangles = _recorded_sides(monkeypatch)
    compute_delta(model, radius=3, triple_budget=40, seed=1)
    metric = triangles[0][0].model
    ids = {v for triangle in triangles for side in triangle for v in side.points}
    for side in triangles[-1]:
        path = [metric.point(v) for v in side.points]
        for v in ids:
            assert side.distance(v) == min(model.distance(metric.point(v), p) for p in path)


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


def test_tree_delta_walks_branches_longer_than_the_recursion_limit():
    # Z is a line, so the ball of radius 3000 is a BFS tree 3,000 levels deep.
    report = compute_delta(FreeGroupModel(1, cap=4096), radius=3000, triple_budget=20, seed=3)
    assert (report.delta, report.triple_count, report.region["size"]) == (0, 20, 6001)


@pytest.mark.parametrize("n", [*range(3, 81), 161, 485, 1457])
def test_sampled_triples_are_the_ones_random_sample_draws(n):
    # n <= 21 takes Random.sample's pool method, larger n its set method.
    for seed in range(20):
        reference = random.Random(seed)
        triples = hyperbolicity._triples(random.Random(seed), n, 50)
        assert [list(t) for t in triples] == [reference.sample(range(n), 3) for _ in range(50)], seed


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
