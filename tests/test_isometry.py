"""Translation lengths, hyperbolicity verdicts, axes, overlaps, independence."""

import copy
import json
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import freecert.isometry
from freecert import (
    ActionModel,
    AxisData,
    AxisPair,
    CapExceeded,
    CycleModel,
    CyclicFreeProductModel,
    EdgePath,
    ExplicitGraphModel,
    FreeGroupModel,
    FreeProductModel,
    IsometryProfile,
    ModelError,
    OverlapReport,
    classify,
    displacement_power,
    independence_test,
    overlap_diameter,
    quasi_axis,
)
from freecert.cli import main
from freecert.isometry import invariance_defect, overlap_points, window_rays


@pytest.fixture(scope="module")
def f2():
    return FreeGroupModel(2, cap=512)


@pytest.fixture(scope="module")
def zz2():
    return FreeProductModel(cap=256)


# -- translation length -------------------------------------------------------


def test_translation_length_examples(f2):
    assert classify(f2, (1,)).tr == 1
    assert classify(f2, (1, 2, -1)).tr == 1
    assert classify(f2, ()).tr == 0


def test_translation_length_torsion(zz2):
    assert classify(zz2, (2,)).tr == 0
    assert classify(zz2, (1, 2, -1)).tr == 0  # conjugate of s


def test_translation_length_homogeneous(f2):
    rng = random.Random(11)
    for _ in range(12):
        w = f2.canon(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))))
        tr = classify(f2, w).tr
        for k in range(1, 5):
            assert classify(f2, f2.power(w, k)).tr == k * tr


def test_translation_length_finite_model_is_exact_zero():
    assert classify(CycleModel(6), (1,)).tr == 0  # finite model: every orbit is bounded


class _InfiniteLine(ActionModel):
    """Z acting on the line by translation, with no exact translation length of its own."""

    def canon(self, word):
        e = sum(word)
        return (1,) * e if e >= 0 else (-1,) * -e


def test_an_infinite_model_without_an_exact_length_is_refused():
    # No silent verdict: the model must give the length, or classify raises.
    with pytest.raises(NotImplementedError, match="_InfiniteLine has no exact translation length"):
        classify(_InfiniteLine(), (1,))
    with pytest.raises(NotImplementedError, match="_InfiniteLine has no axis base point"):
        _InfiniteLine().min_displacement_point((1,))
    with pytest.raises(NotImplementedError, match="_InfiniteLine has no axis rays"):
        _InfiniteLine().axis_rays((1,), 1)


# -- classification -----------------------------------------------------------


def test_classify_generator_criterion_power(f2):
    p = classify(f2, (1,))
    assert p.tr == 1
    assert displacement_power(f2, (1,), 0) == 100


def test_displacement_power_stops_once_every_sample_point_outgrows_the_cap():
    # a^100 is the first power that passes at delta = 0; below cap 100 every
    # sampled point outgrows the cap first.
    assert displacement_power(FreeGroupModel(2, cap=99), (1,), 0) is None
    assert displacement_power(FreeGroupModel(2, cap=100), (1,), 0) == 100


def test_classify_small_power_cap_still_yes(f2):
    # The verdict never depended on the power the displacement search reaches.
    assert classify(f2, (1,)).tr > 0
    # At delta = 1 the criterion needs n >= 200, past the search's POWER_CAP of 128.
    assert displacement_power(f2, (1,), 1) is None


def test_classify_torsion_is_no(zz2):
    p = classify(zz2, (2,))
    assert p.tr == 0
    assert displacement_power(zz2, (2,), 0) is None


def test_classify_identity_is_no(f2):
    assert classify(f2, ()).tr == 0


def test_a_rotation_of_a_large_finite_model_is_not_hyperbolic():
    # The rotation's order is beyond POWER_CAP; on the 500-cycle the displacement
    # criterion even passes at delta 0 (n = 100), yet the exact length 0 says "no".
    assert displacement_power(CycleModel(500), (1,), 0) == 100
    n = 300
    cycle = ExplicitGraphModel([[(v - 1) % n, (v + 1) % n] for v in range(n)], [[(v + 1) % n for v in range(n)]])
    for model in (CycleModel(500), cycle):
        p = classify(model, (1,))
        assert (p.tr, p.to_doc()["hyperbolic"]) == (0, "no")


def test_exact_length_verdict_matches_the_displacement_criterion(f2, zz2):
    # On a tree, tau > 0 iff the criterion finds a power: 161 words of F2 and 46 of Z * Z/2.
    for model, size in ((f2, 161), (zz2, 46)):
        words = model.group_ball(4)
        assert len(words) == size
        for g in words:
            p = classify(model, g)
            found = displacement_power(model, g, 0) is not None
            assert (p.to_doc()["hyperbolic"] == "yes") == (p.tr > 0) == found, g


# -- axes ----------------------------------------------------------------------


def test_axis_of_generator(f2):
    axis = quasi_axis(f2, classify(f2, (1,)), window=3, delta=0)
    assert axis.mode == "geodesic-axis"
    assert axis.invariance_defect == 0
    assert axis.path == tuple((1,) * k if k >= 0 else (-1,) * (-k) for k in range(-3, 4))


def test_axis_of_conjugate(f2):
    axis = quasi_axis(f2, classify(f2, (1, 2, -1)), window=2, delta=0)
    assert axis.mode == "geodesic-axis"
    expected = {f2.compose((1,), (2,) * k if k >= 0 else (-2,) * (-k)) for k in range(-2, 3)}
    assert expected <= set(axis.path)


def test_axis_of_ab(f2):
    axis = quasi_axis(f2, classify(f2, (1, 2)), window=2, delta=0)
    assert axis.mode == "geodesic-axis"
    assert axis.step == 2
    for p in ((), (1,), (1, 2), (1, 2, 1), (-2,)):
        assert p in axis.path


def _per_power_axis(model, g, window):
    """The axis as built from one fresh power of g per orbit point, every
    image measured: the reference for the stepped orbit."""
    pstar = model.min_displacement_point(g)
    step = model.distance(pstar, model.apply(g, pstar))
    orbit = [model.apply(model.power(g, k), pstar) for k in range(-window, window + 1)]
    path = []
    for u, v in zip(orbit, orbit[1:]):
        seg = model.geodesic(u, v)
        path.extend(seg if not path else seg[1:])
    edge_path = EdgePath(model, path)
    margin = max(step, 1)
    interior = path[margin:-margin] if len(path) > 2 * margin else path
    defect = max(edge_path.distance(model.apply(g, p)) for p in interior)
    assert len(path) - 1 == model.distance(path[0], path[-1]) and defect == 0  # a tree axis is a geodesic
    return AxisData(tuple(path), "geodesic-axis", defect, step, edge_path)


def _conjugates(model, rng, count):
    """Hyperbolic conjugates u g u^-1 of random words g, with u of length 0 to 4."""
    alphabet = [l for i in range(1, model.rank + 1) for l in (i, -i)]
    found = []
    while len(found) < count:
        g = model.canon(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
        u = model.canon(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        g = model.compose(model.compose(u, g), model.inverse(u))
        if classify(model, g).tr > 0:
            found.append(g)
    return found


def test_stepped_orbit_gives_the_per_power_axis():
    # The orbit walks from p* one application of g^-1 or g per point, and the
    # defect reads edge labels; path, mode, defect and step stay those of the
    # per-power build.
    f2 = FreeGroupModel(2, cap=4096)
    cases = [(f2, (1,) * k) for k in (1, 2, 3, 4, 7, 10, 16, 27, 33, 40)]
    rng = random.Random("stepped-orbit")
    for model in (f2, FreeGroupModel(3, cap=4096), FreeProductModel(cap=4096)):
        cases += [(model, g) for g in _conjugates(model, rng, 8)]
    for model, g in cases:
        profile = classify(model, g)
        for window in range(1, 9):
            axis = quasi_axis(model, profile, window=window, delta=0)
            assert axis == _per_power_axis(model, g, window), (g, window)
            assert axis.edges.points is axis.path


def test_axis_refuses_a_window_below_one(f2):
    profile = classify(f2, (1, 2))
    for window in (0, -2):
        with pytest.raises(ModelError, match=f"window must be >= 1, got {window}"):
            quasi_axis(f2, profile, window=window)
    assert len(quasi_axis(f2, profile, window=1).path) == 5


def _membership_axis(model, g, window, delta):
    """(path, mode, defect, step) with every interior image hashed into the
    path's point set first: the reference for the defect read by path index."""
    pstar = model.min_displacement_point(g)
    step = model.distance(pstar, model.apply(g, pstar))
    orbit = [model.apply(model.power(g, -window), pstar)]
    for _ in range(2 * window):
        orbit.append(model.apply(g, orbit[-1]))
    path = []
    for u, v in zip(orbit, orbit[1:]):
        seg = model.geodesic(u, v)
        path.extend(seg if not path else seg[1:])
    path = path or [pstar]
    edge_path = EdgePath(model, path)
    margin = max(step, 1)
    interior = path[margin:-margin] if len(path) > 2 * margin else path
    images = (model.apply(g, p) for p in interior)
    defect = max((edge_path.distance(q) for q in images if q not in edge_path.members), default=0)
    geodesic = len(path) - 1 == model.distance(path[0], path[-1])
    return tuple(path), "geodesic-axis" if geodesic and defect <= 2 * delta else "quasi-geodesic-axis", defect, step


def _abelian_edge_labels(model):
    """``edge_labels`` on a finite abelian Cayley graph (the cycle, the tori):
    the letter s whose generator carries x to y, which is y = x*s there."""
    letters = [l for i in range(1, len(model.generator_names) + 1) for l in (i, -i)]
    moves = [(l, model.canon((l,))) for l in letters]
    return lambda path: tuple(next(l for l, s in moves if model.apply(s, x) == y) for x, y in zip(path, path[1:]))


def test_defect_read_by_path_index_matches_the_membership_defect():
    # Each interior image is first compared with the point step places on.  On
    # a tree axis it always is that point; on the cycle and tori below, given
    # axes from every base point, g . path[i] often misses path[i + step] and
    # is measured.  delta = 2 is past their diameters, so no axis is refused.
    # Their views give the base point and edge labels a hyperbolic model gives.
    rng = random.Random("indexed-defect")
    cases = [(FreeGroupModel(2, cap=4096), (1,) * 40, 0)]
    for model in (FreeGroupModel(2, cap=4096), FreeProductModel(cap=4096)):
        cases += [(model, g, 0) for g in _conjugates(model, rng, 6)]
    for model, words in ((CycleModel(9), [(1,), (1, 1), (1,) * 4]),
                         (_torus(), [(1,), (1, 2), (1, 1, 2), (2, -1)]),
                         (_torus(5, 3), [(1,), (1, 2), (1, -2, -2)])):
        for p in range(0, len(model.ball(model.basepoint(), 9)), 2):
            view = copy.copy(model)
            view.min_displacement_point = lambda g, p=p: p
            view.edge_labels = _abelian_edge_labels(model)
            cases += [(view, model.canon(w), 2) for w in words]
    misses = 0
    for model, g, delta in cases:
        profile = classify(model, g) if model.is_tree else IsometryProfile(g, Fraction(1))
        for window in (1, 2, 3, 6):
            axis = quasi_axis(model, profile, window=window, delta=delta)
            path, mode, defect, step = _membership_axis(model, g, window, delta)
            assert (axis.path, axis.mode, axis.invariance_defect, axis.step) == (path, mode, defect, step)
            misses += sum(model.apply(g, path[i]) != path[i + step] for i in range(len(path) - step))
    assert misses > 0


TREE_MODELS = (FreeGroupModel(2, cap=4096), FreeGroupModel(3, cap=4096), FreeProductModel(cap=4096))


def _walk(model, rng, length):
    """A random walk of adjacent points (no stays) from a random point near the identity."""
    path = [rng.choice(model.ball(model.basepoint(), 2))]
    for _ in range(length):
        path.append(rng.choice(model.neighbors(path[-1])))
    return path


def test_edge_labels_step_each_edge_of_a_path():
    # y = x * label on every step, back and forth, involution steps included.
    rng = random.Random("edge-labels")
    involution_steps = 0
    for model in TREE_MODELS:
        paths = [_walk(model, rng, rng.randint(0, 30)) for _ in range(40)]
        paths += [quasi_axis(model, classify(model, g), window=3).path for g in _conjugates(model, rng, 6)]
        for path in paths:
            labels = model.edge_labels(path)
            assert len(labels) == len(path) - 1
            for x, y, label in zip(path, path[1:], labels):
                assert model.compose(x, (label,)) == y
                involution_steps += model.orders[abs(label) - 1] == 2
    assert involution_steps > 0
    with pytest.raises(NotImplementedError, match="_InfiniteLine has no edge labels"):
        _InfiniteLine().edge_labels([(), (1,)])


def _applied_defect(model, g, path, step):
    """The invariance defect with g applied to every interior point, each
    image measured against every path point."""
    margin = max(step, 1)
    interior = path[margin:-margin] if len(path) > 2 * margin else path
    return max(min(model.distance(model.apply(g, p), q) for q in path) for p in interior)


def _perturbed(model, rng, path):
    """The path with a detour x -> n -> x off it, or with one wrong edge after
    which the path keeps its own labels from the wrong neighbour."""
    k = rng.randrange(1, len(path) - 1)
    labels = model.edge_labels(path)
    n = rng.choice([n for n in model.neighbors(path[k]) if n not in path])
    if rng.random() < 0.5:
        return path[: k + 1] + [n] + path[k:]
    wrong = [path[k], n]
    for s in labels[k + 1 :]:
        wrong.append(model.compose(wrong[-1], (s,)))
        if wrong[-1] in wrong[:-1]:  # the label steps back the way the path came
            wrong.pop()
            break
    return path[:k] + wrong


def test_label_defect_equals_applying_g_to_every_point():
    # On axes every interior image is a path point; on perturbed paths the
    # images near the detour or past the wrong edge are not, and are measured.
    rng = random.Random("label-defect")
    measured = 0
    for model in TREE_MODELS:
        for g in _conjugates(model, rng, 5):
            profile = classify(model, g)
            for window in range(1, 9):
                axis = quasi_axis(model, profile, window=window, delta=0)
                assert axis.invariance_defect == _applied_defect(model, g, axis.path, axis.step) == 0
                for _ in range(3):
                    path = _perturbed(model, rng, list(axis.path))
                    defect = invariance_defect(model, g, EdgePath(model, path), axis.step)
                    assert defect == _applied_defect(model, g, path, axis.step), (g, window, path)
                    measured += defect > 0
    assert measured > 0


def _small_and_quick(call):
    """call(), which must end within 1 s at a tracemalloc peak under 1 MB."""
    start = time.perf_counter()
    tracemalloc.start()
    try:
        return call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert time.perf_counter() - start < 1 and peak < 10**6


def test_a_window_past_the_cap_is_refused_before_its_orbit_is_formed(tmp_path, capsys):
    # g^-window p* is never formed: the orbit walk stops at the cap after 64 steps.
    model = FreeGroupModel(2, cap=64)
    spec = tmp_path / "f2-64.json"
    spec.write_text(json.dumps(model.spec_dict()))
    message = "word length 65 exceeds expansion cap 64"
    with pytest.raises(CapExceeded, match=f"^{message}$"):
        _small_and_quick(lambda: quasi_axis(model, classify(model, (1,)), window=10**8))
    for argv in (["profile", "--a", "a"], ["overlap", "--a", "a", "--b", "b"],
                 ["chain", "--a", "a", "--b", "b", "--word", "ab", "--E", "1/1000", "--Q", "3"]):
        argv += ["--model", str(spec), "--window", str(10**8)]
        assert _small_and_quick(lambda: main(argv)) == 2
        assert message in capsys.readouterr().err


# -- overlaps -------------------------------------------------------------------


def overlap_of(model, g, h, c=0, window=6):
    aa = quasi_axis(model, classify(model, g), window=window, delta=0)
    bb = quasi_axis(model, classify(model, h), window=window, delta=0)
    return overlap_diameter(model, aa, bb, c)


def test_overlap_generators(f2):
    rep = overlap_of(f2, (1,), (2,))
    assert rep.D == 0
    assert not rep.unbounded_in_window


def test_overlap_disjoint_lines(f2):
    rep = overlap_of(f2, (1,), (2, 1, -2))
    assert rep.D == 0
    assert rep.witness_segment == ()


def test_overlap_shared_edge(f2):
    rep = overlap_of(f2, (1, 2), (1,))
    assert rep.D == 1
    assert set(rep.witness_segment) == {(), (1,)}


def test_overlap_same_axis_unbounded(f2):
    rep = overlap_of(f2, (1,), (1, 1))
    assert rep.unbounded_in_window
    assert rep.boundary_touching


RAY_MODELS = (
    FreeGroupModel(2, cap=4096),
    FreeGroupModel(3, cap=4096),
    FreeProductModel(cap=4096),
    FreeGroupModel(2, cap=40),
    FreeGroupModel(2, cap=12),
    FreeProductModel(cap=10),
    CyclicFreeProductModel((None, 2, None), ("x", "s", "y"), cap=16),
)


def _ray_corpus(model, rng, count):
    """Hyperbolic pairs (g, h): conjugates u g u^-1 with u up to 24 letters (past the small caps),
    g^n y against g, and pairs that share a whole axis (h a power of g)."""
    alphabet = [l for i in range(1, model.rank + 1) for l in (i, -i)]

    def word(most):
        return model.canon(rng.choice(alphabet) for _ in range(rng.randint(0, most)))

    def hyperbolic(g):
        return classify(model, g).tr > 0

    def conjugate():
        while True:
            u, g = word(rng.choice((0, 2, 4, min(model.cap // 2 + 1, 24)))), word(6)
            g = model.compose(model.compose(u, g), model.inverse(u))
            if hyperbolic(g):
                return g

    pairs = []
    while len(pairs) < count:
        g, h = conjugate(), conjugate()
        kind = rng.randrange(4)
        if kind == 1:
            h = model.power(g, rng.choice((-3, -2, -1, 1, 2)))
        elif kind == 2:
            g = model.compose(model.power(h, rng.randint(1, 9)), word(2))
        if hyperbolic(g) and hyperbolic(h):
            pairs.append((g, h) if rng.random() < 0.5 else (h, g))
    return pairs


def _outcome(measure):
    try:
        return measure()
    except ModelError as exc:
        return type(exc), str(exc)


def test_the_ray_overlap_equals_the_point_list_overlap():
    # On a tree at c = 0 AxisPair reads the overlap off the rays; the point-list
    # path builds both axes and measures them.  They give equal reports, or the
    # same refusal: a window below 1, or one the cap refuses on a's axis or b's.
    rng = random.Random("ray-overlap")
    seen = {"touching": 0, "nonempty": 0, "unbounded": 0, "refused": 0}
    for model in RAY_MODELS:
        for g, h in _ray_corpus(model, rng, 120):
            pa, pb = classify(model, g), classify(model, h)
            for window in (0, *range(1, 9)):
                rays = _outcome(lambda: AxisPair(model, pa, pb, window, 0, 0).overlap)
                points = _outcome(lambda: overlap_diameter(
                    model, quasi_axis(model, pa, window), quasi_axis(model, pb, window), 0))
                assert rays == points, (model.spec_dict(), g, h, window)
                if isinstance(rays, OverlapReport):
                    seen["touching"] += rays.boundary_touching and not rays.unbounded_in_window
                    seen["nonempty"] += bool(rays.witness_segment)
                    seen["unbounded"] += rays.unbounded_in_window
                else:
                    seen["refused"] += rays[0] is CapExceeded
    assert min(seen.values()) >= 250, seen


def test_every_tree_axis_is_the_geodesic_between_its_rays():
    # On a tree quasi_axis measures what window_rays reads: the axis is the
    # geodesic between the rays' ends, a geodesic axis with defect 0 and
    # 2 w tau + 1 points at delta 0 and 1, or both refuse a window past the cap.
    rng = random.Random("tree-axes")
    seen = {"geodesic": 0, "refused": 0}
    for model in RAY_MODELS:
        for g in sorted({g for pair in _ray_corpus(model, rng, 20) for g in pair}):
            profile = classify(model, g)
            for window in range(1, 9):
                rays = _outcome(lambda: window_rays(model, "a", profile, window))
                for delta in (0, 1):
                    axis = _outcome(lambda: quasi_axis(model, profile, window, delta))
                    if isinstance(rays, tuple) and isinstance(rays[0], type):
                        assert axis == rays, (model.spec_dict(), g, window)
                        seen["refused"] += 1
                        continue
                    _, forward, backward = rays
                    assert (axis.mode, axis.invariance_defect) == ("geodesic-axis", 0), (model.spec_dict(), g)
                    assert len(axis.path) == 2 * window * profile.tr + 1
                    assert list(axis.path) == model.geodesic(backward, forward)
                    seen["geodesic"] += 1
    assert seen["geodesic"] >= 2000 and seen["refused"] >= 100, seen


class AxisBuilt(Exception):
    pass


def test_tree_commands_below_c_one_build_no_axis(monkeypatch, capsys):
    # certify, overlap, chain and profile on a tree read their axes off the
    # rays; only an overlap at c >= 1 (chain --delta 1, overlap --c 3) builds
    # the point-list axes.
    def refuse(model, profile, *args, **kwargs):
        raise AxisBuilt(profile.element)

    monkeypatch.setattr(freecert.isometry, "quasi_axis", refuse)
    f2 = str(Path(__file__).resolve().parent.parent / "demos/models/f2.json")
    for criterion in ("nielsen", "prop6", "prop7", "prop8", "theorem9"):
        assert main(["certify", "--model", f2, "--a", "ab", "--b", "ba", "--criterion", criterion,
                     "--no-verify"]) == 0
    assert main(["overlap", "--model", f2, "--a", "ab", "--b", "ba"]) == 0
    chain = ["chain", "--model", f2, "--a", "a" * 10, "--b", "b", "--window", "3", "--word", "ab", "--Q", "3"]
    assert main([*chain, "--E", "10/1000"]) == 0
    for delta in ("0", "1"):
        assert main(["profile", "--model", f2, "--a", "aba'", "--delta", delta]) == 0
    capsys.readouterr()
    with pytest.raises(AxisBuilt):
        main([*chain, "--E", "101", "--delta", "1"])
    with pytest.raises(AxisBuilt):
        main(["overlap", "--model", f2, "--a", "ab", "--b", "ba", "--c", "3"])


def test_overlap_below_one_is_membership_alone(monkeypatch):
    # At c < 1 the overlap is what EdgePath.within gives, found without calling it.
    rng = random.Random("overlap-membership")
    model = FreeGroupModel(2, cap=64)
    pairs = [[EdgePath(model, _walk(model, rng, rng.randint(0, 12))) for _ in range(2)] for _ in range(30)]

    def by_within(a, b, c):
        in_a = [p for p in a.points if b.within(p, c)]
        in_b = [q for q in b.points if a.within(q, c)]
        return in_a, in_b, list(dict.fromkeys(in_a + in_b))

    expected = {(i, c): by_within(a, b, c) for i, (a, b) in enumerate(pairs) for c in (-1, 0)}
    monkeypatch.setattr(EdgePath, "within", lambda *args: pytest.fail("within called at c < 1"))
    for (i, c), want in expected.items():
        assert overlap_points(*pairs[i], c) == want
    assert any(want[2] for (i, c), want in expected.items() if c == 0)


def test_a_chain_builds_no_edge_path_on_its_axes(monkeypatch, capsys):
    # The base points and the overlap at c = 0 are read off the rays, and the
    # block overlaps at c = 0 off medians, so no EdgePath is built at all.
    built = []
    original = EdgePath.__init__

    def recording(self, model, points):
        original(self, model, points)
        built.append(self.points)

    monkeypatch.setattr(EdgePath, "__init__", recording)
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    argv = ["chain", "--model", "demos/models/f2.json", "--a", "a" * 40, "--b", "b", "--window", "6",
            "--word", "ab", "--E", "40/1000", "--Q", "3"]
    assert main(argv) == 0
    assert '"failures": []' in capsys.readouterr().out
    assert built == []


# -- independence ----------------------------------------------------------------


def _commutator_test(model, a, b, bound):
    """independence_test as one four-word product [a^e, b^f], reduced by canon."""
    a, b = model.canon(a), model.canon(b)
    pairs = sorted(((p, q) for p in range(1, bound + 1) for q in range(1, bound + 1)), key=lambda t: (t[0] + t[1], t))
    for p, q in pairs:
        for e in (p, -p):
            for f in (q, -q):
                word = model.power(a, -e) + model.power(b, -f) + model.power(a, e) + model.power(b, f)
                if model.canon(word) == ():
                    return "dependent", (e, f)
    return "independent-to-bound", None


def test_independence_matches_the_commutator_form():
    rng = random.Random("independence")
    for model in (FreeGroupModel(2, cap=512), FreeGroupModel(3, cap=512), FreeProductModel(cap=512)):
        alphabet = [l for i in range(1, model.rank + 1) for l in (i, -i)]
        draw = lambda: model.canon(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        pairs = [(draw(), draw()) for _ in range(60)]
        for _ in range(20):
            w = draw()
            pairs += [(model.power(w, 2), model.power(w, 3)), (w, model.inverse(w)), (w, model.power(w, -2))]
        verdicts = set()
        for a, b in pairs:
            for bound in (1, 3):
                result = independence_test(model, a, b, bound)
                assert result == _commutator_test(model, a, b, bound), (a, b, bound)
                verdicts.add(result[0])
        assert verdicts == {"dependent", "independent-to-bound"}



def test_independence_generators(f2):
    assert independence_test(f2, (1,), (2,), 5) == ("independent-to-bound", None)


def test_dependence_of_powers(f2):
    verdict, witness = independence_test(f2, (1,), (1, 1), 1)
    assert verdict == "dependent" and witness == (1, 1)


def test_dependence_past_the_first_pair(zz2):
    # s^2 = 1, so [s^2, f] = 1 while no (+-1, +-1) commutator vanishes.
    assert independence_test(zz2, (2,), (1,), 3) == ("dependent", (2, 1))


def test_independence_reduces_caller_words(f2, zz2):
    # A b·b^-1 pair or a raw -2 tests exactly as its normal form does.
    assert independence_test(f2, (2, -2, 1), (1,), 1) == independence_test(f2, (1,), (1,), 1) == ("dependent", (1, 1))
    assert independence_test(zz2, (-2,), (1,), 3) == independence_test(zz2, (2,), (1,), 3) == ("dependent", (2, 1))


def test_independence_in_free_product(zz2):
    assert independence_test(zz2, (1,), (2, 1, 2), 4) == ("independent-to-bound", None)


# -- point-to-path distances ---------------------------------------------------------


def _torus(m=4, n=4):
    vertex = lambda x, y: (x % m) * n + (y % n)
    adjacency = [
        [vertex(x + 1, y), vertex(x - 1, y), vertex(x, y + 1), vertex(x, y - 1)] for x in range(m) for y in range(n)
    ]
    shift = lambda dx, dy: [vertex(x + dx, y + dy) for x in range(m) for y in range(n)]
    return ExplicitGraphModel(adjacency, [shift(1, 0), shift(0, 1)])


def _edge_walk(model, rng, start, length):
    """A random edge path: each step stays put or moves to a neighbor."""
    path = [start]
    for _ in range(length):
        here = path[-1]
        path.append(here if rng.random() < 0.15 else rng.choice(model.neighbors(here)))
    return path


EDGE_PATH_MODELS = pytest.mark.parametrize(
    "model",
    [FreeGroupModel(2, cap=64), FreeProductModel(cap=64), CycleModel(9), _torus()],
    ids=["free-group", "free-product", "cycle", "torus"],
)


@EDGE_PATH_MODELS
def test_edge_path_matches_brute_force(model):
    rng = random.Random(f"edge-path:{model.kind}")
    near = model.ball(model.basepoint(), 3)
    for _ in range(40):
        path = _edge_walk(model, rng, rng.choice(near), rng.randint(0, 24))
        edge_path = EdgePath(model, path)
        probes = rng.sample(path, min(3, len(path)))
        probes += [rng.choice(model.ball(rng.choice(path), 4)) for _ in range(8)]
        for p in probes:
            exact = min(model.distance(p, q) for q in path)
            assert edge_path.distance(p) == exact
            for c in range(-1, 4):
                assert edge_path.within(p, c) == (exact <= c)


@EDGE_PATH_MODELS
def test_within_below_one_is_membership_alone(model, monkeypatch):
    # Only a path point lies within 0 of the path, so c < 1 measures no distance.
    rng = random.Random(f"within:{model.kind}")
    calls = []
    distance = model.distance
    monkeypatch.setattr(model, "distance", lambda x, y: calls.append(1) or distance(x, y))
    near = model.ball(model.basepoint(), 3)
    for _ in range(40):
        path = _edge_walk(model, rng, rng.choice(near), rng.randint(0, 24))
        edge_path = EdgePath(model, path)
        for p in rng.sample(path, min(3, len(path))) + rng.sample(near, min(8, len(near))):
            for c in (-1, 0):
                assert edge_path.within(p, c) == (c == 0 and p in path)
    assert calls == []
    single = EdgePath(model, [model.basepoint()])
    assert single.within(model.neighbors(model.basepoint())[0], 1) and calls  # c >= 1 still measures
