"""Translation lengths, hyperbolicity verdicts, axes, overlaps, independence."""

import random

import pytest

from freecert import (
    CycleModel,
    EdgePath,
    ExplicitGraphModel,
    FreeGroupModel,
    FreeProductModel,
    classify,
    independence_test,
    overlap_diameter,
    quasi_axis,
    translation_length,
)


@pytest.fixture(scope="module")
def f2():
    return FreeGroupModel(2, cap=512)


@pytest.fixture(scope="module")
def zz2():
    return FreeProductModel(cap=256)


# -- translation length -------------------------------------------------------


def test_translation_length_examples(f2):
    assert translation_length(f2, (1,)) == (1, 1, True)
    assert translation_length(f2, (1, 2, -1)) == (1, 1, True)
    assert translation_length(f2, ()) == (0, 0, True)


def test_translation_length_torsion(zz2):
    assert translation_length(zz2, (2,)) == (0, 0, True)
    assert translation_length(zz2, (1, 2, -1)) == (0, 0, True)  # conjugate of s


def test_translation_length_homogeneous(f2):
    rng = random.Random(11)
    for _ in range(12):
        w = f2.canon(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))))
        lo, hi, exact = translation_length(f2, w)
        assert exact and lo == hi
        for k in range(1, 5):
            assert translation_length(f2, f2.power(w, k))[0] == k * lo


def test_translation_length_finite_model_is_exact_zero():
    lo, hi, exact = translation_length(CycleModel(6), (1,))
    assert exact and lo == hi == 0  # finite model: every orbit is bounded


class _NoExactLength:
    """Hides the model's exact translation length, so the generic bounds run."""

    def exact_translation_length(self, g):
        return None


class _GenericF2(_NoExactLength, FreeGroupModel):
    pass


class _GenericZxZ2(_NoExactLength, FreeProductModel):
    pass


def test_translation_length_generic_interval():
    cases = [
        # identity, generators, a conjugate, a commutator and mixed words
        (_GenericF2(2, cap=512), FreeGroupModel(2, cap=512),
         [(), (1,), (-2,), (1, 2), (1, 2, -1), (1, 1, -2), (2, 1, -2, -2), (1, 2, -1, -2)]),
        # torsion (s and a conjugate of it) next to hyperbolic words
        (_GenericZxZ2(cap=512), FreeProductModel(cap=512),
         [(2,), (1, 2, -1), (1,), (1, 2), (2, 1, 2), (1, 1, 2, -1)]),
    ]
    for generic, exact, words in cases:
        for w in words:
            true_tr = exact.exact_translation_length(w)
            lo, hi, is_exact = translation_length(generic, w)
            assert is_exact is False
            assert lo <= true_tr <= hi, (w, lo, true_tr, hi)


# -- classification -----------------------------------------------------------


def test_classify_generator_criterion_power(f2):
    p = classify(f2, (1,), delta=0, power_cap=128)
    assert p.hyperbolic == "yes"
    assert p.criterion1_power == 100
    assert (p.tr_lower, p.tr_upper) == (1, 1)


def test_classify_small_power_cap_still_yes(f2):
    p = classify(f2, (1,), delta=0, power_cap=10)
    assert p.hyperbolic == "yes"
    assert p.criterion1_power is None


def test_classify_torsion_is_no(zz2):
    p = classify(zz2, (2,), delta=0)
    assert p.hyperbolic == "no"
    assert p.criterion1_power is None


def test_classify_identity_is_no(f2):
    assert classify(f2, (), delta=0).hyperbolic == "no"


# -- axes ----------------------------------------------------------------------


def test_axis_of_generator(f2):
    axis = quasi_axis(f2, classify(f2, (1,), 0), window=3, delta=0)
    assert axis.mode == "geodesic-axis"
    assert axis.invariance_defect == 0
    assert axis.path == tuple((1,) * k if k >= 0 else (-1,) * (-k) for k in range(-3, 4))


def test_axis_of_conjugate(f2):
    axis = quasi_axis(f2, classify(f2, (1, 2, -1), 0), window=2, delta=0)
    assert axis.mode == "geodesic-axis"
    expected = {f2.compose((1,), (2,) * k if k >= 0 else (-2,) * (-k)) for k in range(-2, 3)}
    assert expected <= set(axis.path)


def test_axis_of_ab(f2):
    axis = quasi_axis(f2, classify(f2, (1, 2), 0), window=2, delta=0)
    assert axis.mode == "geodesic-axis"
    assert axis.step == 2
    for p in ((), (1,), (1, 2), (1, 2, 1), (-2,)):
        assert p in axis.path


# -- overlaps -------------------------------------------------------------------


def overlap_of(model, g, h, c=0, window=6):
    aa = quasi_axis(model, classify(model, g, 0), window=window, delta=0)
    bb = quasi_axis(model, classify(model, h, 0), window=window, delta=0)
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


# -- independence ----------------------------------------------------------------


def test_independence_generators(f2):
    assert independence_test(f2, (1,), (2,), 5) == ("independent-to-bound", None)


def test_dependence_of_powers(f2):
    verdict, witness = independence_test(f2, (1,), (1, 1), 1)
    assert verdict == "dependent" and witness == (1, 1)


def test_dependence_past_the_first_pair(zz2):
    # s^2 = 1, so [s^2, f] = 1 while no (+-1, +-1) commutator vanishes.
    assert independence_test(zz2, (2,), (1,), 3) == ("dependent", (2, 1))


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


@pytest.mark.parametrize(
    "model",
    [FreeGroupModel(2, cap=64), FreeProductModel(cap=64), CycleModel(9), _torus()],
    ids=["free-group", "free-product", "cycle", "torus"],
)
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
            assert edge_path.nearest(p) == min(path, key=lambda q: (model.distance(p, q), model.point_key(q)))
