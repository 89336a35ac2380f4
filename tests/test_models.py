"""Model layer: canonical forms, metrics, actions, geodesics, enumeration."""

import random
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert import (
    ActionModel,
    CapExceeded,
    CycleModel,
    CyclicFreeProductModel,
    ExplicitGraphModel,
    FreeGroupModel,
    FreeProductModel,
    ModelError,
    all_geodesics,
    build_model,
    parse_letters,
)
from freecert.models import IDENTITY

letters_f2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12).map(tuple)
letters_zz2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12).map(tuple)


@pytest.fixture(scope="module")
def f2():
    return FreeGroupModel(2, cap=128)


@pytest.fixture(scope="module")
def zz2():
    return FreeProductModel(cap=128)


# -- construction and validation --------------------------------------------


def test_build_model_free_group():
    m = build_model({"kind": "free-group", "rank": 2})
    assert m.generator_names == ("a", "b")
    assert len(m.generators()) == 2


def test_build_model_cycle():
    m = build_model({"kind": "cycle", "n": 4})
    assert m.apply((1,), 0) == 1


def test_build_model_rejects_bad_automorphism():
    # Path graph 0-1-2: swapping 0 and 1 does not preserve adjacency.
    with pytest.raises(ModelError):
        build_model({"kind": "explicit-graph", "adjacency": [[1], [0, 2], [1]], "generators": [[1, 0, 2]]})


def test_build_model_rejects_unknown_kind():
    with pytest.raises(ModelError):
        build_model({"kind": "hyperbolic-plane"})


def test_cap_exceeded_is_loud():
    m = FreeGroupModel(2, cap=3)
    with pytest.raises(CapExceeded):
        m.apply((1, 1, 2), (1, 1))


# -- canonical forms ---------------------------------------------------------


@given(letters_f2)
def test_canon_inverse_composes_to_identity(w):
    m = FreeGroupModel(2, cap=128)
    g = m.canon(w)
    assert m.compose(g, m.inverse(g)) == ()
    assert m.canon(m.compose(m.inverse(g), g)) == IDENTITY


@given(letters_f2, letters_f2)
def test_canon_closed_under_composition(u, v):
    m = FreeGroupModel(2, cap=128)
    gh = m.compose(m.canon(u), m.canon(v))  # compose takes canonical words
    assert m.canon(gh) == gh


@given(letters_zz2)
def test_free_product_canon_idempotent(w):
    for m in (FreeProductModel(cap=128), FreeGroupModel(2, cap=128)):
        assert m.canon(m.canon(w)) == m.canon(w)


def test_free_product_torsion(zz2):
    s = (2,)
    assert zz2.canon(zz2.compose(s, s)) == IDENTITY
    assert zz2.apply(zz2.compose(s, s), (1, 2)) == (1, 2)
    assert zz2.canon((-2,)) == (2,)


def test_identity_is_empty_word(f2):
    assert f2.canon(()) == ()
    assert f2.canon((1, -1)) == ()


def test_power_squares_only_while_bits_remain():
    # 116040 has 17 bits, 7 of them set: 16 squarings and 7 products, and
    # no word built on the way is longer than the 348,120-letter result.
    model = FreeGroupModel(2)
    compose, lengths = model.compose, []

    def counted(*elements):
        out = compose(*elements)
        lengths.append(len(out))
        return out

    model.compose = counted
    result = model.power((1, 2, 1), 116040)
    assert result == (1, 2, 1) * 116040
    assert len(lengths) == 23
    assert max(lengths) == len(result)


# -- metric and action -------------------------------------------------------


def test_distance_examples(f2):
    assert f2.distance((), (1, 2)) == 2
    assert f2.distance((1, 2), (1,)) == 1
    assert CycleModel(4).distance(0, 2) == 2


@given(letters_f2, letters_f2, letters_f2)
@settings(max_examples=60)
def test_metric_axioms(x, y, z):
    m = FreeGroupModel(2, cap=128)
    x, y, z = m.canon(x), m.canon(y), m.canon(z)
    assert m.distance(x, x) == 0
    assert m.distance(x, y) == m.distance(y, x)
    assert m.distance(x, z) <= m.distance(x, y) + m.distance(y, z)
    assert (m.distance(x, y) == 0) == (x == y)


@given(letters_f2, letters_f2, letters_f2)
@settings(max_examples=60)
def test_action_is_isometric(g, x, y):
    m = FreeGroupModel(2, cap=128)
    g, x, y = m.canon(g), m.canon(x), m.canon(y)
    assert m.distance(m.apply(g, x), m.apply(g, y)) == m.distance(x, y)


def test_apply_examples(f2):
    assert f2.apply((1,), (2,)) == (1, 2)
    assert f2.apply((), (1, 2)) == (1, 2)


@pytest.mark.parametrize("model", [FreeGroupModel(2, cap=4), FreeProductModel(cap=4)], ids=["F2", "ZxZ2"])
def test_apply_at_the_identity_is_g_and_still_capped(model):
    # The base point is the identity, so the oracle applies every word there.
    for g in [(), (1,), (1, 2, 1), (1, 2, 1, 2)]:
        g = model.canon(g)
        assert model.apply(g, IDENTITY) == g
    with pytest.raises(CapExceeded):
        model.apply((1, 2, 1, 2, 1), IDENTITY)


# -- geodesics and balls ------------------------------------------------------


def test_geodesic_examples(f2):
    assert f2.geodesic((), (1, 2)) == [(), (1,), (1, 2)]
    assert f2.geodesic((1,), (1,)) == [(1,)]
    assert CycleModel(4).geodesic(0, 2) == [0, 1, 2]


@given(letters_f2, letters_f2)
@settings(max_examples=60)
def test_geodesic_is_a_geodesic(x, y):
    m = FreeGroupModel(2, cap=128)
    x, y = m.canon(x), m.canon(y)
    path = m.geodesic(x, y)
    assert path[0] == x and path[-1] == y
    assert len(path) - 1 == m.distance(x, y)
    assert all(m.distance(p, q) == 1 for p, q in zip(path, path[1:]))


def test_ball_counts(f2):
    assert len(f2.ball((), 1)) == 5
    assert len(f2.ball((), 2)) == 17
    assert len(CycleModel(4).ball(0, 10)) == 4


def test_group_ball_bfs_order(f2):
    ball = f2.group_ball(2)
    assert ball[0] == ()
    assert len(ball) == 17
    assert all(len(w) <= 2 for w in ball)


@pytest.mark.parametrize(
    "make, radius",
    [(FreeGroupModel, 3), (FreeProductModel, 4), (lambda: CycleModel(7), 5), (lambda: _torus_3x4(), 9)],
    ids=["F2", "ZxZ2", "C7", "torus3x4"],
)
def test_ball_parents_are_a_bfs_tree_of_the_ball(make, radius):
    model = make()
    center = model.basepoint()
    parents = model.ball_parents(center, radius)
    points = list(parents)
    assert points == model.ball(center, radius) and parents[center] is None
    for place, (x, parent) in enumerate(parents.items()):
        if place:
            assert parent < place and points[parent] in model.neighbors(x)
            assert model.distance(center, x) == model.distance(center, points[parent]) + 1


def test_a_ball_beyond_the_budget_is_refused(f2):
    # Radius 8 in F2 (13,121 points) is the largest ball the tests build; radius 10
    # (118,097) and radius 2 in F1000 (about four million) are refused.
    assert len(f2.ball((), 8)) == 13121 < FreeGroupModel.BALL_BUDGET
    for build in (lambda: f2.ball((), 10), lambda: FreeGroupModel(1000).ball((), 2),
                  lambda: FreeGroupModel(1000).group_ball(2)):
        with pytest.raises(ModelError, match="holds more than 100000 points"):
            build()


class _Star(ActionModel):
    """A centre 0 joined to the leaves 1..leaves, whose neighbours are listed lazily."""

    BALL_BUDGET = 10

    def __init__(self, leaves):
        self.leaves, self.read = leaves, 0

    def neighbors(self, x):
        if x:
            yield 0
            return
        for leaf in range(1, self.leaves + 1):
            assert leaf <= self.BALL_BUDGET, "read a point past the first one beyond the budget"
            self.read = leaf
            yield leaf


def test_a_ball_is_refused_at_the_first_point_beyond_the_budget():
    assert _Star(9).ball(0, 1) == list(range(10))  # exactly BALL_BUDGET points
    star = _Star(1000)
    with pytest.raises(ModelError, match="a ball of radius 1 holds more than 10 points"):
        star.ball(0, 1)
    assert star.read == 10  # the centre and leaves 1..10: point BALL_BUDGET + 1 refuses


# -- the tree model against reference normal forms ---------------------------


class _RefFreeGroup:
    """The free group's normal form and cyclic split, written out letter by letter."""

    def __init__(self, rank):
        self.rank = rank

    def canon(self, word):
        out = []
        for l in word:
            assert 1 <= abs(l) <= self.rank
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
        return tuple(out)

    def neighbors(self, x):
        steps = [l for i in range(1, self.rank + 1) for l in (i, -i)]
        return [x[:-1] if x and x[-1] == -l else x + (l,) for l in steps]

    def split(self, g):
        w, u = list(self.canon(g)), []
        while len(w) >= 2 and w[0] == -w[-1]:
            u.append(w[0])
            w = w[1:-1]
        return tuple(u), tuple(w)

    def translation_length(self, g):
        return len(self.split(g)[1])


class _RefZxZ2:
    """Z * Z/2 = <f> * <s | s^2> with s = 2 its own inverse, written out letter by letter."""

    rank = 2

    def canon(self, word):
        out = []
        for l in word:
            l = 2 if abs(l) == 2 else l
            if out and (out[-1] == -l or out[-1] == l == 2):
                out.pop()
            else:
                out.append(l)
        return tuple(out)

    def neighbors(self, x):
        out = []
        for l in (1, -1, 2):
            q = self.canon(x + (l,))
            if q not in out:
                out.append(q)
        return out

    def split(self, g):
        w, u = list(self.canon(g)), []
        while len(w) >= 2 and (w[0] == -w[-1] or w[0] == w[-1] == 2):
            u.append(w[0])
            w = list(self.canon(w[1:-1]))
        return self.canon(u), tuple(w)

    def translation_length(self, g):
        core = self.split(g)[1]
        return 0 if core in ((), (2,)) else len(core)


def _ref_prefix(x, y):
    k = 0
    while k < min(len(x), len(y)) and x[k] == y[k]:
        k += 1
    return k


def _ref_geodesic(x, y):
    k = _ref_prefix(x, y)
    return [x[:j] for j in range(len(x), k - 1, -1)] + [y[:j] for j in range(k + 1, len(y) + 1)]


@pytest.mark.parametrize(
    "model, ref",
    [
        (FreeGroupModel(2, cap=256), _RefFreeGroup(2)),
        (FreeGroupModel(3, cap=256), _RefFreeGroup(3)),
        (FreeProductModel(cap=256), _RefZxZ2()),
    ],
    ids=["F2", "F3", "ZxZ2"],
)
def test_tree_model_matches_reference_normal_forms(model, ref):
    rng = random.Random(f"tree-model:{model.kind}:{model.rank}")
    alphabet = [l for i in range(1, ref.rank + 1) for l in (i, -i)]

    def word(n):
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, n)))

    for _ in range(1500):
        u, core, x = word(6), word(8), word(12)
        g = u + core + tuple(-l for l in reversed(u))  # often a proper conjugate
        cg, cx = model.canon(g), model.canon(x)
        assert (cg, cx) == (ref.canon(g), ref.canon(x))
        assert model.neighbors(cx) == ref.neighbors(cx)
        assert model.distance(cg, cx) == len(cg) + len(cx) - 2 * _ref_prefix(cg, cx)
        assert model.geodesic(cg, cx) == _ref_geodesic(cg, cx)
        assert model.exact_translation_length(g) == ref.translation_length(g)
        assert model.min_displacement_point(g) == ref.split(g)[0]


def test_tree_model_infinite_dihedral():
    m = CyclicFreeProductModel((2, 2), ("s", "t"))
    assert m.canon((1, -1, 2, 2, -2)) == (2,)
    assert m.exact_translation_length((1, 2)) == 2
    assert m.exact_translation_length((1, 2, 1)) == 0  # a conjugate of t
    assert m.min_displacement_point((1, 2, 1)) == (1,)
    assert m.neighbors((1,)) == [(), (1, 2)]


@pytest.mark.parametrize(
    "model",
    [
        FreeGroupModel(2, cap=256),
        FreeGroupModel(3, cap=256),
        FreeProductModel(cap=256),
        CyclicFreeProductModel((2, 2), ("s", "t")),
    ],
    ids=["F2", "F3", "ZxZ2", "Z2xZ2"],
)
def test_tree_model_arithmetic_matches_canon_of_concatenation(model):
    # compose, inverse, power and apply take canonical words and cancel only
    # at the seams; canon of the whole concatenated word is the reference.
    # apply joins its two words itself, and checks the cap on the product.
    rng = random.Random(f"tree-arithmetic:{model.orders}")
    capped = CyclicFreeProductModel(model.orders, model.generator_names, cap=5)
    alphabet = [l for i in range(1, model.rank + 1) for l in (i, -i)]

    def word(prev=()):
        # Often opens with the inverse of prev's tail, so that seams cancel deep.
        head = tuple(-l for l in reversed(prev))[: rng.randint(0, len(prev))] if rng.random() < 0.5 else ()
        return model.canon(head + tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8))))

    for _ in range(500):
        words = [word()]
        for _ in range(rng.randint(0, 3)):
            words.append(word(words[-1]))
        assert reduce(model.compose, words, IDENTITY) == model.canon(l for w in words for l in w)
        for g, x in zip(words, words[1:]):
            product = model.canon(g + x)
            assert model.apply(g, x) == model.compose(g, x) == product
            if len(product) > capped.cap:
                with pytest.raises(CapExceeded, match=rf"^word length {len(product)} exceeds expansion cap 5$"):
                    capped.apply(g, x)
            else:
                assert capped.apply(g, x) == product
        g = words[0]
        assert model.apply(g, IDENTITY) is g and model.apply(IDENTITY, g) is g  # no copy at the identity
        g_inv = model.inverse(g)
        assert g_inv == model.canon(-l for l in reversed(g))
        assert model.compose(g, g_inv) == model.compose(g_inv, g) == IDENTITY
        for n in range(-5, 6):
            assert model.power(g, n) == reduce(model.compose, [g if n > 0 else g_inv] * abs(n), IDENTITY)


def test_apply_at_a_short_seam_inverts_only_a_short_tail():
    # apply is compose under the cap, and the seam inverts ever longer tails
    # of g (8, 64, 512, ... letters): a new 2,000-letter g whose seam with x
    # is 2 letters inverts no word longer than 8, never the whole of g.
    model = FreeGroupModel(2, cap=10**5)
    g = (1, 2) * 1000
    x = (-2, -1, -1)  # the seam is g's last two letters, 1 2
    lengths = []
    inverse = model.inverse
    model.inverse = lambda w: lengths.append(len(w)) or inverse(w)
    assert model.apply(g, x) == model.canon(g + x) == g[:-2] + (-1,)
    assert lengths and max(lengths) <= 8


def test_tree_model_seams_cancel_involutions():
    zz2 = FreeProductModel(cap=256)
    assert zz2.compose((2,), (2,)) == IDENTITY
    assert zz2.compose((1, 2), (2, -1)) == IDENTITY
    assert zz2.compose((1, 2), (2, 1, 2)) == (1, 1, 2)
    assert zz2.apply((2,), (2,)) == IDENTITY
    assert zz2.apply((1, 2), (2, -1)) == IDENTITY
    assert zz2.apply((1, 2), (2, 1, 2)) == (1, 1, 2)
    assert zz2.inverse((1, 2, -1)) == (1, 2, -1)
    assert zz2.power((1, 2), -2) == (2, -1, 2, -1)
    dihedral = CyclicFreeProductModel((2, 2), ("s", "t"))
    assert dihedral.compose((1, 2), (2, 1)) == IDENTITY
    assert dihedral.compose(dihedral.compose((1, 2, 1), (1, 2)), (2,)) == (1, 2)
    assert dihedral.compose(dihedral.compose((1, 2, 1), (1,)), (2, 1)) == IDENTITY  # a seam that swallows a whole word
    assert dihedral.power((1, 2), 3) == (1, 2, 1, 2, 1, 2)


def _letter_by_letter(model):
    """distance, geodesic, apply, compose and cyclic_split, one letter per loop step."""
    letters = [l for (i,) in model.generators() for l in (i, model.inverse((i,))[0])]
    inv = {l: model.inverse((l,))[0] for l in letters}

    def prefix(x, y):
        k = 0
        while k < len(x) and k < len(y) and x[k] == y[k]:
            k += 1
        return k

    def distance(x, y):
        return len(x) + len(y) - 2 * prefix(x, y)

    def geodesic(x, y):
        k = prefix(x, y)
        return [x[:j] for j in range(len(x), k - 1, -1)] + [y[:j] for j in range(k + 1, len(y) + 1)]

    def compose(*elements):
        out = []
        for e in elements:
            k = 0
            while out and k < len(e) and out[-1] == inv[e[k]]:
                out.pop()
                k += 1
            out.extend(e[k:])
        return tuple(out)

    def apply(g, x):
        n, k = len(g), 0
        while k < min(n, len(x)) and g[n - 1 - k] == inv[x[k]]:
            k += 1
        return g[: n - k] + x[k:]

    def cyclic_split(w):
        k = 0
        while len(w) - 2 * k >= 2 and w[k] == inv[w[-1 - k]]:
            k += 1
        return w[:k], w[k : len(w) - k]

    return distance, geodesic, apply, compose, cyclic_split


@pytest.mark.parametrize(
    "model",
    [FreeGroupModel(2, cap=10_000), FreeGroupModel(3, cap=10_000), FreeProductModel(cap=10_000)],
    ids=["F2", "F3", "ZxZ2"],
)
def test_tree_model_slices_match_the_letter_by_letter_reference(model):
    # Common prefixes are found by slice comparisons; seeded words of length
    # 0-2,000, with equal words, prefixes of each other, and seams that
    # cancel partly, wholly or past a whole word.
    distance, geodesic, apply, compose, cyclic_split = _letter_by_letter(model)
    rng = random.Random(f"slices:{model.orders}")
    alphabet = [l for i in range(1, model.rank + 1) for l in (i, -i)]

    def word(length):
        return model.canon(rng.choice(alphabet) for _ in range(length))

    for _ in range(40):
        w = word(rng.choice((0, 1, 2, 3, rng.randint(4, 60), rng.randint(1000, 2000))))
        w_inv, j = model.inverse(w), rng.randint(0, len(w))
        tail = word(rng.randint(0, 40))
        others = [w, w[:j], model.canon(w[:j] + tail), word(len(w)), IDENTITY]
        for x in others:
            for p, q in ((w, x), (x, w)):
                assert model.distance(p, q) == distance(p, q)
                assert model.geodesic(p, q) == geodesic(p, q)
        seams = [w_inv, w_inv[:j], model.canon(w_inv[:j] + tail), model.canon(w_inv + tail), tail, IDENTITY]
        for x in seams:
            for p, q in ((w, x), (x, w)):
                assert model.apply(p, q) == compose(p, q) == apply(p, q)
                assert model.compose(p, q) == compose(p, q)
            assert model.compose(model.compose(w, x), w) == compose(w, x, w)
            assert model.apply(tuple(list(w)), x) == apply(w, x)  # an equal g that is another object
        u = word(rng.randint(0, 30))
        conjugates = [model.compose(model.compose(u, c), model.inverse(u)) for c in (w, (model.rank,))]
        for g in (w, *conjugates):
            assert model.cyclic_split(g) == cyclic_split(g)


@pytest.mark.parametrize("orders", [(None, 3), (2, 4), (1,), ()])
def test_tree_model_refuses_orders_without_a_tree(orders):
    with pytest.raises(ModelError):
        CyclicFreeProductModel(orders, "xy"[: len(orders)])


# -- explicit graph model -----------------------------------------------------


def _square():
    rot = [1, 2, 3, 0]
    flip = [0, 3, 2, 1]
    return ExplicitGraphModel([[1, 3], [0, 2], [1, 3], [0, 2]], [rot, flip])


def test_explicit_graph_square():
    m = _square()
    assert m.distance(0, 2) == 2
    # The generated group is the dihedral group of order 8.
    assert len(m.group_ball(10)) == 8
    assert m.apply((1,), 0) == 1
    assert m.canon((1, 1, 1, 1)) == IDENTITY
    assert m.canon((2, 2)) == IDENTITY


def test_points_in_different_components_have_no_distance_and_no_geodesic():
    m = ExplicitGraphModel([[1], [0, 2], [1], [4], [3]])
    assert [m.distance(0, y) for y in range(3)] == [0, 1, 2] and m.distance(4, 3) == 1
    assert m.geodesic(2, 0) == [2, 1, 0]
    for walk in (m.distance, m.geodesic, lambda x, y: all_geodesics(m, x, y)):
        with pytest.raises(ModelError, match="points lie in different components"):
            walk(0, 3)


def _torus_3x4():
    vertex = lambda x, y: (x % 3) * 4 + (y % 4)
    adjacency = [
        [vertex(x + 1, y), vertex(x - 1, y), vertex(x, y + 1), vertex(x, y - 1)] for x in range(3) for y in range(4)
    ]
    shift = lambda dx, dy: [vertex(x + dx, y + dy) for x in range(3) for y in range(4)]
    return ExplicitGraphModel(adjacency, [shift(1, 0), shift(0, 1)])


@pytest.mark.parametrize("make", [_square, _torus_3x4], ids=["square", "torus3x4"])
def test_explicit_graph_apply_matches_the_letter_by_letter_permutation(make):
    m = make()
    group = m.group_ball(m.order)
    assert len(group) == m.order
    for g in group:
        assert [m.apply(g, x) for x in range(m.n)] == list(m._perm_of(g))


@pytest.mark.parametrize("make, diameter", [(lambda: CycleModel(4), 2), (_square, 2), (_torus_3x4, 3)],
                         ids=["c4", "square", "torus3x4"])
def test_a_radius_past_the_diameter_stops_with_the_whole_graph(make, diameter):
    # BFS stops once its frontier is empty, so a radius of 10**12 lists the
    # ball of radius = diameter at once instead of looping over nothing.
    m = make()
    assert m.ball(m.basepoint(), 10**12) == m.ball(m.basepoint(), diameter) == list(m.ball(m.basepoint(), m.n))
    assert m.group_ball(10**12) == m.group_ball(m.order)


def test_a_free_group_whose_first_shell_outgrows_the_budget_is_refused_before_its_tables():
    # Rank k gives a radius-1 ball of 1 + 2k points: 100,001 at rank 50,000.
    # Rank 10**8 is refused before its rank-long tuples and generator names are built.
    start = time.perf_counter()
    for rank in (50_000, 10**6, 10**8):
        with pytest.raises(ModelError, match="a ball of radius 1 holds more than 100000 points"):
            build_model({"kind": "free-group", "rank": rank})
    with pytest.raises(ModelError, match="a ball of radius 1 holds more than 100000 points"):
        FreeGroupModel(10**8)
    assert time.perf_counter() - start < 0.5
    assert build_model({"kind": "free-group", "rank": 49_999}).rank == 49_999


# -- parsing and enumeration --------------------------------------------------


def test_parse_letters():
    assert parse_letters("abA", ("a", "b")) == (1, 2, -1)
    assert parse_letters("aba'", ("a", "b")) == (1, 2, -1)
    assert parse_letters("A'", ("a", "b")) == (1,)
    with pytest.raises(ModelError):
        parse_letters("c", ("a", "b"))


def _letters_by_loop(text, names):
    """parse_letters as one loop over the characters, the rule its table is made by."""
    index = {name: i + 1 for i, name in enumerate(names)}
    raw, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.lower() not in index:
            raise ModelError(f"unknown generator letter {ch!r} (expected one of {list(names)})")
        sign = -1 if ch.isupper() else 1
        if i + 1 < len(text) and text[i + 1] == "'":
            sign, i = -sign, i + 1
        raw.append(sign * index[ch.lower()])
        i += 1
    return tuple(raw)


def _outcome(parse, text, names):
    try:
        return parse(text, names)
    except ModelError as exc:
        return str(exc)


@pytest.mark.parametrize("names", [("a", "b"), ("f", "s"), ("a", "b", "c"), ("k",), ("x", "X")])
def test_parse_letters_equals_the_loop(names):
    # Seeded words with and without apostrophes, upper case, the empty word,
    # letters outside the names (the same message), and the Kelvin sign, whose
    # lower case is k and which is upper case.
    rng = random.Random(f"letters:{names}")
    alphabet = [*names, *(n.upper() for n in names), "'", "z", "Z", "K", "\u212a", "ß", " "]
    words = ["", "'", "a'", "A'", "\u212a", "k\u212a'", "abA", "zz", "aba'"]
    words += ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40))) for _ in range(300)]
    words += ["".join(rng.choice(alphabet[: 2 * len(names)]) for _ in range(rng.randint(1, 40))) for _ in range(300)]
    outcomes = [(_outcome(parse_letters, w, names), _outcome(_letters_by_loop, w, names)) for w in words]
    assert all(fast == loop for fast, loop in outcomes), [(w, o) for w, o in zip(words, outcomes) if o[0] != o[1]]
    assert {type(fast) for fast, _ in outcomes} == {tuple, str}  # words read, and words refused
    if names == ("k",):
        assert parse_letters("\u212a", names) == (-1,)


def test_reduced_word_counts():
    words = FreeGroupModel(2).group_ball(3)
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len == {0: 1, 1: 4, 2: 12, 3: 36}
    rank1 = [w for w in FreeGroupModel(1).group_ball(3) if w]
    assert len(rank1) == 6


def test_reduced_words_are_reduced_and_ordered():
    words = FreeGroupModel(2).group_ball(4)
    assert all(_RefFreeGroup(2).canon(w) == w for w in words)
    keys = [(len(w), w) for w in words]
    assert len(set(words)) == len(words)
    assert all(keys[i][0] <= keys[i + 1][0] for i in range(len(keys) - 1))
