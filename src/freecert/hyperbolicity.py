"""Thin-triangle constant computation.

The constant is quantified over *all* geodesic choices per vertex pair, not
just the canonical one, so downstream certificates see the worst case.
Each side, the geodesics between one pair of points, is measured once, and
the worst choice is taken one side at a time: a vertex of one side is
measured against the farthest choice of each other side, never against
every combination of choices.  On a tree ball, whose geodesics are unique,
a point's id is its place in the ball, and a side is a tuple of ids
joined from its corners' branches out of the ball's center: each branch
is read off the ball's BFS parents on first use and kept as its ids and
their set.  A triangle's three sides are then scanned, each vertex looked
up in the other two sides' sets, and distances are measured only if some
vertex lies on neither, which no tree triangle has.  An explicit region,
on a tree as on a graph, takes its sides from the model's geodesics, and
such a triangle is measured only if half its longest side, rounded down,
beats the running delta: a vertex v of side x-y is at most min(d(v, x),
d(v, y)) <= floor(d(x, y) / 2) from every choice of the other two sides,
as each holds x or y.  Its sides are still built, so truncation and the
triple count do not change; a tree ball scans every triangle.  A
triple budget bounds the cost; exceeding it yields a clearly flagged
sampled report, never a silently truncated "exhaustive" one.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import partial
from itertools import combinations, islice, starmap
from math import comb
from typing import Optional

from .isometry import EdgePath
from .models import ActionModel, ModelError

DEFAULT_TRIPLE_BUDGET = 200_000
# Most geodesics :func:`all_geodesics` lists between two points.
GEODESIC_CAP = 64


@dataclass(frozen=True)
class HyperbolicityReport:
    delta: int
    region: dict
    exhaustive: bool
    triple_count: int

    def to_doc(self) -> dict:
        return asdict(self)


def all_geodesics(model: ActionModel, x, y):
    """All distinct geodesics from x to y, or the first GEODESIC_CAP of them.

    Returns (paths, truncated): the first GEODESIC_CAP of
    :meth:`ActionModel.geodesics`, truncated when the cap is reached.
    """
    paths = list(islice(model.geodesics(x, y), GEODESIC_CAP))
    return paths, len(paths) == GEODESIC_CAP


class _GeodesicSet:
    """Every geodesic between two points, as a triangle side whose choice is open.

    It offers the :class:`EdgePath` interface the slimness measure reads:
    ``points`` are the vertices of any geodesic, ``members`` those on every
    geodesic (at distance 0 from each choice), and ``distance(v)`` is the
    distance from v to the farthest choice, memoised per vertex.
    """

    def __init__(self, model: ActionModel, paths):
        self.model = model
        self.ends = paths[0][0], paths[0][-1]
        self.paths = [EdgePath(model, path) for path in paths]
        self.points = tuple(dict.fromkeys(v for path in paths for v in path))
        self.members = frozenset.intersection(*(path.members for path in self.paths))
        self._far: dict = {}

    def distance(self, v) -> int:
        """Distance from v to the farthest choice.

        Every choice holds both ends, so none is farther than the nearer
        end; the scan over choices stops at the first that reaches it.
        """
        far = self._far.get(v)
        if far is None:
            x, y = self.ends
            bound = min(self.model.distance(v, x), self.model.distance(v, y))
            far = 0
            for path in self.paths:
                d = path.distance(v)
                if d > far:
                    far = d
                    if far >= bound:
                        break
            self._far[v] = far
        return far


class _TreeSides:
    """Sides of tree-ball triangles, joined from their corners' branches, on integer ids.

    A tree has one geodesic per pair of points, so side i-j is the branch
    from the center to the ball's point i, walked back to where the branch
    to point j leaves it, then that branch onwards.  A point's id is its
    place in the ball, whose BFS parents, the center's None, give each
    branch.  A branch is built on first use, as its ids from the center and
    their set: the branch of its nearest built ancestor plus the ids below
    it.  Two branches share exactly a prefix, as long as their sets'
    intersection, so a side is two tuple slices, and a triangle is measured
    by :func:`_tripod_slack` on its sides' ids and sets.  This object is
    their metric: ``point`` maps an id back to its point, and ``distance``
    measures there.
    """

    def __init__(self, model: ActionModel, parents: dict):
        self.model = model
        self._vertices, self._parents = list(parents), list(parents.values())
        self._branches: list = [None] * len(self._vertices)

    def _branch(self, x: int):
        """(branch, vertex set) from the root to id x, built and cached."""
        branches, parents, below = self._branches, self._parents, []
        y = x
        while y is not None and branches[y] is None:
            below.append(y)
            y = parents[y]
        below.reverse()
        path = branches[y][0] + tuple(below) if y is not None else tuple(below)
        branch = branches[x] = (path, frozenset(path))
        return branch

    def side(self, i: int, j: int):
        """(ids, id set) of side i-j, joined as :meth:`slack` joins it."""
        branches = self._branches
        path_i, set_i = branches[i] or self._branch(i)
        path_j, set_j = branches[j] or self._branch(j)
        s = len(set_i & set_j)  # the branches' shared prefix: their last common id is at s - 1
        ids = path_i[: s - 1 : -1] + path_j[s - 1 :]
        return ids, frozenset(ids)

    def slack(self, i: int, j: int, k: int) -> int:
        """Slack of the triangle on ids i, j, k: sides i-j, j-k and i-k joined, then :func:`_tripod_slack`."""
        branches = self._branches
        path_i, set_i = branches[i] or self._branch(i)
        path_j, set_j = branches[j] or self._branch(j)
        path_k, set_k = branches[k] or self._branch(k)
        s = len(set_i & set_j)
        a = path_i[: s - 1 : -1] + path_j[s - 1 :]
        s = len(set_j & set_k)
        b = path_j[: s - 1 : -1] + path_k[s - 1 :]
        s = len(set_i & set_k)
        c = path_i[: s - 1 : -1] + path_k[s - 1 :]
        return _tripod_slack(self, (a, frozenset(a)), (b, frozenset(b)), (c, frozenset(c)))

    def point(self, x: int):
        """The point whose id is x."""
        return self._vertices[x]

    def distance(self, x: int, y: int) -> int:
        vertices = self._vertices
        return self.model.distance(vertices[x], vertices[y])


def _tripod_slack(metric, a, b, c) -> int:
    """Slack of a triangle whose sides a, b, c are (edge path, its point set) over ``metric``.

    Every vertex of every side is looked up in the other two sets, the skip
    rule of :func:`_slimness`.  If each lies on another side, the triangle
    is a tripod, as every triangle of a tree is, and its slack is 0 with no
    distance measured; at the first vertex on neither, the sides become
    :class:`EdgePath`s over ``metric`` and :func:`_slimness` measures them.
    """
    (path_a, set_a), (path_b, set_b), (path_c, set_c) = a, b, c
    # One loop per side: a tuple of (side, set, set) per call costs a tree triple 10%.
    for v in path_a:
        if v not in set_b and v not in set_c:
            break
    else:
        for v in path_b:
            if v not in set_a and v not in set_c:
                break
        else:
            for v in path_c:
                if v not in set_a and v not in set_b:
                    break
            else:
                return 0
    return _slimness((EdgePath(metric, path_a), EdgePath(metric, path_b), EdgePath(metric, path_c)))[0]


def _slimness(sides) -> tuple[int, object]:
    """(slack, witness) of a triangle, its geodesic choices taken one side at a time.

    The slack is the largest distance from a vertex of one side to the
    nearer of the other two; the witness is the first vertex at it (else the
    first point of the first side).  A vertex on every choice of another
    side is skipped before any distance is measured.  On
    :class:`_GeodesicSet` sides this is the worst case over all choices:
    for independent choices Q, R of the other two sides,
    max min(d(v, Q), d(v, R)) = min(max_Q d(v, Q), max_R d(v, R)).
    """
    a, b, c = sides
    worst, witness = 0, a.points[0]
    for side, o1, o2 in ((a, b, c), (b, a, c), (c, a, b)):
        for v in side.points:
            if v in o1.members or v in o2.members:
                continue
            d = o1.distance(v)
            if d > worst:
                d = min(d, o2.distance(v))
                if d > worst:
                    worst, witness = d, v
    return worst, witness


def _triples(rng: random.Random, n: int, count: int):
    """``count`` index triples, each the one ``rng.sample(range(n), 3)`` would draw next.

    For n > 21 ``Random.sample`` draws each index as
    ``getrandbits(n.bit_length())``, drawing again on a value >= n or on an
    index already taken; this draws the same bits without its per-call
    setup.  Below that it shuffles a pool, so small n is left to it.
    """
    if n <= 21:
        population = range(n)
        for _ in range(count):
            yield rng.sample(population, 3)
        return
    bits, draw = n.bit_length(), rng.getrandbits
    for _ in range(count):
        i = draw(bits)
        while i >= n:
            i = draw(bits)
        j = draw(bits)
        while j >= n or j == i:
            j = draw(bits)
        k = draw(bits)
        while k >= n or k == i or k == j:
            k = draw(bits)
        yield i, j, k


def compute_delta(
    model: ActionModel,
    radius: int = 4,
    points: Optional[list] = None,
    triple_budget: int = DEFAULT_TRIPLE_BUDGET,
    seed: int = 0,
) -> HyperbolicityReport:
    """Minimal integer delta making every triangle in the region delta-slim.

    The region is ``points``, or the ball of ``radius`` about the model's
    basepoint.  Enumerates every vertex triple when that fits in
    ``triple_budget``, otherwise samples that many triples and reports
    ``exhaustive=False``: the triples ``random.Random(seed).sample(range(n),
    3)`` would draw, in order, so a seed names the same triples on every
    supported Python.  Each side is measured once: when
    enumerating, one table holds a side per pair of points before the
    triple loop; when sampling, each triple builds its three sides.  On a
    tree ball, either way, a side is ids joined from its corners' cached
    branches and a triangle is scanned by :func:`_tripod_slack` (see
    :class:`_TreeSides`); an explicit region's sides are the model's
    geodesics, measured by :func:`_slimness` only where half the longest
    side, rounded down, exceeds the delta found so far, as no triangle's
    slack is above that.  A ``triple_budget`` below 1 is refused.
    """
    if triple_budget < 1:
        raise ModelError(f"triple budget must be >= 1, got {triple_budget}")
    parents = None
    if points is None:
        center = model.basepoint()
        parents = model.ball_parents(center, radius)
        points = list(parents)
        region = {"center": repr(center), "radius": radius, "size": len(points)}
    else:
        region = {"explicit": True, "size": len(points)}
    n = len(points)
    if n < 3:
        return HyperbolicityReport(0, region, True, 0)

    exhaustive = comb(n, 3) <= triple_budget
    truncated = False

    def graph_side(i: int, j: int):
        """(side, half its length rounded down): an :class:`EdgePath` for one geodesic, else a :class:`_GeodesicSet`."""
        nonlocal truncated
        paths, trunc = all_geodesics(model, points[i], points[j])
        truncated = truncated or trunc
        side = EdgePath(model, paths[0]) if len(paths) == 1 else _GeodesicSet(model, paths)
        return side, (len(paths[0]) - 1) // 2

    def graph_slack(a, b, c) -> int:
        """Slack of a triangle of graph sides, or 0 if no side's half length beats the running delta."""
        (a, half_a), (b, half_b), (c, half_c) = a, b, c
        return _slimness((a, b, c))[0] if max(half_a, half_b, half_c) > delta else 0

    if model.is_tree and parents is not None:
        tree = _TreeSides(model, parents)
        side, slack = tree.side, partial(_tripod_slack, tree)
    else:
        tree, side, slack = None, graph_side, graph_slack

    if exhaustive:
        table = [[side(i, j) if i < j else None for j in range(n)] for i in range(n)]
        slacks = (slack(table[i][j], table[j][k], table[i][k]) for i, j, k in combinations(range(n), 3))
    else:
        triples = _triples(random.Random(seed), n, triple_budget)
        if tree is None:
            slacks = (slack(side(i, j), side(j, k), side(i, k)) for i, j, k in triples)
        else:
            slacks = starmap(tree.slack, triples)
    delta = count = 0
    for d in slacks:
        if d > delta:
            delta = d
        count += 1
    return HyperbolicityReport(delta, region, exhaustive and not truncated, count)
