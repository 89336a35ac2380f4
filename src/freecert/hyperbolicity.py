"""Thin-triangle constant computation and slimness checks.

The constant is quantified over *all* geodesic choices per vertex pair, not
just the canonical one, so downstream certificates see the worst case.
Each side, the geodesics between one pair of points, is measured once, and
the worst choice is taken one side at a time: a vertex of one side is
measured against the farthest choice of each other side, never against
every combination of choices.  On a tree, whose geodesics are unique, a
side is joined from its corners' branches out of the region's first
point, each built once per call, with its vertices as integer ids.  A
triple budget bounds the cost; exceeding it yields a clearly flagged
sampled report, never a silently truncated "exhaustive" one.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import combinations
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

    Returns (paths, truncated).  A depth-first walk steps to each neighbour
    one edge closer to y; the metric is exact, so each prefix is a geodesic
    from x.
    """
    if x == y:
        return [[x]], False

    target = model.distance(x, y)
    paths: list[list] = []
    truncated = False

    def walk(path: list) -> bool:
        nonlocal truncated
        p = path[-1]
        if p == y:
            paths.append(list(path))
            if len(paths) >= GEODESIC_CAP:
                truncated = True
                return False
            return True
        for q in model.neighbors(p):
            if model.distance(q, y) == target - len(path):
                path.append(q)
                if not walk(path):
                    return False
                path.pop()
        return True

    walk([x])
    return paths, truncated


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
    """Sides of tree triangles, joined from their corners' branches, on integer ids.

    A tree has one geodesic per pair of points, so side i-j is the branch
    from ``points[0]`` to ``points[i]``, walked back to where the branch to
    ``points[j]`` leaves it, then that branch onwards.  Each branch is one
    :meth:`ActionModel.geodesic`, built on first use, its vertices interned
    as ints scoped to this object: a side is two tuple slices, and its
    :class:`EdgePath` hashes ints.  This object is those paths' metric:
    ``point`` maps an id back to its point, and ``distance`` measures there.
    """

    def __init__(self, model: ActionModel, points):
        self.model = model
        self.points = points
        self._ids: dict = {}  # point -> id, handed out in insertion order
        self._vertices: list = []  # id -> point, rebuilt when an id is past its end
        self._branches: list = [None] * len(points)

    def _branch(self, i: int):
        """(branch, reversed branch, vertex set) from points[0] to points[i], built and cached."""
        ids = self._ids
        path = tuple([ids.setdefault(v, len(ids)) for v in self.model.geodesic(self.points[0], self.points[i])])
        branch = self._branches[i] = (path, path[::-1], frozenset(path))
        return branch

    def side(self, i: int, j: int) -> EdgePath:
        branches = self._branches
        path_i, back_i, set_i = branches[i] or self._branch(i)
        path_j, _, set_j = branches[j] or self._branch(j)
        shared = len(set_i & set_j)  # two branches from one root share exactly a prefix
        return EdgePath(self, back_i[: len(path_i) - shared + 1] + path_j[shared:])

    def point(self, x: int):
        """The point whose id is x."""
        if x >= len(self._vertices):
            self._vertices = list(self._ids)
        return self._vertices[x]

    def distance(self, x: int, y: int) -> int:
        return self.model.distance(self.point(x), self.point(y))


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


def check_slim(model: ActionModel, triangle, delta: int):
    """Check a geodesic triangle is delta-slim; return (ok, worst witness).

    ``triangle`` is three geodesic paths sharing endpoints pairwise; each
    must be an edge path (consecutive points at distance <= 1).
    """
    a, b, c = triangle
    ends = {frozenset((p[0], p[-1])) for p in triangle if p[0] != p[-1]}
    corners = {a[0], a[-1], b[0], b[-1], c[0], c[-1]}
    if len(corners) > 3 or (len(corners) == 3 and len(ends) != 3):
        raise ModelError("paths do not form a triangle")
    if any(model.distance(p, q) > 1 for side in triangle for p, q in zip(side, side[1:])):
        raise ModelError("triangle sides must be edge paths")
    worst, witness = _slimness([EdgePath(model, side) for side in triangle])
    return worst <= delta, witness


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
    tree, either way, a side is built from its corners' cached branches
    (see :class:`_TreeSides`).  A ``triple_budget`` below 1 is refused.
    """
    if triple_budget < 1:
        raise ModelError(f"triple budget must be >= 1, got {triple_budget}")
    if points is None:
        center = model.basepoint()
        points = model.ball(center, radius)
        region = {"center": repr(center), "radius": radius, "size": len(points)}
    else:
        region = {"explicit": True, "size": len(points)}
    n = len(points)
    if n < 3:
        return HyperbolicityReport(0, region, True, 0)

    exhaustive = comb(n, 3) <= triple_budget
    truncated = False

    def graph_side(i: int, j: int):
        """Side points[i]-points[j]: an :class:`EdgePath` for one geodesic, else a :class:`_GeodesicSet`."""
        nonlocal truncated
        paths, trunc = all_geodesics(model, points[i], points[j])
        truncated = truncated or trunc
        return EdgePath(model, paths[0]) if len(paths) == 1 else _GeodesicSet(model, paths)

    side = _TreeSides(model, points).side if model.is_tree else graph_side

    if exhaustive:
        table = [[side(i, j) if i < j else None for j in range(n)] for i in range(n)]
        triangles = ((table[i][j], table[j][k], table[i][k]) for i, j, k in combinations(range(n), 3))
    else:
        triples = _triples(random.Random(seed), n, triple_budget)
        triangles = ((side(i, j), side(j, k), side(i, k)) for i, j, k in triples)
    delta = count = 0
    for sides in triangles:
        delta = max(delta, _slimness(sides)[0])
        count += 1
    return HyperbolicityReport(delta, region, exhaustive and not truncated, count)
