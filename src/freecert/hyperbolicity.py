"""Thin-triangle constant computation.

The constant is quantified over *all* geodesic choices per vertex pair, not
just the canonical one, so downstream certificates see the worst case.
Each side, the geodesics between one pair of points, is measured once, and
the worst choice is taken one side at a time: a vertex of one side is
measured against the farthest choice of each other side, never against
every combination of choices.  On a tree ball, whose geodesics are unique,
a side is joined from its corners' branches out of the ball's center,
read off the ball's BFS parents and built once per call, with its
vertices as their places in the ball; an explicit region, on a tree as on
a graph, takes its sides from the model's geodesics.  A triple budget
bounds the cost; exceeding it yields a clearly flagged sampled report,
never a silently truncated "exhaustive" one.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import combinations, islice
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
    branch.  A branch, built on first use, is the branch of its nearest
    built ancestor plus the ids below it: a side is two tuple slices, and
    its :class:`EdgePath` hashes ints.  This object is those paths' metric:
    ``point`` maps an id back to its point, and ``distance`` measures there.
    """

    def __init__(self, model: ActionModel, parents: dict):
        self.model = model
        self._vertices, self._parents = list(parents), list(parents.values())
        self._branches: list = [None] * len(self._vertices)

    def _branch(self, x: int):
        """(branch, reversed branch, vertex set) from the root to id x, built and cached."""
        branches, parents, below = self._branches, self._parents, []
        y = x
        while y is not None and branches[y] is None:
            below.append(y)
            y = parents[y]
        path = (branches[y][0] if y is not None else ()) + tuple(reversed(below))
        branch = branches[x] = (path, path[::-1], frozenset(path))
        return branch

    def side(self, i: int, j: int) -> EdgePath:
        branches = self._branches
        path_i, back_i, set_i = branches[i] or self._branch(i)
        path_j, _, set_j = branches[j] or self._branch(j)
        shared = len(set_i & set_j)  # two branches from one root share exactly a prefix
        return EdgePath(self, back_i[: len(path_i) - shared + 1] + path_j[shared:])

    def point(self, x: int):
        """The point whose id is x."""
        return self._vertices[x]

    def distance(self, x: int, y: int) -> int:
        vertices = self._vertices
        return self.model.distance(vertices[x], vertices[y])


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
    tree ball, either way, a side is built from its corners' cached
    branches (see :class:`_TreeSides`); an explicit region's sides are the
    model's geodesics.  A ``triple_budget`` below 1 is refused.
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
        """Side points[i]-points[j]: an :class:`EdgePath` for one geodesic, else a :class:`_GeodesicSet`."""
        nonlocal truncated
        paths, trunc = all_geodesics(model, points[i], points[j])
        truncated = truncated or trunc
        return EdgePath(model, paths[0]) if len(paths) == 1 else _GeodesicSet(model, paths)

    side = _TreeSides(model, parents).side if model.is_tree and parents is not None else graph_side

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
