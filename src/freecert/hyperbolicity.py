"""Thin-triangle constant computation and slimness checks.

The constant is quantified over *all* geodesic choices per vertex pair, not
just the canonical one, so downstream certificates see the worst case.  A
triple budget bounds the cost; exceeding it yields a clearly flagged sampled
report, never a silently truncated "exhaustive" one.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import combinations, product
from math import comb
from typing import Optional

from .isometry import EdgePath
from .models import ActionModel, ModelError

DEFAULT_TRIPLE_BUDGET = 200_000
DEFAULT_GEODESIC_CAP = 64


@dataclass(frozen=True)
class HyperbolicityReport:
    delta: int
    region: dict
    exhaustive: bool
    triple_count: int

    def to_doc(self) -> dict:
        return asdict(self)


def all_geodesics(model: ActionModel, x, y, cap: int = DEFAULT_GEODESIC_CAP):
    """All distinct geodesics from x to y, or the first ``cap`` of them.

    Returns (paths, truncated).  Tree models have a unique geodesic.  Else
    a depth-first walk steps to each neighbour one edge closer to y; the
    metric is exact, so each prefix is a geodesic from x.
    """
    if cap < 1:
        raise ModelError("cap must be >= 1")
    if model.is_tree:
        return [model.geodesic(x, y)], False
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
            if len(paths) >= cap:
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


def _slack(sides) -> tuple[int, object]:
    """(slack, witness) of three :class:`EdgePath` sides of a triangle.

    The slack is the largest distance from a vertex of one side to the
    other two; the witness is the first vertex at it (else the first point).
    A vertex on another side is skipped before any distance is measured.
    """
    a, b, c = sides
    worst, witness = 0, a.points[0]
    for side, o1, o2 in ((a, b, c), (b, a, c), (c, a, b)):
        for v in side.points:
            if v in o1.members or v in o2.members:
                continue
            d = min(o1.distance(v), o2.distance(v))
            if d > worst:
                worst, witness = d, v
    return worst, witness


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
    worst, witness = _slack([EdgePath(model, side) for side in triangle])
    return worst <= delta, witness


def _triple_delta(model: ActionModel, x, y, z) -> tuple[int, bool]:
    """(needed delta, truncated) of one vertex triple over all geodesic choices."""
    choices = []
    truncated = False
    for p, q in ((x, y), (y, z), (x, z)):
        paths, trunc = all_geodesics(model, p, q)
        choices.append([EdgePath(model, path) for path in paths])
        truncated = truncated or trunc
    return max(_slack(sides)[0] for sides in product(*choices)), truncated


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
    ``triple_budget``, otherwise samples that many triples with a seeded
    RNG and reports ``exhaustive=False``.
    """
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
    if exhaustive:
        triples = combinations(range(n), 3)
    else:
        rng = random.Random(seed)
        triples = (rng.sample(range(n), 3) for _ in range(triple_budget))
    delta = count = 0
    for i, j, k in triples:
        needed, truncated = _triple_delta(model, points[i], points[j], points[k])
        delta = max(delta, needed)
        exhaustive = exhaustive and not truncated
        count += 1
    return HyperbolicityReport(delta, region, exhaustive, count)
