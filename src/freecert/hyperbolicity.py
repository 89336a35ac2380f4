"""Thin-triangle constant computation and slimness checks.

The constant is quantified over *all* geodesic choices per vertex pair, not
just the canonical one, so downstream certificates see the worst case.  A
triple budget bounds the cost; exceeding it yields a clearly flagged sampled
report, never a silently truncated "exhaustive" one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Optional

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
        return {
            "delta": self.delta,
            "region": self.region,
            "exhaustive": self.exhaustive,
            "triple_count": self.triple_count,
        }


def all_geodesics(model: ActionModel, x, y, cap: int = DEFAULT_GEODESIC_CAP):
    """All distinct geodesics from x to y, or the first ``cap`` of them.

    Returns (paths, truncated).  Tree models have a unique geodesic and
    skip the BFS-DAG enumeration entirely.
    """
    if cap < 1:
        raise ModelError("cap must be >= 1")
    if model.is_tree:
        return [model.geodesic(x, y)], False
    if x == y:
        return [[x]], False

    target = model.distance(x, y)
    # BFS layers from x out to d(x, y), then walk the shortest-path DAG.
    dist = {x: 0}
    frontier = [x]
    for d in range(target):
        nxt = []
        for p in frontier:
            for q in model.neighbors(p):
                if q not in dist:
                    dist[q] = d + 1
                    nxt.append(q)
        frontier = nxt

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
            if dist.get(q) == len(path) and model.distance(q, y) == target - len(path):
                path.append(q)
                if not walk(path):
                    return False
                path.pop()
        return True

    walk([x])
    return paths, truncated


def _side_slack(model: ActionModel, side, other_union: set, other_points: list) -> tuple[int, object]:
    """Max over vertices of ``side`` of the distance to the other two sides."""
    worst = 0
    witness = side[0]
    for v in side:
        if v in other_union:
            continue
        d = min(model.distance(v, u) for u in other_points)
        if d > worst:
            worst = d
            witness = v
    return worst, witness


def check_slim(model: ActionModel, triangle, delta: int):
    """Check a geodesic triangle is delta-slim; return (ok, worst witness).

    ``triangle`` is three geodesic paths sharing endpoints pairwise.
    """
    a, b, c = triangle
    ends = {frozenset((p[0], p[-1])) for p in triangle if p[0] != p[-1]}
    corners = {a[0], a[-1], b[0], b[-1], c[0], c[-1]}
    if len(corners) > 3 or (len(corners) == 3 and len(ends) != 3):
        raise ModelError("paths do not form a triangle")
    worst = 0
    witness = a[0]
    for side, o1, o2 in ((a, b, c), (b, a, c), (c, a, b)):
        union = set(o1) | set(o2)
        slack, w = _side_slack(model, side, union, list(union))
        if slack > worst:
            worst, witness = slack, w
    return worst <= delta, witness


def _triple_delta(model: ActionModel, x, y, z, cap: int) -> tuple[int, int, bool]:
    """Slimness requirement of one vertex triple over all geodesic choices.

    Returns (needed delta, number of geodesic combinations, truncated).
    """
    gxy, t1 = all_geodesics(model, x, y, cap)
    gyz, t2 = all_geodesics(model, y, z, cap)
    gxz, t3 = all_geodesics(model, x, z, cap)
    needed = 0
    combos = 0
    for a in gxy:
        for b in gyz:
            for c in gxz:
                combos += 1
                for side, o1, o2 in ((a, b, c), (b, a, c), (c, a, b)):
                    union = set(o1) | set(o2)
                    pts = list(union)
                    slack, _ = _side_slack(model, side, union, pts)
                    if slack > needed:
                        needed = slack
    return needed, combos, (t1 or t2 or t3)


def compute_delta(
    model: ActionModel,
    center=None,
    radius: int = 4,
    points: Optional[list] = None,
    triple_budget: int = DEFAULT_TRIPLE_BUDGET,
    geodesic_cap: int = DEFAULT_GEODESIC_CAP,
    seed: int = 0,
) -> HyperbolicityReport:
    """Minimal integer delta making every triangle in the region delta-slim.

    Enumerates every vertex triple when that fits in ``triple_budget``,
    otherwise samples triples with a seeded RNG and reports
    ``exhaustive=False``.
    """
    if points is None:
        if center is None:
            center = model.basepoint()
        points = model.ball(center, radius)
        region = {"center": repr(center), "radius": radius, "size": len(points)}
    else:
        region = {"explicit": True, "size": len(points)}
    n = len(points)
    if n < 3:
        return HyperbolicityReport(0, region, True, 0)

    delta = 0
    count = 0
    truncated_any = False
    if comb(n, 3) <= triple_budget:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    needed, combos, trunc = _triple_delta(
                        model, points[i], points[j], points[k], geodesic_cap
                    )
                    count += 1
                    truncated_any = truncated_any or trunc
                    if needed > delta:
                        delta = needed
        exhaustive = not truncated_any
    else:
        rng = random.Random(seed)
        while count < triple_budget:
            i, j, k = rng.sample(range(n), 3)
            needed, combos, trunc = _triple_delta(model, points[i], points[j], points[k], geodesic_cap)
            count += 1
            truncated_any = truncated_any or trunc
            if needed > delta:
                delta = needed
        exhaustive = False
    return HyperbolicityReport(delta, region, exhaustive, count)
