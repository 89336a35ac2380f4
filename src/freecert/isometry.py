"""Per-isometry analysis: translation length, hyperbolicity, axes, overlaps.

The translation length of g is the model's exact one (its
``exact_translation_length``: the cyclically reduced length on a Cayley
tree, 0 on a finite model), a single rational number, and g is hyperbolic
iff it is > 0.  An axis is built from the element's profile and starts at
the model's ``min_displacement_point``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .models import IDENTITY, ActionModel, CapExceeded, ModelError, Word, common_prefix

@dataclass(frozen=True)
class AxisData:
    """A window of an invariant (quasi-)axis.

    ``path`` is an edge path: consecutive points are at distance <= 1, as
    it is a concatenation of model geodesics.  The axis carries the
    :class:`EdgePath` over ``path`` that :func:`quasi_axis` built as
    ``edges``, and overlaps and chain base points measure against it
    instead of indexing the points again.  Two axes are equal when their
    path, mode, defect and step are.
    """

    path: tuple
    mode: str  # "geodesic-axis" | "quasi-geodesic-axis"
    invariance_defect: int
    step: int  # edges advanced per application; margin for end effects
    edges: EdgePath = field(compare=False, repr=False)


@dataclass(frozen=True)
class IsometryProfile:
    element: Word
    tr: Fraction

    def to_doc(self) -> dict:
        return {
            "element": list(self.element),
            "tr": str(self.tr),
            "hyperbolic": "yes" if self.tr > 0 else "no",
        }


@dataclass(frozen=True)
class OverlapReport:
    D: int
    c: int
    window: int
    witness_segment: tuple
    boundary_touching: bool
    unbounded_in_window: bool

    def to_doc(self) -> dict:
        return {
            "D": self.D,
            "c": self.c,
            "window": self.window,
            "witness_segment": [repr(p) for p in self.witness_segment],
            "boundary_touching": self.boundary_touching,
            "unbounded_in_window": self.unbounded_in_window,
        }


def classify(model: ActionModel, g: Word) -> IsometryProfile:
    """The canonical g and its exact translation length; g is hyperbolic iff it is > 0."""
    g = model.canon(g)
    return IsometryProfile(g, Fraction(model.exact_translation_length(g)))


# Highest power of g that :func:`displacement_power` tries.
POWER_CAP = 128


def displacement_power(model: ActionModel, g: Word, delta: int) -> Optional[int]:
    """The least n <= POWER_CAP at which some sampled p satisfies
    |p - g^n p| <= |g^n p - g^-n p| - 100(delta+1), or None.  The search also
    stops, with None, at a power of g that is the identity and once every
    sampled point outgrows the model cap.  g must be canonical.
    """
    sample = [model.basepoint()] + model.ball(model.basepoint(), 1)[1:3]
    margin = 100 * (delta + 1)
    fwd = IDENTITY
    for n in range(1, POWER_CAP + 1):
        fwd = model.compose(fwd, g)
        if fwd == IDENTITY:
            return None
        bwd = model.inverse(fwd)
        overflowed = 0
        for p in sample:
            try:
                fp, bp = model.apply(fwd, p), model.apply(bwd, p)
            except CapExceeded:
                overflowed += 1
                continue
            if model.distance(p, fp) <= model.distance(fp, bp) - margin:
                return n
        if overflowed == len(sample):
            break  # points can no longer be expanded; the search is over
    return None


class EdgePath:
    """Exact point-to-path distances on an edge path, without all-pairs scans.

    The path must be an edge path: consecutive points at distance <= 1.
    Then d(p, q_j) >= d(p, q_i) - |i - j| for any point p, so after reading
    d(p, q_i) a scan may jump over every index that cannot beat the value
    it looks for.  Points of the path are found by set lookup, at distance 0.
    """

    def __init__(self, model: ActionModel, points):
        self.model = model
        self.points = tuple(points)
        self.members = frozenset(self.points)

    def distance(self, p) -> int:
        """Exact distance from p to the path."""
        if p in self.members:
            return 0
        dist, points = self.model.distance, self.points
        best = dist(p, points[0])
        i = 1
        while i < len(points):
            d = dist(p, points[i])
            if d < best:
                best = d
            i += d - best + 1  # the points skipped cannot come closer than best
        return best

    def within(self, p, c: int) -> bool:
        """Whether some path point lies within c of p; stops at the first hit.

        Only a path point lies within 0 of the path, so c < 1 is decided by
        membership alone, without measuring a distance.
        """
        if p in self.members:
            return c >= 0
        if c < 1:
            return False
        dist, points = self.model.distance, self.points
        i = 0
        while i < len(points):
            d = dist(p, points[i])
            if d <= c:
                return True
            i += d - c  # the points skipped are farther than c
        return False

    def nearest(self, p):
        """The path point nearest p; ties go to the least ``point_key``."""
        if p in self.members:
            return p
        dist, key, points = self.model.distance, self.model.point_key, self.points
        best = (dist(p, points[0]), key(points[0]))
        found = points[0]
        i = 1
        while i < len(points):
            q = points[i]
            d = dist(p, q)
            if d <= best[0] and (d, key(q)) < best:
                best, found = (d, key(q)), q
            i += max(1, d - best[0])  # the points skipped are farther than best
        return found


def invariance_defect(model: ActionModel, g: Word, edges: EdgePath, step: int) -> int:
    """Largest distance from g.p to the path over its interior points p: every
    point but a margin of max(step, 1) at each end (all of a path too short
    to leave an interior).  The path's consecutive points must be adjacent.

    g.path[i] is compared with path[i + step], and measured only if it is not
    that point.  The left action commutes with right steps,
    g.(x.s) = (g.x).s, so after a match the next image is path[i + step + 1]
    exactly when the two edges carry the same ``model.edge_labels`` label: a
    run of agreeing labels is read in one slice comparison, and g is applied
    only where a run starts or breaks.
    """
    path = edges.points
    margin = max(step, 1)
    lo, hi = (margin, len(path) - margin) if len(path) > 2 * margin else (0, len(path))
    labels = model.edge_labels(path)
    defect, i = 0, lo
    while i < hi:
        j = i + step
        q = model.apply(g, path[i])
        if j < len(path) and q == path[j]:
            n = min(hi - 1 - i, len(labels) - j)  # the run ends at hi and at the last edge
            i += common_prefix(labels[i : i + n], labels[j : j + n]) + 1
        else:
            defect = max(defect, edges.distance(q))
            i += 1
    return defect


def quasi_axis(model: ActionModel, profile: IsometryProfile, window: int = 8, delta: int = 0) -> AxisData:
    """Invariant (quasi-)axis of a hyperbolic element, built from the profile
    :func:`classify` returned for it, on a window.

    Walks the orbit g^-window p* .. g^window p* of a minimal-displacement
    base point p* one cap-checked application of g^-1 or g per point, so a
    window too long for the model cap is refused once the walk passes the
    cap, and concatenates geodesics between consecutive orbit points.
    Classifies the result as a genuine geodesic axis when the concatenation
    is a geodesic with :func:`invariance_defect` <= 2*delta, otherwise
    verifies the quasi-geodesic-axis properties on the window: bounded
    defect, and subpaths within 10*delta of the geodesics between their
    endpoints.  A window below 1 is refused.
    """
    if profile.tr <= 0:
        raise ModelError("quasi_axis requires a hyperbolic element")
    if window < 1:
        raise ModelError(f"window must be >= 1, got {window}")
    g = profile.element
    g_inv = model.inverse(g)
    orbit = [model.min_displacement_point(g)]
    for _ in range(window):
        orbit.append(model.apply(g_inv, orbit[-1]))
    orbit.reverse()
    for _ in range(window):
        orbit.append(model.apply(g, orbit[-1]))
    step = model.distance(orbit[window], orbit[window + 1])
    path: list = []
    for u, v in zip(orbit, orbit[1:]):
        seg = model.geodesic(u, v)
        path.extend(seg if not path else seg[1:])
    edge_path = EdgePath(model, path)
    defect = invariance_defect(model, g, edge_path, step)

    is_geodesic = len(path) - 1 == model.distance(path[0], path[-1])
    if is_geodesic and defect <= 2 * delta:
        return AxisData(edge_path.points, "geodesic-axis", defect, step, edge_path)

    # Fact-12 style checks on the window.
    if defect > 30 * delta:
        raise ModelError("path fails quasi-geodesic-axis invariance on the window")
    stride = max(1, len(path) // 24)
    for i in range(0, len(path), stride):
        for j in range(i + 2, len(path), stride):
            sub = EdgePath(model, path[i : j + 1])
            geo = EdgePath(model, model.geodesic(path[i], path[j]))
            close = all(geo.within(p, 10 * delta) for p in sub.points) and all(
                sub.within(q, 10 * delta) for q in geo.points
            )
            if not close:
                raise ModelError("subpath strays beyond 10*delta of its chord")
    return AxisData(edge_path.points, "quasi-geodesic-axis", defect, step, edge_path)


def overlap_points(near_a: EdgePath, near_b: EdgePath, c: int) -> tuple[list, list, list]:
    """The c-overlap of two edge paths, each given as its :class:`EdgePath`
    (an axis carries its own as ``edges``).

    Returns (in_a, in_b, union): the points of each path within c of the
    other, and both lists joined in order without repeats.  Only a path
    point lies within 0 of a path, and none within c < 0, so c < 1 is
    decided by membership alone, in one comprehension per path.
    """
    if c >= 1:
        in_a = [p for p in near_a.points if near_b.within(p, c)]
        in_b = [q for q in near_b.points if near_a.within(q, c)]
    elif c == 0:
        in_a = [p for p in near_a.points if p in near_b.members]
        in_b = [q for q in near_b.points if q in near_a.members]
    else:
        in_a = in_b = []
    return in_a, in_b, list(dict.fromkeys(in_a + in_b))


def farthest_pair(model: ActionModel, points) -> tuple:
    """(d, p, q) with d = d(p, q) the diameter of a nonempty point list; first pair wins ties."""
    best = (0, points[0], points[0])
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            d = model.distance(p, q)
            if d > best[0]:
                best = (d, p, q)
    return best


def overlap_diameter(model: ActionModel, axis_a: AxisData, axis_b: AxisData, c: int) -> OverlapReport:
    """Diameter of the c-overlap of two axes, within their windows.

    The overlap set is (A in the c-neighborhood of B) union (B in the
    c-neighborhood of A); the empty set has diameter 0 by convention.
    Both axis paths are edge paths (consecutive points at distance <= 1),
    which lets :func:`overlap_points` skip along each axis's own
    :class:`EdgePath` instead of scanning.  Touching a window end makes D
    only a lower bound, and touching both ends of one axis flags the
    overlap as unbounded in the window.
    """
    pa, pb = axis_a.path, axis_b.path
    window = min(len(pa), len(pb)) - 1

    in_a, in_b, union = overlap_points(axis_a.edges, axis_b.edges, c)
    if not union:
        return OverlapReport(0, c, window, (), False, False)

    D, p, q = farthest_pair(model, union)
    witness = tuple(model.geodesic(p, q))

    def touches(points, path, step):
        m = max(step, 1)
        head, tail = set(path[:m]), set(path[-m:])
        return any(p in head for p in points), any(p in tail for p in points)

    a_head, a_tail = touches(in_a, pa, axis_a.step)
    b_head, b_tail = touches(in_b, pb, axis_b.step)
    boundary = a_head or a_tail or b_head or b_tail
    unbounded = (a_head and a_tail) or (b_head and b_tail)
    return OverlapReport(D, c, window, witness, boundary, unbounded)


def independence_test(model: ActionModel, a: Word, b: Word, exponent_bound: int):
    """Search for commuting power pairs [a^p, b^q] = 1 with |p|,|q| <= bound.

    Returns ("dependent", (p, q)) on the first trivially-acting commutator
    (smallest |p|+|q|) or ("independent-to-bound", None).  The commutator
    is trivial exactly when a^p b^q = b^q a^p, which is decided as that
    equality of two products.  A power of a commutes with b^q exactly when
    its inverse does (and likewise for b), so the four signs of (p, q) share
    one verdict: only p, q > 0 are tried, and the witness is the one a
    search over every sign, positive signs first, finds.
    """
    if exponent_bound < 1:
        raise ModelError("exponent_bound must be >= 1")
    a, b = model.canon(a), model.canon(b)
    exponents = range(1, exponent_bound + 1)
    a_pow = {e: model.power(a, e) for e in exponents}
    b_pow = {f: model.power(b, f) for f in exponents}
    for p, q in sorted(((p, q) for p in exponents for q in exponents), key=lambda t: (t[0] + t[1], t)):
        if model.compose(a_pow[p], b_pow[q]) == model.compose(b_pow[q], a_pow[p]):
            return "dependent", (p, q)
    return "independent-to-bound", None
