"""Per-isometry analysis: translation length, hyperbolicity, axes, overlaps.

Translation lengths are intervals [tr_lower, tr_upper] with an exactness
flag.  Where the model knows the exact length (its
``exact_translation_length``: the cyclically reduced length on a Cayley
tree, 0 on a finite model) the interval collapses to it; everywhere else
the estimator is conservative, so downstream certificate inequalities can
always pick the safe end.  An axis is built from the element's profile
and starts at the model's ``min_displacement_point``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .models import IDENTITY, ActionModel, CapExceeded, ModelError, Word

HYPERBOLIC_YES = "yes"
HYPERBOLIC_NO = "no"
HYPERBOLIC_UNKNOWN = "unknown"


@dataclass(frozen=True)
class AxisData:
    """A window of an invariant (quasi-)axis.

    ``path`` is an edge path: consecutive points are at distance <= 1, as
    it is a concatenation of model geodesics.  :class:`EdgePath` relies on
    this to skip ahead when measuring distances to the path.
    """

    path: tuple
    mode: str  # "geodesic-axis" | "quasi-geodesic-axis"
    invariance_defect: int
    step: int = 1  # edges advanced per application; margin for end effects


@dataclass(frozen=True)
class IsometryProfile:
    element: Word
    tr_lower: Fraction
    tr_upper: Fraction
    exact: bool
    hyperbolic: str
    criterion1_power: Optional[int] = None

    def to_doc(self) -> dict:
        return {
            "element": list(self.element),
            "tr_lower": str(self.tr_lower),
            "tr_upper": str(self.tr_upper),
            "exact": self.exact,
            "hyperbolic": self.hyperbolic,
            "criterion1_power": self.criterion1_power,
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


# Powers n <= TRANSLATION_DEPTH (and 2n) feed the generic translation-length bounds.
TRANSLATION_DEPTH = 12


def translation_length(model: ActionModel, g: Word):
    """Translation length interval (tr_lower, tr_upper, exact).

    Generic bounds: tr_upper = min_n d(x, g^n x)/n (subadditivity);
    tr_lower = max_n (d(x, g^2n x) - d(x, g^n x))/n, floored at 0.
    g may be any word: it only reaches the model's own methods.
    """
    exact = model.exact_translation_length(g)
    if exact is not None:
        v = Fraction(exact)
        return v, v, True

    bases = [model.basepoint()]
    bases.extend(model.ball(model.basepoint(), 2)[1:4])
    lower = Fraction(0)
    upper: Optional[Fraction] = None
    for x in bases:
        disp = {}
        p = x
        for n in range(1, 2 * TRANSLATION_DEPTH + 1):
            p = model.apply(g, p)
            disp[n] = model.distance(x, p)
        for n in range(1, TRANSLATION_DEPTH + 1):
            u = Fraction(disp[n], n)
            upper = u if upper is None else min(upper, u)
            lo = Fraction(disp[2 * n] - disp[n], n)
            if lo > lower:
                lower = lo
    assert upper is not None
    if lower > upper:
        lower = upper
    return lower, upper, False


def classify(model: ActionModel, g: Word, delta: int, power_cap: int = 128) -> IsometryProfile:
    """Hyperbolicity verdict for g, with the displacement-criterion power.

    Records the least n <= power_cap at which some sampled p satisfies
    |p - g^n p| <= |g^n p - g^-n p| - 100(delta+1).  ``unknown`` is a
    legitimate outcome: the criterion is sufficient, not complete.
    """
    if power_cap < 1:
        raise ModelError("power_cap must be >= 1")
    g = model.canon(g)
    tr_lower, tr_upper, exact = translation_length(model, g)

    sample = [model.basepoint()] + model.ball(model.basepoint(), 1)[1:3]
    criterion1_power = None
    finite_order = g == IDENTITY
    margin = 100 * (delta + 1)
    fwd = ()
    for n in range(1, power_cap + 1):
        fwd = model.compose(fwd, g)
        if fwd == IDENTITY:
            finite_order = True
            break
        bwd = model.inverse(fwd)
        if criterion1_power is None:
            overflowed = 0
            for p in sample:
                try:
                    fp, bp = model.apply(fwd, p), model.apply(bwd, p)
                except CapExceeded:
                    overflowed += 1
                    continue
                if model.distance(p, fp) <= model.distance(fp, bp) - margin:
                    criterion1_power = n
                    break
            if overflowed == len(sample):
                break  # points can no longer be expanded; the search is over
        if criterion1_power is not None:
            break

    if finite_order:
        verdict = HYPERBOLIC_NO
    elif criterion1_power is not None or tr_lower > 0:
        verdict = HYPERBOLIC_YES
    elif exact and tr_lower == 0:
        verdict = HYPERBOLIC_NO
    elif any(model.apply(g, p) == p for p in sample):
        verdict = HYPERBOLIC_NO
    else:
        verdict = HYPERBOLIC_UNKNOWN

    if verdict == HYPERBOLIC_NO:
        criterion1_power = None
    return IsometryProfile(g, tr_lower, tr_upper, exact, verdict, criterion1_power)


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
        """Whether some path point lies within c of p; stops at the first hit."""
        if p in self.members:
            return c >= 0
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


def quasi_axis(model: ActionModel, profile: IsometryProfile, window: int = 8, delta: int = 0) -> AxisData:
    """Invariant (quasi-)axis of a hyperbolic element, built from the profile
    :func:`classify` returned for it, on a window.

    Concatenates geodesics between consecutive orbit points of a
    minimal-displacement base point p*; classifies the result as a genuine
    geodesic axis when the concatenation is a geodesic with invariance
    defect <= 2*delta, otherwise verifies the quasi-geodesic-axis
    properties on the window: bounded defect, and subpaths within 10*delta
    of the geodesics between their endpoints.
    """
    if profile.hyperbolic != HYPERBOLIC_YES:
        raise ModelError("quasi_axis requires a hyperbolic element")
    g = profile.element
    pstar = model.min_displacement_point(g)
    step = model.distance(pstar, model.apply(g, pstar))

    orbit = [model.apply(model.power(g, k), pstar) for k in range(-window, window + 1)]
    path: list = []
    for u, v in zip(orbit, orbit[1:]):
        seg = model.geodesic(u, v)
        path.extend(seg if not path else seg[1:])
    if not path:
        path = [pstar]
    edge_path = EdgePath(model, path)

    # Invariance defect, excluding a margin of one translation step at the ends.
    margin = max(step, 1)
    interior = path[margin:-margin] if len(path) > 2 * margin else path
    defect = max(edge_path.distance(model.apply(g, p)) for p in interior)

    is_geodesic = len(path) - 1 == model.distance(path[0], path[-1])
    if is_geodesic and defect <= 2 * delta:
        return AxisData(edge_path.points, "geodesic-axis", defect, step=step)

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
    return AxisData(edge_path.points, "quasi-geodesic-axis", defect, step=step)


def overlap_points(model: ActionModel, path_a, path_b, c: int) -> tuple[list, list, list]:
    """The c-overlap of two edge paths (consecutive points at distance <= 1).

    Returns (in_a, in_b, union): the points of each path within c of the
    other, and both lists joined in order without repeats.
    """
    near_a, near_b = EdgePath(model, path_a), EdgePath(model, path_b)
    in_a = [p for p in path_a if near_b.within(p, c)]
    in_b = [q for q in path_b if near_a.within(q, c)]
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
    which lets :func:`overlap_points` skip along them instead of scanning.
    Touching a window end makes D only a lower bound, and touching both
    ends of one axis flags the overlap as unbounded in the window.
    """
    pa, pb = list(axis_a.path), list(axis_b.path)
    window = min(len(pa), len(pb)) - 1

    in_a, in_b, union = overlap_points(model, pa, pb, c)
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
    (smallest |p|+|q|, positive signs first) or ("independent-to-bound", None).
    """
    if exponent_bound < 1:
        raise ModelError("exponent_bound must be >= 1")
    exponents = [e for n in range(1, exponent_bound + 1) for e in (n, -n)]
    a_pow = {e: model.power(a, e) for e in exponents}
    b_pow = {e: model.power(b, e) for e in exponents}
    pairs = sorted(
        ((p, q) for p in range(1, exponent_bound + 1) for q in range(1, exponent_bound + 1)),
        key=lambda t: (t[0] + t[1], t),
    )
    for p, q in pairs:
        for sp in (1, -1):
            for sq in (1, -1):
                e, f = sp * p, sq * q
                if model.compose(a_pow[-e], b_pow[-f], a_pow[e], b_pow[f]) == IDENTITY:
                    return "dependent", (e, f)
    return "independent-to-bound", None
