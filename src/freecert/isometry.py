"""Per-isometry analysis: translation length, hyperbolicity, axes, overlaps.

The translation length of g is the model's exact one (its
``exact_translation_length``: the cyclically reduced length on a Cayley
tree, 0 on a finite model), a single rational number, and g is hyperbolic
iff it is > 0.  Only a tree model has hyperbolic elements, and there an
axis is a line that ``model.axis_rays`` gives as two words out of a base
point: :func:`quasi_axis` keeps a window of it as that ray record, a
geodesic segment, and forms its points only when they are read.  Two
geodesics of a tree meet in one segment or are joined by one bridge, so
the c-overlap of two windows, at every c >= 0, is read off the four ends
of the segments (:func:`segment_overlap`), and :func:`overlap_diameter`
measures it with no point list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .models import IDENTITY, ActionModel, CapExceeded, ModelError, Word, common_prefix


class AxisData(NamedTuple):
    """A window of a hyperbolic element's axis on a tree: the geodesic from
    the end of ``backward`` to the end of ``forward``.

    ``base`` is the axis base point p*, ``forward`` and ``backward`` are the
    rays of ``model.axis_rays`` out of it, each window translations long, and
    ``step`` is the translation length tau.  The window's point t steps from
    p* is the first |p*| + |t| letters of ``forward`` (t >= 0) or of
    ``backward`` (t < 0).  The element carries this geodesic into its own
    line, so every window axis is a geodesic axis with invariance defect 0.
    """

    base: Word
    forward: Word
    backward: Word
    step: int
    mode = "geodesic-axis"
    invariance_defect = 0

    @property
    def segment(self) -> tuple[Word, Word, int]:
        """The window as :func:`segment_overlap` reads it: the rays part after p*."""
        return self.backward, self.forward, len(self.base)

    @property
    def path(self) -> tuple:
        """The window's 2 w tau + 1 points, from the end of ``backward`` to the end of ``forward``."""
        u, n = len(self.base), len(self.forward) - len(self.base)
        backward, forward = self.backward, self.forward
        return tuple(backward[: u + k] for k in range(n, 0, -1)) + tuple(forward[: u + k] for k in range(n + 1))


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


def hyperbolic(name: str, profile: IsometryProfile, refusal: type = ModelError) -> IsometryProfile:
    """``profile`` if its element is hyperbolic, else ``refusal`` naming the element and its translation length."""
    if profile.tr <= 0:
        raise refusal(f"{name} is not hyperbolic: translation length {profile.tr}")
    return profile


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


def quasi_axis(model: ActionModel, profile: IsometryProfile, window: int = 8) -> AxisData:
    """The axis of a hyperbolic element on a window, from the profile
    :func:`classify` returned for it, read off ``model.axis_rays``.

    A window below 1 is refused, and so is one whose orbit point
    g^-window p* would pass the model cap, before that point is formed.
    """
    step = int(profile.tr)  # an integer, as on every tree
    if step <= 0:
        raise ModelError("quasi_axis requires a hyperbolic element")
    if window < 1:
        raise ModelError(f"window must be >= 1, got {window}")
    return AxisData(*model.axis_rays(profile.element, window), step)


def _median(x: Word, y: Word, z: Word) -> Word:
    """The median of three vertices of a Cayley tree: the longest of their pairwise common prefixes."""
    return max(x[: common_prefix(x, y)], y[: common_prefix(y, z)], z[: common_prefix(z, x)], key=len)


def _at(x0: Word, x1: Word, k: int, t: int) -> Word:
    """The point of the tree segment [x0, x1] t steps from x0; k = |common prefix of x0, x1|."""
    up = len(x0) - k
    return x0[: len(x0) - t] if t <= up else x1[: k + t - up]


def segment_overlap(seg_a: tuple, seg_b: tuple, c: int) -> Optional[tuple[list, tuple, tuple]]:
    """The c-overlap of the geodesics A = [a0, a1] and B = [b0, b1] of a
    Cayley tree, each given as (x0, x1, k): its ends and the length k of
    their common prefix.  Returns (ends, span_a, span_b), or None when the
    overlap is empty.

    Two geodesics of a tree meet in one segment, from m0 = median(a0, a1, b0)
    to median(a0, a1, b1), or are joined by a bridge d >= 1 long from m0 to
    median(b0, b1, a0).  A point of A is as far from B as from the meet, or
    d farther than from m0, so A's piece (its points within c of B) is the
    meet widened by c on each side, or m0 widened by c - d (nothing when
    d > c), clipped to A; likewise for B.  ``span_a`` and ``span_b`` give
    the pieces as (first, last) steps from a0 and from b0.  ``ends`` are the
    pieces' ends in the order of the overlap's points (A's piece along A,
    then the rest of B's along B), without repeats.  A point inside a piece
    is nearer than one of the piece's ends to every other point, so every
    farthest pair of the overlap is a pair of ends.
    """
    (a0, a1, ka), (b0, b1, kb) = seg_a, seg_b
    # The common prefixes of A's ends with B's: if x0 and x1 part after k
    # letters and y shares p != k letters with x0, it shares min(p, k) with x1.
    p00 = common_prefix(a0, b0)
    p10 = common_prefix(a1, b0) if p00 == ka else min(p00, ka)
    p01 = common_prefix(a0, b1) if p00 == kb else min(p00, kb)
    p11 = common_prefix(a1, b1) if p10 == kb else min(p10, kb)
    # median(x0, x1, y) is the longest of x0[:k], x0[:p] and x1[:q] (p, q:
    # y's common prefixes with x0, x1), and lies |x0| + q - 2k steps from x0
    # if it is x1[:q], q > k, else |x0| - max(k, p): b0, b1 fall at t0, t1 on A,
    # and a0, a1 at s0, s1 on B.
    la, lb = len(a0), len(b0)
    t0 = la + p10 - 2 * ka if p10 > ka else la - max(ka, p00)
    t1 = la + p11 - 2 * ka if p11 > ka else la - max(ka, p01)
    s0 = lb + p01 - 2 * kb if p01 > kb else lb - max(kb, p00)
    s1 = lb + p11 - 2 * kb if p11 > kb else lb - max(kb, p10)
    # b0 and b1 fall on two points of A only if A meets B (d = 0); if on one,
    # b0 reaches A through the bridge's foot s0 on B: d(b0, A) = s0 + d.
    d = 0 if t0 != t1 else lb + max(ka, p00, p10) - 2 * max(p00, p10) - s0
    r = c - d
    if r < 0:
        return None
    if t0 > t1:
        t0, t1 = t1, t0
    if s0 > s1:
        s0, s1 = s1, s0
    lo_a, hi_a = max(t0 - r, 0), min(t1 + r, la + len(a1) - 2 * ka)
    lo_b, hi_b = max(s0 - r, 0), min(s1 + r, lb + len(b1) - 2 * kb)
    ends = [_at(a0, a1, ka, lo_a)]
    if hi_a > lo_a:
        ends.append(_at(a0, a1, ka, hi_a))
    if d or lo_b < s0:  # else B's end is a meet end, on A
        ends.append(_at(b0, b1, kb, lo_b))
    if hi_b > lo_b and (d or hi_b > s1):
        ends.append(_at(b0, b1, kb, hi_b))
    return ends, (lo_a, hi_a), (lo_b, hi_b)


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
    """Diameter of the c-overlap of two window axes.

    The overlap set is (A in the c-neighborhood of B) union (B in the
    c-neighborhood of A); the empty set has diameter 0 by convention.  Its
    pieces are :func:`segment_overlap`'s, and D and the witness pair are
    :func:`farthest_pair`'s on their ends.  A piece that reaches one of the
    first or last ``step`` points of a window (2 window step edges long)
    touches that end: then D is only a lower bound, and touching both ends
    of one axis flags the overlap as unbounded in the window.
    """
    len_a, len_b = 2 * (len(axis_a.forward) - len(axis_a.base)), 2 * (len(axis_b.forward) - len(axis_b.base))
    found = segment_overlap(axis_a.segment, axis_b.segment, c)
    if found is None:
        return OverlapReport(0, c, min(len_a, len_b), (), False, False)
    ends, (lo_a, hi_a), (lo_b, hi_b) = found
    D, p, q = farthest_pair(model, ends)
    a_head, a_tail = lo_a < axis_a.step, hi_a > len_a - axis_a.step
    b_head, b_tail = lo_b < axis_b.step, hi_b > len_b - axis_b.step
    return OverlapReport(D, c, min(len_a, len_b), tuple(model.geodesic(p, q)), a_head or a_tail or b_head or b_tail,
                         a_head and a_tail or b_head and b_tail)


def check_radius(c: int) -> int:
    """c, if it is an overlap radius (c >= 0); else a refusal naming it."""
    if c < 0:
        raise ModelError(f"overlap radius c must be >= 0, got {c}")
    return c


@dataclass
class AxisPair:
    """Hyperbolic a and b on one window, their axes, and the c-overlap
    (c >= 0) of the axes, measured by :func:`overlap_diameter` when the pair
    is made.  A negative c is refused first; every other refusal names a or
    b, a's first.
    """

    model: ActionModel
    profile_a: IsometryProfile
    profile_b: IsometryProfile
    window: int
    c: int
    axis_a: AxisData = field(init=False)
    axis_b: AxisData = field(init=False)
    overlap: OverlapReport = field(init=False)

    def __post_init__(self):
        check_radius(self.c)
        self.axis_a = quasi_axis(self.model, hyperbolic("a", self.profile_a), self.window)
        self.axis_b = quasi_axis(self.model, hyperbolic("b", self.profile_b), self.window)
        self.overlap = overlap_diameter(self.model, self.axis_a, self.axis_b, self.c)


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
