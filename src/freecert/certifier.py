"""Freeness criteria and machine-checkable certificates.

Each criterion measures, then claims.  ``*_certify`` checks its inputs and
measures the pair once: :func:`analyze_pair`, then ``_claim_on`` reads the
axis overlap D (refusing when the window cannot bound it); on a tree at
c = 0 that overlap is read off the axes' rays, and only an overlap at
c >= 1 builds the two axes.
``*_claim`` is pure arithmetic on the constants, tr(a), tr(b) and D: it
returns (n_min, m_min, its own constants, details), or raises
:class:`CertificateRefused` naming the inequality that failed, so each
defining inequality is re-verified at emission time.  ``_emit`` builds every certificate from a
claim.  Translation lengths are the models' exact ones, as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby, islice, repeat
from math import ceil
from typing import Optional, Sequence

from .acylindricity import acyl_profile, constant_P
from .isometry import (
    AxisPair,
    EdgePath,
    classify,
    farthest_pair,
    hyperbolic,
    independence_test,
    overlap_points,
)
from .models import IDENTITY, ActionModel, ModelError, Word, check_int, common_prefix
from .oracle import OracleReport, freeness_to_depth

SCHEMA_VERSION = 1


class CertificateRefused(Exception):
    """A criterion's preconditions or re-verification failed; no certificate."""


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

# name -> (value, provenance); provenance in
# {"paper-formula", "brute-forced", "config-override", "tree-case"}
ConstantSet = dict


def check_delta(model: ActionModel, delta: int, provenance: str) -> None:
    """Refuse a delta that has no constants: a negative one, or 0 on a graph that is not a tree."""
    if delta < 0:
        raise ModelError("delta must be >= 0")
    if delta == 0 and not model.is_tree:
        raise CertificateRefused(
            f"delta = 0 ({provenance}) on a graph that is not a tree: "
            "P = ceil(K(200 delta)/(90 delta)) has no value; pass --delta >= 1"
        )


def resolve_constants(model: ActionModel, delta: int, provenance: str) -> ConstantSet:
    """The constants delta, P, K(R) and L(R) at R = 20 delta and 200 delta.

    delta carries ``provenance`` and must pass :func:`check_delta`.  A tree
    at delta = 0 has P = K = L = 1 ("tree-case").  Otherwise K and L come
    from one acylindricity profile and P = ceil(K(200 delta)/(90 delta)),
    all "brute-forced".
    """
    check_delta(model, delta, provenance)
    if delta == 0:
        tree = {name: (1, "tree-case") for name in ("P", "K20", "L20", "K200", "L200")}
        return {"delta": (0, provenance), **tree}
    profile = acyl_profile(model, [20 * delta, 200 * delta])
    e20, e200 = profile.entries[20 * delta], profile.entries[200 * delta]
    return {
        "delta": (delta, provenance),
        "P": (constant_P(delta, e200.K_hat), "brute-forced"),
        "K20": (e20.K_hat, "brute-forced"),
        "L20": (e20.L_hat, "brute-forced"),
        "K200": (e200.K_hat, "brute-forced"),
        "L200": (e200.L_hat, "brute-forced"),
    }


def cval(constants: ConstantSet, name: str):
    if name not in constants:
        raise CertificateRefused(f"required constant {name!r} missing")
    return constants[name][0]


def _delta_P_PKL(constants: ConstantSet) -> tuple[int, int, int]:
    """delta, P and the product P K(20 delta) L(20 delta) that every threshold is built from."""
    delta, P = cval(constants, "delta"), cval(constants, "P")
    return delta, P, P * cval(constants, "K20") * cval(constants, "L20")


def _least_power(threshold: Fraction, tr: Fraction) -> int:
    """Smallest n >= 1 with n * tr >= threshold."""
    if tr <= 0:
        raise CertificateRefused("translation length is not positive")
    return max(1, ceil(Fraction(threshold) / tr))


# ---------------------------------------------------------------------------
# Three points condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreePointsReport:
    epsilon: Fraction
    delta: int
    holds: bool
    first_violation: Optional[int]
    lam: Optional[Fraction]
    bound3_lhs: Optional[Fraction]
    bound3_rhs: Optional[Fraction]

    def to_doc(self) -> dict:
        return {
            "epsilon": str(self.epsilon),
            "delta": self.delta,
            "holds": self.holds,
            "first_violation": self.first_violation,
            "lambda": str(self.lam) if self.lam is not None else None,
            "bound3_lhs": str(self.bound3_lhs) if self.bound3_lhs is not None else None,
            "bound3_rhs": str(self.bound3_rhs) if self.bound3_rhs is not None else None,
        }


def three_points_check(model: ActionModel, points: Sequence, epsilon: Fraction, delta: int) -> ThreePointsReport:
    """Local-progress check for a point sequence, with the summed bound.

    Condition: |p_i - p_{i+2}| >= max(|p_i - p_{i+1}|, |p_{i+1} - p_{i+2}|)
    + epsilon for every consecutive triple.  When it holds, the geometric
    consequence lambda * |p_1 - p_i| >= sum of gaps is verified (not
    assumed) for every i >= 3 with
    lambda = (epsilon/100 - delta)^-1 * max gap.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 100 * delta:
        raise ModelError("epsilon must exceed 100 * delta")
    if len(points) < 3:
        return ThreePointsReport(epsilon, delta, True, None, None, None, None)

    # Distances are integers: epsilon = e/k and lambda = lam_n/lam_d are
    # cross-multiplied, and Fractions are built only for the values reported.
    e, k = epsilon.numerator, epsilon.denominator
    dist = model.distance
    gaps = list(map(dist, points, points[1:]))
    for i, skip in enumerate(map(dist, points, points[2:])):
        if (skip - max(gaps[i], gaps[i + 1])) * k < e:
            return ThreePointsReport(epsilon, delta, False, i, None, None, None)

    # lambda = (epsilon/100 - delta)^-1 * max gap = 100 k max gap / (e - 100 delta k), and e > 100 delta k.
    lam_n, lam_d = 100 * k * max(gaps), e - 100 * delta * k
    lam = Fraction(lam_n, lam_d)
    far, rhs = 0, gaps[0]
    for i in range(3, len(points) + 1):
        far = dist(points[0], points[i - 1])
        rhs += gaps[i - 2]  # the sum of gaps[: i - 1]
        if lam_n * far < rhs * lam_d:
            # The verified consequence failed: report it honestly.
            return ThreePointsReport(epsilon, delta, False, i - 1, lam, lam * far, Fraction(rhs))
    return ThreePointsReport(epsilon, delta, True, None, lam, lam * far, Fraction(rhs))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    criterion: str
    model_spec: dict
    a: Word
    b: Word
    exponents: dict
    constants: ConstantSet
    epsilon_mode: str = "paper-literal"
    epsilon: Optional[Fraction] = None
    caveats: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    witness: dict = field(default_factory=dict)
    oracle_check: Optional[OracleReport] = None  # a sharp-mode back-check's report; to_doc leaves it out

    def to_doc(self) -> dict:
        # Field order is fixed so identical inputs give byte-identical JSON.
        return {
            "schema_version": SCHEMA_VERSION,
            "criterion": self.criterion,
            "model": self.model_spec,
            "elements": {"a": list(self.a), "b": list(self.b)},
            "exponents": self.exponents,
            "constants": {
                name: {"value": _num_str(value), "provenance": prov}
                for name, (value, prov) in sorted(self.constants.items())
            },
            "epsilon_mode": self.epsilon_mode,
            "epsilon": _num_str(self.epsilon) if self.epsilon is not None else None,
            "caveats": list(self.caveats),
            "details": self.details,
            "witness": self.witness,
        }


def _num_str(v):
    return str(v) if isinstance(v, Fraction) else v


REQUIRED_CERT_FIELDS = (
    "schema_version",
    "criterion",
    "model",
    "elements",
    "exponents",
    "constants",
    "epsilon_mode",
    "caveats",
)


def validate_certificate(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ModelError("certificate document must be a mapping")
    missing = [f for f in REQUIRED_CERT_FIELDS if f not in doc]
    if missing:
        raise ModelError(f"certificate document missing fields: {missing}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ModelError(f"unsupported certificate schema version {doc['schema_version']}")
    elements, exponents = doc["elements"], doc["exponents"]
    if not isinstance(elements, dict) or not {"a", "b"} <= set(elements):
        raise ModelError("certificate elements block must contain 'a' and 'b'")
    for name in ("a", "b"):
        if not isinstance(elements[name], list):
            raise ModelError(f"certificate element {name!r} must be a list of letters")
        for letter in elements[name]:
            check_int(letter, f"a letter of certificate element {name!r}")
    if not isinstance(exponents, dict):
        raise ModelError("certificate exponents must be a mapping")
    for name in ("n_min", "m_min"):
        if name in exponents:
            check_int(exponents[name], f"certificate exponent {name!r}")


# ---------------------------------------------------------------------------
# Pair analysis shared by the criteria
# ---------------------------------------------------------------------------


# Bound on |p|, |q| in the search for a commuting pair [a^p, b^q] = 1.
INDEPENDENCE_BOUND = 3


def analyze_pair(model: ActionModel, a: Word, b: Word, delta: int, window: int = 8,
                 c: Optional[int] = None) -> AxisPair:
    """The :class:`AxisPair` of a and b, whose c-overlap (c = 10 delta unless
    given) :func:`axis_overlap` measures here; on a tree at c = 0 no axis is
    built.  First refuses an element that is not hyperbolic, by name, then a
    dependent pair.
    """
    pa = classify(model, a)
    pb = classify(model, b)
    hyperbolic("a", pa, CertificateRefused)
    hyperbolic("b", pb, CertificateRefused)
    verdict, witness = independence_test(model, pa.element, pb.element, INDEPENDENCE_BOUND)
    if verdict == "dependent":
        raise CertificateRefused(f"elements are dependent: [a^{witness[0]}, b^{witness[1]}] = 1")
    return AxisPair(model, pa, pb, window, delta, 10 * delta if c is None else c)


# A claim: (n_min, m_min, the criterion's own constants, details).
Claim = tuple


def _claim_on(analysis: AxisPair, constants: ConstantSet, claim, *options) -> Claim:
    """``claim`` on the analysed pair's exact translation lengths and measured overlap D.

    Every criterion reads D here, so each refuses first, and alike, when
    the window cannot bound it.
    """
    overlap = analysis.overlap
    if overlap.unbounded_in_window:
        raise CertificateRefused(
            f"overlap unbounded in window: the {overlap.c}-overlap (D >= {overlap.D}) "
            f"reaches both ends of an axis in a {overlap.window}-edge window"
        )
    return claim(constants, analysis.profile_a.tr, analysis.profile_b.tr, overlap.D, *options)


def _emit(criterion: str, model: ActionModel, analysis: AxisPair, constants: ConstantSet, claim: Claim,
          **fields) -> Certificate:
    """The certificate for <a^n, b^m>, n >= n_min, m >= m_min, a and b as the analysis profiled them.

    Its constants are the input ones, the claim's own and the measured D;
    its caveats follow the provenance of the input constants.
    """
    n_min, m_min, own, details = claim
    caveats = []
    if constants.get("delta", (0, ""))[1] == "brute-forced":
        caveats.append("empirical-delta")
    if any(prov == "brute-forced" for name, (_, prov) in constants.items() if name != "delta"):
        caveats.append("empirical-acyl")
    if analysis.overlap.boundary_touching:
        caveats.append("window-bounded-D")
    return Certificate(
        criterion=criterion,
        model_spec=model.spec_dict(),
        a=analysis.profile_a.element,
        b=analysis.profile_b.element,
        exponents={"n_min": n_min, "m_min": m_min},
        constants={**constants, **own, "D": (analysis.overlap.D, "brute-forced")},
        caveats=caveats,
        details=details,
        witness={"overlap_witness": [repr(p) for p in analysis.overlap.witness_segment]},
        **fields,
    )


# ---------------------------------------------------------------------------
# Claims: each criterion's arithmetic on (constants, tr(a), tr(b), D)
# ---------------------------------------------------------------------------


def nielsen_claim(constants: ConstantSet, tr_a, tr_b, D, epsilon, exponents=None) -> Claim:
    """Overlap-dominating powers: n tr(a) >= D + eps and m tr(b) >= D + eps, eps > 100 delta.

    Without ``exponents``, the least such n and m; explicit exponents are
    kept and ``formula_satisfied`` records whether they meet the inequality.
    """
    delta = cval(constants, "delta")
    if epsilon is None or Fraction(epsilon) <= 100 * delta:
        raise CertificateRefused("sharp mode needs a user epsilon > 100 * delta")
    eps = Fraction(epsilon)
    threshold = D + eps
    if exponents is None:
        n, m = _least_power(threshold, tr_a), _least_power(threshold, tr_b)
    else:
        n, m = exponents
    formula_satisfied = n * tr_a >= threshold and m * tr_b >= threshold
    if exponents is None and not formula_satisfied:
        raise CertificateRefused("computed exponents fail the defining inequality")
    lam = (eps / 100 - delta) ** -1 * max(n * tr_a, m * tr_b)
    details = {
        "lambda": _num_str(lam),
        "predicted_embedding_L": _num_str(min(n * tr_a, m * tr_b) / lam),
        "formula_satisfied": formula_satisfied,
    }
    return n, m, {}, details


def prop6_claim(constants: ConstantSet, tr_a, tr_b, D, q: Fraction) -> Claim:
    """Comparable translation lengths: free for n >= N6, m >= q N6.

    Requires tr(a)/q <= tr(b) <= tr(a) and the commutator overlap bound
    D < 4 P K L tr(a) + 100 delta.
    """
    delta, P, PKL = _delta_P_PKL(constants)
    if not tr_b <= tr_a:
        raise CertificateRefused(f"ratio precondition fails: tr(b) = {tr_b} > tr(a) = {tr_a}; swap the roles")
    if not tr_a / q <= tr_b:
        raise CertificateRefused(f"ratio precondition fails: tr(b) = {tr_b} < tr(a)/q = {tr_a / q}")
    bound = 4 * PKL * tr_a + 100 * delta
    if not D < bound:
        raise CertificateRefused(
            f"measured overlap D = {D} violates the commutator bound {bound}: empirical constants too small"
        )
    N6 = 4 * PKL + 200 * (delta + 1) * P
    own = {"N6": (N6, "paper-formula"), "q": (q, "config-override")}
    return N6, ceil(q * N6), own, {"lemma5_bound": _num_str(bound)}


def prop7_claim(constants: ConstantSet, tr_f, tr_g, D) -> Claim:
    """Dominant f: <g, f^n> free for all n >= N7, the least n with tr(f^n) >= 1000 E.

    Conditions: (1) tr(g) <= tr(f); (2) D <= 2 tr(f).  E = D + 100(delta+1)
    + 10 P K L tr(f), and Q is the least integer >= 1 with
    tr(f^N7)/100 <= Q tr(g) <= tr(f^N7)/50.
    """
    delta, P, PKL = _delta_P_PKL(constants)
    if not tr_g <= tr_f:
        raise CertificateRefused(f"condition 1 fails: tr(g) = {tr_g} > tr(f) = {tr_f}")
    if not D <= 2 * tr_f:
        raise CertificateRefused(f"condition 2 fails: D = {D} > 2 tr(f)")
    E = D + 100 * (delta + 1) + 10 * PKL * tr_f
    N7 = _least_power(1000 * E, tr_f)
    if not N7 * tr_f >= 1000 * E:
        raise CertificateRefused("computed threshold fails the defining inequality")
    q_lo, q_hi = N7 * tr_f / (100 * tr_g), N7 * tr_f / (50 * tr_g)
    Q = max(1, ceil(q_lo))
    if Q > q_hi:
        raise CertificateRefused("Q interval is empty: tr(g) too large relative to tr(f^n)")
    own = {"E": (E, "paper-formula"), "N7": (N7, "paper-formula"), "Q": (Q, "paper-formula")}
    return N7, 1, own, {"Q_interval": [_num_str(q_lo), _num_str(q_hi)]}


def prop8_claim(constants: ConstantSet, tr_f, tr_g, D) -> Claim:
    """Per-pair N with no condition on tr(f) against tr(g): the least n with
    tr(f^n) >= 1000 E and tr(g) <= tr(f^n)/100, E as in :func:`prop7_claim`.

    Also claims the composite two-sided bound: <f^n, g^m> is free whenever
    |n| + |m| >= 2N with N the larger of the two one-sided thresholds.
    """
    delta, P, PKL = _delta_P_PKL(constants)

    def threshold(tr_1, tr_2):
        E = D + 100 * (delta + 1) + 10 * PKL * tr_1
        return max(_least_power(1000 * E, tr_1), _least_power(100 * tr_2, tr_1)), E

    (N_fg, E), (N_gf, _) = threshold(tr_f, tr_g), threshold(tr_g, tr_f)
    own = {"E": (E, "paper-formula"), "N": (N_fg, "paper-formula")}
    details = {"composite_threshold_N": max(N_fg, N_gf), "composite_claim": "free for nm != 0 with |n| + |m| >= 2N"}
    return N_fg, 1, own, details


def theorem9_claim(constants: ConstantSet, tr_a, tr_b, D, quasi_mode: bool = False) -> Claim:
    """The uniform bound: <a^n, b^m> free for all n, m >= M, M independent of a and b.

    Orders the pair so tr(small) <= tr(big), checks the commutator bound
    D < 4 P K L tr(big) + 100 delta, then replays the theorem's case
    analysis and records which branch fired.  ``quasi_mode`` is the
    no-quasi-axis variant: 1000 delta overlaps and the enlarged bound.
    """
    delta, P, PKL = _delta_P_PKL(constants)
    swapped = tr_b > tr_a
    big, small = (tr_b, tr_a) if swapped else (tr_a, tr_b)
    bound = 4 * PKL * big + (10000 if quasi_mode else 100) * delta
    if not D < bound:
        raise CertificateRefused(
            f"measured D = {D} violates the commutator bound {bound}: empirical constants inconsistent"
        )

    N6 = 4 * PKL + 200 * (delta + 1) * P
    # E <= (2 + 100(delta+1)P + 10 P K L) tr(f) via tr(f) >= 1/P and
    # D <= 2 tr(f), so tr(f^n) >= 1000 E once n >= N7.
    N7 = 1000 * (2 + 100 * (delta + 1) * P + 10 * PKL)
    M = 10 * PKL * N6 + 2000 * (delta + 1) * P + N7

    if small / big > Fraction(N6, M):
        branch = "step1-prop6"
    elif M * small > D + 100 * (delta + 1):
        branch = "step2-nielsen"
    elif D <= 2 * big:
        branch = "step3-prop7"
    else:
        raise CertificateRefused(
            "no branch fires on the measured data (ratio small, overlap large, "
            f"D = {D} > 2 tr({'b' if swapped else 'a'}) = {2 * big}): empirical constants inconsistent"
        )

    own = {"N6": (N6, "paper-formula"), "N7": (N7, "paper-formula"), "M": (M, "paper-formula")}
    details = {
        "branch": branch,
        "swapped_roles": swapped,
        "overlap_radius_c": (1000 if quasi_mode else 10) * delta,
        "lemma5_bound": _num_str(bound),
    }
    return M, M, own, details


# ---------------------------------------------------------------------------
# Criteria: input checks, then measure-then-claim
# ---------------------------------------------------------------------------


def nielsen_certify(
    model: ActionModel, a: Word, b: Word, constants: ConstantSet,
    epsilon_mode: str = "paper-literal", epsilon: Optional[Fraction] = None,
    exponents: Optional[tuple[int, int]] = None, window: int = 8, oracle_depth: int = 8,
) -> Certificate:
    """Certify via overlap-dominating powers (:func:`nielsen_claim`).

    Paper-literal mode uses eps = 100(delta+1) and refuses an explicit
    ``epsilon`` or ``exponents``.  Sharp-experimental mode
    takes a user eps > 100*delta, may take requested exponents below the
    formula minimum, and is emitted only after the independent word oracle
    confirms freeness of the certified pair to ``oracle_depth``.
    """
    if exponents is not None and [type(e) for e in exponents] != [int, int]:
        raise ModelError(f"explicit exponents must be two integers, got {exponents!r}")
    if exponents is not None and min(exponents) < 1:
        raise ModelError(f"explicit exponents must be >= 1, got {tuple(exponents)}")
    delta = cval(constants, "delta")
    sharp = epsilon_mode == "sharp-experimental"
    if epsilon_mode == "paper-literal":
        if epsilon is not None:
            raise CertificateRefused("an explicit epsilon is only allowed in sharp-experimental mode")
        epsilon = 100 * (delta + 1)
    elif not sharp:
        raise ModelError(f"unknown epsilon mode {epsilon_mode!r}")
    if exponents is not None and not sharp:
        raise CertificateRefused("explicit exponents are only allowed in sharp-experimental mode")
    analysis = analyze_pair(model, a, b, delta, window)
    claim = n, m, _, details = _claim_on(analysis, constants, nielsen_claim, epsilon, exponents)

    if sharp:
        check = freeness_to_depth(model, analysis.profile_a.element, analysis.profile_b.element, n, m, oracle_depth)
        if check.verdict == "unchecked":
            raise CertificateRefused(f"oracle back-check could not run at exponents ({n}, {m}): {check.reason}")
        if check.verdict != "free-to-depth":
            raise CertificateRefused(
                f"oracle back-check found a relation at exponents ({n}, {m}): {list(check.relation)}"
            )
        details["oracle_confirmed_depth"] = oracle_depth
    return _emit("nielsen", model, analysis, constants, claim, epsilon_mode=epsilon_mode, epsilon=Fraction(epsilon),
                 oracle_check=check if sharp else None)


def prop6_certify(model: ActionModel, a: Word, b: Word, constants: ConstantSet, q: Fraction,
                  window: int = 8) -> Certificate:
    """Comparable-translation-length criterion (:func:`prop6_claim`), q >= 1."""
    q = Fraction(q)
    if q < 1:
        raise ModelError("q must be >= 1")
    analysis = analyze_pair(model, a, b, cval(constants, "delta"), window)
    return _emit("prop6", model, analysis, constants, _claim_on(analysis, constants, prop6_claim, q))


def prop7_certify(model: ActionModel, f: Word, g: Word, constants: ConstantSet, window: int = 8) -> Certificate:
    """Dominant-f criterion (:func:`prop7_claim`): <g, f^n> free for all n >= N7(pair)."""
    analysis = analyze_pair(model, f, g, cval(constants, "delta"), window)
    return _emit("prop7", model, analysis, constants, _claim_on(analysis, constants, prop7_claim))


def prop8_certify(model: ActionModel, f: Word, g: Word, constants: ConstantSet, window: int = 8) -> Certificate:
    """Per-pair threshold with no conditions on tr(f) vs tr(g) (:func:`prop8_claim`)."""
    analysis = analyze_pair(model, f, g, cval(constants, "delta"), window)
    return _emit("prop8", model, analysis, constants, _claim_on(analysis, constants, prop8_claim))


def theorem9_certify(model: ActionModel, a: Word, b: Word, constants: ConstantSet, window: int = 8,
                     quasi_mode: bool = False) -> Certificate:
    """Uniform bound M independent of a, b (:func:`theorem9_claim`).

    Theorem 9 asks for geodesic axes, which every tree axis is (and only a
    tree has hyperbolic elements); with ``quasi_mode`` (theorem 14) overlaps
    are measured at 1000 delta, as quasi-geodesic axes need.
    """
    delta = cval(constants, "delta")
    analysis = analyze_pair(model, a, b, delta, window, c=(1000 if quasi_mode else 10) * delta)
    claim = _claim_on(analysis, constants, theorem9_claim, quasi_mode)
    return _emit("theorem14-mode" if quasi_mode else "theorem9", model, analysis, constants, claim)


# ---------------------------------------------------------------------------
# Witness chains
# ---------------------------------------------------------------------------


@dataclass
class WitnessChain:
    word: Word
    case: str
    blocks: list  # (p_j, q_j, r_j, s_j), one per a-syllable
    u: list  # pruned interpolated chain, start to end
    conditions: dict  # condition name -> {"holds": bool, "measured": ...}
    failures: list
    gaps: list  # (distance, band) with band in {"i", "ii", None}
    gap_bands_ok: bool
    three_points: ThreePointsReport
    embedding_L: Fraction
    embedding_ok: bool

    def to_doc(self) -> dict:
        return {
            "word": list(self.word),
            "case": self.case,
            "chain_length": len(self.u),
            "conditions": self.conditions,
            "failures": list(self.failures),
            "gaps": [{"distance": d, "band": band} for d, band in self.gaps],
            "gap_bands_ok": self.gap_bands_ok,
            "three_points": self.three_points.to_doc(),
            "embedding_L": _num_str(self.embedding_L),
            "embedding_ok": self.embedding_ok,
        }


def _segment_overlap(model: ActionModel, seg1: tuple, seg2: tuple, c: int) -> int:
    """Diameter of the c-overlap of two geodesic segments, each given by its ends (0 when empty).

    On a tree at c = 0 it is [p, q] ∩ [r, s], which runs from median(p, q, r)
    to median(p, q, s) (both are one point when the segments are disjoint);
    otherwise the two geodesics are built and their c-overlap is measured.
    """
    (p, q), (r, s) = seg1, seg2
    if c == 0 and model.is_tree:
        return model.distance(_median(p, q, r), _median(p, q, s))
    pts = overlap_points(EdgePath(model, model.geodesic(p, q)), EdgePath(model, model.geodesic(r, s)), c)[2]
    return farthest_pair(model, pts)[0] if pts else 0


def _gap_band(d: int, tr_a: Fraction) -> Optional[str]:
    """The admissible band of a chain gap d: (i) around tr(a), (ii) around tr(b^Q), or None.

    With tau = tr(a): band (i) is 4 tau <= 5d <= 6 tau, band (ii) is tau <= 100d and 10d <= tau,
    compared in integers.
    """
    n, dk = tr_a.numerator, d * tr_a.denominator
    if 4 * n <= 5 * dk <= 6 * n:
        return "i"
    if n <= 100 * dk and 10 * dk <= n:
        return "ii"
    return None


def check_chain_input(word: Word, E: Fraction, Q: int, delta: int) -> tuple[list[tuple[int, int]], str]:
    """A chain word's syllables and case, checked before any axis is measured.

    Refuses Q < 1, E <= 100 delta, a letter outside ±1, ±2, the empty word and a run of one
    generator that changes sign (a word not freely reduced), in that order.  Each run is a
    syllable: (1, 1, 2, 2, -1) -> [(1, 2), (2, 2), (1, -1)].  Case O: a power of the second
    letter alone; I: starts with the first letter; II: starts with the second but involves the first.
    """
    if Q < 1:
        raise ModelError("Q must be >= 1")
    if E <= 100 * delta:
        raise ModelError("epsilon must exceed 100 * delta")
    if not set(word) <= {1, -1, 2, -2}:
        raise ModelError("chain words use two letters: 1 and 2 (signed)")
    if not word:
        raise ModelError("chain words must be nonempty")
    runs = [(gen, list(run)) for gen, run in groupby(word, abs)]
    if any(len(set(run)) > 1 for _, run in runs):
        raise ModelError("word is not freely reduced over the two letters")
    syl = [(gen, sum(run) // gen) for gen, run in runs]  # sign x length
    return syl, "I" if syl[0][0] == 1 else "II" if len(syl) > 1 else "O"


def build_witness_chain(
    model: ActionModel,
    word: Word,
    a: Word,
    b: Word,
    x,
    y,
    E: Fraction,
    Q: int,
    delta: int,
) -> WitnessChain:
    """Interpolated point chain witnessing that ``word`` (in a, b) moves x.

    :func:`check_chain_input` refuses bad input and splits the word into syllables, which
    alternate generators.  One walk over them keeps w, the prefix read so far: each a-syllable
    a^n and the b-syllable b^m after it (m = 0 at the end) make a block p = w x, q = w a^n x,
    r = w a^n y, s = w a^n b^m y, and a leading b-syllable (cases O and II) moves y to s_0.
    Checks the five block conditions (violations are annotated, not fatal), the gap bands and
    the three points condition for epsilon = E on the pruned chain u, and the embedding bound
    L * |x - w x| >= |word| at the final prefix w = w(a, b).
    """
    E = Fraction(E)
    syl, case = check_chain_input(word, E, Q, delta)
    a, b = model.canon(a), model.canon(b)
    tr_a = Fraction(model.exact_translation_length(a))

    def between(w: Word, g: Word, n: int, stride: int):
        """The prefixes w g^(k stride), 0 < k < |n| // stride, k of n's sign, each one compose past the last."""
        k = abs(n) // stride
        step = model.power(g, stride if n > 0 else -stride) if k > 1 else IDENTITY
        return islice(accumulate(repeat(step, k - 1), model.compose, initial=w), 1, None)

    # The pruned chain u: the start y of a leading b-syllable, every a-step
    # p_j .. q_j (q_j only when o_j = |m_j| // Q > 0), the interior Q-steps of
    # every b-syllable, and the last s.  A block's ends are applied before the
    # points between them, so a syllable past the model cap is refused at once.
    u: list = []
    blocks: list = []  # (p_j, q_j, r_j, s_j), one per a-syllable
    lead = syl[0][0] == 2
    w, s = IDENTITY, y
    if lead:
        u.append(y)
        u += [model.apply(v, y) for v in between(w, b, syl[0][1], Q)]
        w = model.power(b, syl[0][1])
        s = model.apply(w, y)
    s0 = s
    for j in range(lead, len(syl), 2):
        n, m = syl[j][1], syl[j + 1][1] if j + 1 < len(syl) else 0
        w_a = model.compose(w, model.power(a, n))
        w_next = model.compose(w_a, model.power(b, m))
        p = model.apply(w, x)
        q = model.apply(w_a, x)
        r = model.apply(w_a, y)
        s = model.apply(w_next, y)
        blocks.append((p, q, r, s))
        u.append(p)
        u += [model.apply(v, x) for v in between(w, a, n, 1)]
        if abs(m) >= Q:
            u.append(q)
        u += [model.apply(v, y) for v in between(w_a, b, m, Q)]
        w = w_next
    u.append(s)

    failures: list = []
    conditions: dict = {}

    # Block conditions; measured worst cases, violations annotated.
    def note(name: str, holds: bool, measured):
        conditions[name] = {"holds": bool(holds), "measured": measured}
        if not holds:
            failures.append(f"condition {name} fails (measured {measured})")

    if blocks:
        s_prev = [s0] + [blk[3] for blk in blocks]  # s_{j-1}, the point before block j
        c1 = max(
            max(model.distance(q, r), model.distance(p, s1)) for (p, q, r, _), s1 in zip(blocks, s_prev)
        )
        note("c1", c1 <= 2 * delta, c1)
        c2 = min(model.distance(p, q) for p, q, _, _ in blocks)
        note("c2", c2 >= 1000 * E, c2)
        # The segments A_j = [p_j, q_j] and B_j = [r_j, s_j], by their ends.
        segs_A = [(p, q) for p, q, _, _ in blocks]
        segs_B = [(r, s) for _, _, r, s in blocks]
        c3 = max(_segment_overlap(model, A, B, 10 * delta) for A, B in zip(segs_A, segs_B))
        note("c3", c3 <= E, c3)
        # B_{j-1} precedes A_j; B_0 exists only when the word opens with a b-syllable.
        preceding_B = ([(y, s0)] if lead else [None]) + segs_B[:-1]
        c4 = max(
            (_segment_overlap(model, B, A, 10 * delta) for B, A in zip(preceding_B, segs_A) if B is not None),
            default=0,
        )
        note("c4", c4 <= E, c4)
        c5 = max((_segment_overlap(model, A, A2, 10 * delta) for A, A2 in zip(segs_A, segs_A[1:])), default=0)
        note("c5", c5 <= E, c5)

    gaps = [(d, _gap_band(d, tr_a)) for d in map(model.distance, u, u[1:])]
    failures += [f"gap {d} falls outside both admissible bands" for d, band in gaps if band is None]

    three = three_points_check(model, u, E, delta)
    if not three.holds:
        failures.append(f"three points condition fails at index {three.first_violation}")

    # Embedding constant from the chain: L = Q * lambda_0 / 500 with
    # lambda_0 = (E/100 - delta)^-1 * 2 tr(a).
    lam0 = (E / 100 - delta) ** -1 * 2 * tr_a
    L = Q * lam0 / 500
    moved = model.distance(x, model.apply(w, x))
    embedding_ok = L * moved >= len(word)
    if not embedding_ok:
        failures.append(f"embedding bound fails: L * {moved} < |word| = {len(word)}")

    return WitnessChain(
        word=tuple(word),
        case=case,
        blocks=blocks,
        u=u,
        conditions=conditions,
        failures=failures,
        gaps=gaps,
        gap_bands_ok=all(band for _, band in gaps),
        three_points=three,
        embedding_L=L,
        embedding_ok=embedding_ok,
    )


def _median(x: Word, y: Word, z: Word) -> Word:
    """The median of three vertices of a Cayley tree: the longest of their pairwise common prefixes."""
    return max(x[: common_prefix(x, y)], y[: common_prefix(y, z)], z[: common_prefix(z, x)], key=len)


def chain_base_points(pair: AxisPair):
    """Base points (x, y) for witness chains, read off the rays of the pair's window axes.

    On a tree a's window is the geodesic [a-, a+] between its rays' ends, and
    its point nearest p is median(a-, a+, p).  A nonempty overlap (at D = 0,
    one point on both axes): its witness midpoint, projected to each window.
    Else the windows are disjoint, and the midpoint of the bridge from
    median(a-, a+, b-) to median(b-, b+, a-) is used for both.
    """
    model, witness = pair.model, pair.overlap.witness_segment
    rays = [model.axis_rays(p.element, pair.window) for p in (pair.profile_a, pair.profile_b)]
    (_, a_end, a_start), (_, b_end, b_start) = rays  # the overlap has refused what the rays would
    if witness:
        mid = witness[len(witness) // 2]
        return _median(a_start, a_end, mid), _median(b_start, b_end, mid)
    geo = model.geodesic(_median(a_start, a_end, b_start), _median(b_start, b_end, a_start))
    mid = geo[len(geo) // 2]
    return mid, mid
