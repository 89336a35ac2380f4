"""Freeness criteria and machine-checkable certificates.

Each certifying operation re-verifies its defining inequalities on the
measured quantities at emission time and refuses (raises
:class:`CertificateRefused`) rather than emit an optimistic claim.
Interval discipline: wherever a translation length must be large we use
tr_lower, wherever it must be small we use tr_upper.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Optional, Sequence

from .isometry import (
    HYPERBOLIC_YES,
    AxisData,
    EdgePath,
    IsometryProfile,
    OverlapReport,
    classify,
    farthest_pair,
    independence_test,
    overlap_diameter,
    overlap_points,
    quasi_axis,
)
from .models import ActionModel, ModelError, Word
from .oracle import evaluate, freeness_to_depth

SCHEMA_VERSION = 1


class CertificateRefused(Exception):
    """A criterion's preconditions or re-verification failed; no certificate."""


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

# name -> (value, provenance); provenance in
# {"paper-formula", "brute-forced", "config-override", "tree-case"}
ConstantSet = dict


def tree_constants() -> ConstantSet:
    """Analytically known constants for the delta = 0 Cayley-tree models."""
    return {
        "delta": (0, "tree-case"),
        "P": (1, "tree-case"),
        "K20": (1, "tree-case"),
        "L20": (1, "tree-case"),
        "K200": (1, "tree-case"),
        "L200": (1, "tree-case"),
    }


def cval(constants: ConstantSet, name: str):
    if name not in constants:
        raise CertificateRefused(f"required constant {name!r} missing")
    return constants[name][0]


def n6_formula(delta: int, P: int, K20: int, L20: int) -> int:
    return 4 * P * K20 * L20 + 200 * (delta + 1) * P


def n7_closed_form(delta: int, P: int, K20: int, L20: int) -> int:
    # Uniform bound: E <= (2 + 100(delta+1)P + 10 P K L) tr(f) via
    # tr(f) >= 1/P and D <= 2 tr(f), so tr(f^n) >= 1000 E once
    # n >= 1000 (2 + 100(delta+1)P + 10 P K L).
    return 1000 * (2 + 100 * (delta + 1) * P + 10 * P * K20 * L20)


def m_formula(delta: int, P: int, K20: int, L20: int, N6: int, N7: int) -> int:
    return 10 * K20 * L20 * P * N6 + 2000 * (delta + 1) * P + N7


def lemma5_bound(delta: int, P: int, K20: int, L20: int, tr_max: Fraction, slack: int = 100) -> Fraction:
    return 4 * P * K20 * L20 * tr_max + slack * delta


def _least_power(threshold: Fraction, tr: Fraction) -> int:
    """Smallest n >= 1 with n * tr >= threshold."""
    if tr <= 0:
        raise CertificateRefused("translation length lower bound is not positive")
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

    gaps = [Fraction(model.distance(points[i], points[i + 1])) for i in range(len(points) - 1)]
    for i in range(len(points) - 2):
        skip = Fraction(model.distance(points[i], points[i + 2]))
        if skip < max(gaps[i], gaps[i + 1]) + epsilon:
            return ThreePointsReport(epsilon, delta, False, i, None, None, None)

    lam = (epsilon / 100 - delta) ** -1 * max(gaps)
    lhs = rhs = None
    for i in range(3, len(points) + 1):
        lhs = lam * Fraction(model.distance(points[0], points[i - 1]))
        rhs = sum(gaps[: i - 1], Fraction(0))
        if lhs < rhs:
            # The verified consequence failed: report it honestly.
            return ThreePointsReport(epsilon, delta, False, i - 1, lam, lhs, rhs)
    return ThreePointsReport(epsilon, delta, True, None, lam, lhs, rhs)


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

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2)


def _num_str(v):
    if isinstance(v, Fraction):
        return str(v) if v.denominator != 1 else str(v.numerator)
    return v


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
    missing = [f for f in REQUIRED_CERT_FIELDS if f not in doc]
    if missing:
        raise ModelError(f"certificate document missing fields: {missing}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ModelError(f"unsupported certificate schema version {doc['schema_version']}")
    if not {"a", "b"} <= set(doc["elements"]):
        raise ModelError("certificate elements block must contain 'a' and 'b'")


# ---------------------------------------------------------------------------
# Pair analysis shared by the criteria
# ---------------------------------------------------------------------------


@dataclass
class PairAnalysis:
    profile_a: IsometryProfile
    profile_b: IsometryProfile
    axis_a: AxisData
    axis_b: AxisData
    overlap: OverlapReport
    independence: str


def analyze_pair(
    model: ActionModel,
    a: Word,
    b: Word,
    delta: int,
    window: int = 8,
    c: Optional[int] = None,
    independence_bound: int = 3,
) -> PairAnalysis:
    a, b = model.canon(a), model.canon(b)
    pa = classify(model, a, delta)
    pb = classify(model, b, delta)
    if pa.hyperbolic != HYPERBOLIC_YES or pb.hyperbolic != HYPERBOLIC_YES:
        raise CertificateRefused("both elements must be verified hyperbolic")
    verdict, witness = independence_test(model, a, b, independence_bound)
    if verdict == "dependent":
        raise CertificateRefused(f"elements are dependent: [a^{witness[0]}, b^{witness[1]}] = 1")
    axis_a = quasi_axis(model, a, window=window, delta=delta)
    axis_b = quasi_axis(model, b, window=window, delta=delta)
    if c is None:
        c = 10 * delta
    overlap = overlap_diameter(model, axis_a, axis_b, c)
    return PairAnalysis(pa, pb, axis_a, axis_b, overlap, verdict)


def _base_caveats(analysis: PairAnalysis, constants: ConstantSet) -> list:
    caveats = []
    if constants.get("delta", (0, ""))[1] == "brute-forced":
        caveats.append("empirical-delta")
    if any(prov == "brute-forced" for name, (_, prov) in constants.items() if name != "delta"):
        caveats.append("empirical-acyl")
    if analysis.overlap.boundary_touching:
        caveats.append("window-bounded-D")
    return caveats


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def nielsen_certify(
    model: ActionModel,
    a: Word,
    b: Word,
    constants: ConstantSet,
    epsilon_mode: str = "paper-literal",
    epsilon: Optional[Fraction] = None,
    exponents: Optional[tuple[int, int]] = None,
    window: int = 8,
    independence_bound: int = 3,
    oracle_depth: int = 8,
    analysis: Optional[PairAnalysis] = None,
) -> Certificate:
    """Certify via overlap-dominating powers: tr(a^n), tr(b^m) >= D + eps.

    Paper-literal mode uses eps = 100(delta+1).  Sharp-experimental mode
    takes a user eps > 100*delta, may take requested exponents below the
    formula minimum, and is emitted only after the independent word oracle
    confirms freeness of the certified pair to ``oracle_depth``.
    """
    delta = cval(constants, "delta")
    if analysis is None:
        analysis = analyze_pair(model, a, b, delta, window, independence_bound=independence_bound)
    if analysis.overlap.unbounded_in_window:
        raise CertificateRefused("overlap unbounded in window: elements share an axis")
    D = analysis.overlap.D

    if epsilon_mode == "paper-literal":
        eps = Fraction(100 * (delta + 1))
    elif epsilon_mode == "sharp-experimental":
        if epsilon is None or Fraction(epsilon) <= 100 * delta:
            raise CertificateRefused("sharp mode needs a user epsilon > 100 * delta")
        eps = Fraction(epsilon)
    else:
        raise ModelError(f"unknown epsilon mode {epsilon_mode!r}")

    tr_a, tr_b = analysis.profile_a.tr_lower, analysis.profile_b.tr_lower
    threshold = D + eps
    if exponents is None:
        n, m = _least_power(threshold, tr_a), _least_power(threshold, tr_b)
        formula_satisfied = True
    else:
        if epsilon_mode != "sharp-experimental":
            raise CertificateRefused("explicit exponents are only allowed in sharp-experimental mode")
        n, m = exponents
        formula_satisfied = n * tr_a >= threshold and m * tr_b >= threshold

    if epsilon_mode == "sharp-experimental":
        check = freeness_to_depth(model, model.power(a, n), model.power(b, m), oracle_depth)
        if check.verdict != "free-to-depth":
            raise CertificateRefused(
                f"oracle back-check found a relation at exponents ({n}, {m}): {list(check.relation)}"
            )
    else:
        # Emission-time re-verification of the defining inequalities.
        if not (n * tr_a >= threshold and m * tr_b >= threshold):
            raise CertificateRefused("computed exponents fail the defining inequality")

    tr_an, tr_bm = n * tr_a, m * tr_b
    lam = (eps / 100 - delta) ** -1 * max(n * analysis.profile_a.tr_upper, m * analysis.profile_b.tr_upper)
    L_prime = min(tr_an, tr_bm) / lam

    consts = dict(constants)
    consts["D"] = (D, "brute-forced")
    cert = Certificate(
        criterion="nielsen",
        model_spec=model.spec_dict(),
        a=model.canon(a),
        b=model.canon(b),
        exponents={"n_min": n, "m_min": m},
        constants=consts,
        epsilon_mode=epsilon_mode,
        epsilon=eps,
        caveats=_base_caveats(analysis, constants),
        details={
            "lambda": _num_str(lam),
            "predicted_embedding_L": _num_str(L_prime),
            "formula_satisfied": formula_satisfied,
        },
        witness={"overlap_witness": [repr(p) for p in analysis.overlap.witness_segment]},
    )
    if epsilon_mode == "sharp-experimental":
        cert.details["oracle_confirmed_depth"] = oracle_depth
    return cert


def prop6_certify(
    model: ActionModel,
    a: Word,
    b: Word,
    constants: ConstantSet,
    q: Fraction,
    window: int = 8,
    independence_bound: int = 3,
    analysis: Optional[PairAnalysis] = None,
) -> Certificate:
    """Comparable-translation-length criterion: free for n >= N6, m >= q*N6.

    Requires tr(a)/q <= tr(b) <= tr(a) and re-verifies the commutator
    overlap bound D < 4*P*K*L*tr(a) + 100*delta against the measured D.
    """
    delta, P = cval(constants, "delta"), cval(constants, "P")
    K20, L20 = cval(constants, "K20"), cval(constants, "L20")
    q = Fraction(q)
    if q < 1:
        raise CertificateRefused("q must be >= 1")
    if analysis is None:
        analysis = analyze_pair(model, a, b, delta, window, independence_bound=independence_bound)
    pa, pb = analysis.profile_a, analysis.profile_b

    if not pb.tr_upper <= pa.tr_lower:
        raise CertificateRefused("ratio precondition fails: tr(b) > tr(a); swap the roles")
    if not pa.tr_upper / q <= pb.tr_lower:
        raise CertificateRefused("ratio precondition fails: tr(b) < tr(a)/q")

    if analysis.overlap.unbounded_in_window:
        raise CertificateRefused("overlap unbounded in window")
    D = analysis.overlap.D
    bound = lemma5_bound(delta, P, K20, L20, pa.tr_upper)
    if not Fraction(D) < bound:
        raise CertificateRefused(
            f"measured overlap D = {D} violates the commutator bound {bound}: empirical constants too small"
        )

    N6 = n6_formula(delta, P, K20, L20)
    n_min, m_min = N6, ceil(q * N6)
    consts = dict(constants)
    consts["N6"] = (N6, "paper-formula")
    consts["D"] = (D, "brute-forced")
    consts["q"] = (q, "config-override")
    return Certificate(
        criterion="prop6",
        model_spec=model.spec_dict(),
        a=model.canon(a),
        b=model.canon(b),
        exponents={"n_min": n_min, "m_min": m_min},
        constants=consts,
        caveats=_base_caveats(analysis, constants),
        details={"lemma5_bound": _num_str(bound)},
        witness={"overlap_witness": [repr(p) for p in analysis.overlap.witness_segment]},
    )


def _prop7_E(D: int, delta: int, P: int, K20: int, L20: int, tr_f_upper: Fraction) -> Fraction:
    return D + 100 * (delta + 1) + 10 * P * K20 * L20 * tr_f_upper


def choose_Q(tr_a_lower: Fraction, tr_a_upper: Fraction, tr_g_lower: Fraction, tr_g_upper: Fraction):
    """Integer Q with tr(a)/100 <= Q*tr(g) <= tr(a)/50, plus the interval."""
    lo = tr_a_upper / (100 * tr_g_lower)
    hi = tr_a_lower / (50 * tr_g_upper)
    Q = max(1, ceil(lo))
    if Q * tr_g_upper > tr_a_lower / 50:
        raise CertificateRefused("Q interval is empty: tr(g) too large relative to tr(f^n)")
    return Q, (lo, hi)


def prop7_certify(
    model: ActionModel,
    f: Word,
    g: Word,
    constants: ConstantSet,
    window: int = 8,
    independence_bound: int = 3,
    analysis: Optional[PairAnalysis] = None,
) -> Certificate:
    """Dominant-f criterion: <g, f^n> free for all n >= N7(pair).

    Conditions: (1) tr(g) <= tr(f); (2) D <= 2 tr(f).  The threshold is the
    least n with tr(f^n) >= 1000 E, E = D + 100(delta+1) + 10 P K L tr(f).
    """
    delta, P = cval(constants, "delta"), cval(constants, "P")
    K20, L20 = cval(constants, "K20"), cval(constants, "L20")
    if analysis is None:
        analysis = analyze_pair(model, f, g, delta, window, independence_bound=independence_bound)
    pf, pg = analysis.profile_a, analysis.profile_b
    if analysis.overlap.unbounded_in_window:
        raise CertificateRefused("overlap unbounded in window")
    D = analysis.overlap.D

    if not pg.tr_upper <= pf.tr_lower:
        raise CertificateRefused("condition 1 fails: tr(g) > tr(f)")
    if not Fraction(D) <= 2 * pf.tr_lower:
        raise CertificateRefused(f"condition 2 fails: D = {D} > 2 tr(f)")

    E = _prop7_E(D, delta, P, K20, L20, pf.tr_upper)
    N7 = _least_power(1000 * E, pf.tr_lower)
    if not N7 * pf.tr_lower >= 1000 * E:
        raise CertificateRefused("computed threshold fails the defining inequality")
    Q, (q_lo, q_hi) = choose_Q(N7 * pf.tr_lower, N7 * pf.tr_upper, pg.tr_lower, pg.tr_upper)

    consts = dict(constants)
    consts["D"] = (D, "brute-forced")
    consts["E"] = (E, "paper-formula")
    consts["N7"] = (N7, "paper-formula")
    consts["Q"] = (Q, "paper-formula")
    return Certificate(
        criterion="prop7",
        model_spec=model.spec_dict(),
        a=model.canon(f),
        b=model.canon(g),
        exponents={"n_min": N7, "m_min": 1},
        constants=consts,
        caveats=_base_caveats(analysis, constants),
        details={"Q_interval": [_num_str(q_lo), _num_str(q_hi)]},
        witness={"overlap_witness": [repr(p) for p in analysis.overlap.witness_segment]},
    )


def prop8_threshold(pf: IsometryProfile, pg: IsometryProfile, D: int, constants: ConstantSet) -> tuple[int, Fraction]:
    """Per-pair N: least n with tr(f^n) >= 1000 E and tr(g) <= tr(f^n)/100."""
    delta, P = cval(constants, "delta"), cval(constants, "P")
    K20, L20 = cval(constants, "K20"), cval(constants, "L20")
    E = _prop7_E(D, delta, P, K20, L20, pf.tr_upper)
    n1 = _least_power(1000 * E, pf.tr_lower)
    n2 = _least_power(100 * pg.tr_upper, pf.tr_lower)
    return max(n1, n2), E


def prop8_certify(
    model: ActionModel,
    f: Word,
    g: Word,
    constants: ConstantSet,
    window: int = 8,
    independence_bound: int = 3,
    analysis: Optional[PairAnalysis] = None,
) -> Certificate:
    """Per-pair threshold with no conditions on tr(f) vs tr(g).

    Also emits the composite two-sided claim: <f^n, g^m> is free whenever
    |n| + |m| >= 2N with N the max of the two one-sided thresholds.
    """
    delta = cval(constants, "delta")
    if analysis is None:
        analysis = analyze_pair(model, f, g, delta, window, independence_bound=independence_bound)
    if analysis.overlap.unbounded_in_window:
        raise CertificateRefused("overlap unbounded in window")
    D = analysis.overlap.D

    N_fg, E = prop8_threshold(analysis.profile_a, analysis.profile_b, D, constants)
    N_gf, _ = prop8_threshold(analysis.profile_b, analysis.profile_a, D, constants)
    N_pair = max(N_fg, N_gf)

    consts = dict(constants)
    consts["D"] = (D, "brute-forced")
    consts["E"] = (E, "paper-formula")
    consts["N"] = (N_fg, "paper-formula")
    return Certificate(
        criterion="prop8",
        model_spec=model.spec_dict(),
        a=model.canon(f),
        b=model.canon(g),
        exponents={"n_min": N_fg, "m_min": 1},
        constants=consts,
        caveats=_base_caveats(analysis, constants),
        details={
            "composite_threshold_N": N_pair,
            "composite_claim": "free for nm != 0 with |n| + |m| >= 2N",
        },
        witness={"overlap_witness": [repr(p) for p in analysis.overlap.witness_segment]},
    )


def theorem9_certify(
    model: ActionModel,
    a: Word,
    b: Word,
    constants: ConstantSet,
    window: int = 8,
    independence_bound: int = 3,
    quasi_mode: bool = False,
) -> Certificate:
    """Uniform bound: <a^n, b^m> free for all n, m >= M, M independent of a, b.

    Replays the case analysis on the measured quantities (after ordering so
    tr(b) <= tr(a)) and records which branch fired.  ``quasi_mode`` is the
    no-quasi-axis variant: 1000*delta overlaps, the enlarged commutator
    bound, and quasi-geodesic axes allowed.
    """
    delta, P = cval(constants, "delta"), cval(constants, "P")
    K20, L20 = cval(constants, "K20"), cval(constants, "L20")
    c = (1000 if quasi_mode else 10) * delta
    analysis = analyze_pair(model, a, b, delta, window, c=c, independence_bound=independence_bound)
    if not quasi_mode:
        if analysis.axis_a.mode != "geodesic-axis" or analysis.axis_b.mode != "geodesic-axis":
            raise CertificateRefused("theorem9 mode requires geodesic axes; use theorem14 mode")

    swapped = analysis.profile_b.tr_lower > analysis.profile_a.tr_lower
    big, small = (analysis.profile_b, analysis.profile_a) if swapped else (analysis.profile_a, analysis.profile_b)
    tr_big_lo, tr_big_up = big.tr_lower, big.tr_upper
    tr_small_lo, tr_small_up = small.tr_lower, small.tr_upper

    if analysis.overlap.unbounded_in_window:
        raise CertificateRefused("overlap unbounded in window")
    D = analysis.overlap.D
    slack = 10000 if quasi_mode else 100
    bound = lemma5_bound(delta, P, K20, L20, tr_big_up, slack)
    if not Fraction(D) < bound:
        raise CertificateRefused(
            f"measured D = {D} violates the commutator bound {bound}: empirical constants inconsistent"
        )

    N6 = n6_formula(delta, P, K20, L20)
    N7 = n7_closed_form(delta, P, K20, L20)
    M = m_formula(delta, P, K20, L20, N6, N7)

    # Case replay on measured quantities, in the theorem's order.
    if tr_small_up / tr_big_lo > Fraction(N6, M):
        branch = "step1-prop6"
    elif M * tr_small_lo > D + 100 * (delta + 1):
        branch = "step2-nielsen"
    elif Fraction(D) <= 2 * tr_big_lo:
        branch = "step3-prop7"
    else:
        raise CertificateRefused(
            "no branch fires on the measured data (ratio small, overlap large, D > 2 tr(a)): "
            "empirical constants inconsistent"
        )

    consts = dict(constants)
    consts["N6"] = (N6, "paper-formula")
    consts["N7"] = (N7, "paper-formula")
    consts["M"] = (M, "paper-formula")
    consts["D"] = (D, "brute-forced")
    return Certificate(
        criterion="theorem14-mode" if quasi_mode else "theorem9",
        model_spec=model.spec_dict(),
        a=model.canon(a),
        b=model.canon(b),
        exponents={"n_min": M, "m_min": M},
        constants=consts,
        caveats=_base_caveats(analysis, constants),
        details={
            "branch": branch,
            "swapped_roles": swapped,
            "overlap_radius_c": c,
            "lemma5_bound": _num_str(bound),
        },
        witness={"overlap_witness": [repr(p) for p in analysis.overlap.witness_segment]},
    )


def theorem14_mode(model: ActionModel, a: Word, b: Word, constants: ConstantSet, **kwargs) -> Certificate:
    return theorem9_certify(model, a, b, constants, quasi_mode=True, **kwargs)


# ---------------------------------------------------------------------------
# Witness chains
# ---------------------------------------------------------------------------


def word_syllables(word: Word) -> list[tuple[int, int]]:
    """Group a reduced word over letters {±1, ±2} into (generator, exponent)
    syllables, e.g. (1, 1, 2, 2, -1) -> [(1, 2), (2, 2), (1, -1)]."""
    syl: list[tuple[int, int]] = []
    for l in word:
        if abs(l) not in (1, 2):
            raise ModelError("chain words use two letters: 1 and 2 (signed)")
        s = 1 if l > 0 else -1
        if syl and syl[-1][0] == abs(l) and (syl[-1][1] > 0) == (s > 0):
            syl[-1] = (abs(l), syl[-1][1] + s)
        else:
            syl.append((abs(l), s))
    return syl


def word_case(syllables: list[tuple[int, int]]) -> str:
    """O: power of the second letter alone; I: starts with the first letter;
    II: starts with the second letter but involves the first."""
    if not syllables:
        raise ModelError("chain words must be nonempty")
    if all(gen == 2 for gen, _ in syllables):
        return "O"
    return "I" if syllables[0][0] == 1 else "II"


@dataclass
class WitnessChain:
    word: Word
    case: str
    base_x: object
    base_y: object
    p: list
    q: list
    r: list
    s: list
    segments: dict  # label -> (endpoint, endpoint)
    u: list  # pruned interpolated chain, start to end
    u_labels: list
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


def _segment_overlap(model: ActionModel, path1, path2, c: int) -> int:
    """Diameter of the c-overlap of two geodesic segments (0 when empty)."""
    pts = overlap_points(model, path1, path2, c)[2]
    return farthest_pair(model, pts)[0] if pts else 0


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
    tr_a: Optional[Fraction] = None,
) -> WitnessChain:
    """Interpolated point chain witnessing that ``word`` (in a, b) moves x.

    Builds the block points p_j, q_j, r_j, s_j, checks the five block
    conditions (violations are annotated, not fatal), interpolates with the
    a-action and Q-blocks of the b-action, prunes to the subchain u_k,
    classifies consecutive gaps into the two admissible bands, verifies the
    three points condition for epsilon = E on u, and checks the resulting
    embedding bound L * |x - word(x)| >= |word|.
    """
    E = Fraction(E)
    if Q < 1:
        raise ModelError("Q must be >= 1")
    a, b = model.canon(a), model.canon(b)
    syl = word_syllables(word)
    case = word_case(syl)
    if tr_a is None:
        from .isometry import translation_length

        tr_a = translation_length(model, a)[0]
    tr_a = Fraction(tr_a)

    failures: list = []
    conditions: dict = {}

    # Blocks: an optional leading (2, m0) syllable, then alternating
    # (1, n_j), (2, m_j) pairs with m_i possibly absent.
    m0 = 0
    rest = syl
    if case in ("O", "II"):
        m0 = rest[0][1]
        rest = rest[1:]
    blocks: list[tuple[int, int]] = []  # (n_j, m_j)
    idx = 0
    while idx < len(rest):
        gen, n = rest[idx]
        if gen != 1:
            raise ModelError("word is not freely reduced over the two letters")
        m = 0
        if idx + 1 < len(rest):
            gen2, m = rest[idx + 1]
            if gen2 != 2:
                raise ModelError("word is not freely reduced over the two letters")
        blocks.append((n, m))
        idx += 2

    def act(element: Word, base):
        return model.apply(element, base)

    def bpow(k: int) -> Word:
        return model.power(b, k)

    def apow(k: int) -> Word:
        return model.power(a, k)

    # Labeled interpolated sequence before pruning.
    labeled: list[tuple[tuple, object]] = []
    p_pts: list = []
    q_pts: list = []
    r_pts: list = []
    s_pts: list = []
    segments: dict = {}
    o_of: dict[int, int] = {}

    prefix: Word = ()
    if m0:
        # Leading b-block based at y (cases O and II).
        o0 = m0 // Q if m0 >= 0 else -((-m0) // Q)
        o_of[0] = o0
        labeled.append((("r", 0, 0), y))
        sign = 1 if m0 >= 0 else -1
        for k in range(1, abs(o0)):
            labeled.append((("r", 0, k), act(bpow(sign * k * Q), y)))
        prefix = bpow(m0)
        labeled.append((("s", 0), act(prefix, y)))
        s_pts.append(act(prefix, y))
        segments["B_0"] = (y, act(prefix, y))

    i = len(blocks)
    for j, (n_j, m_j) in enumerate(blocks, start=1):
        p_j = act(prefix, x)
        prefix_a = model.compose(prefix, apow(n_j))
        q_j = act(prefix_a, x)
        r_j = act(prefix_a, y)
        prefix_next = model.compose(prefix_a, bpow(m_j))
        s_j = act(prefix_next, y)
        p_pts.append(p_j)
        q_pts.append(q_j)
        r_pts.append(r_j)
        s_pts.append(s_j)
        segments[f"A_{j}"] = (p_j, q_j)
        segments[f"B_{j}"] = (r_j, s_j)

        sign = 1 if n_j >= 0 else -1
        for k in range(abs(n_j) + 1):
            labeled.append((("p", j, k), act(model.compose(prefix, apow(sign * k)), x)))
        o_j = m_j // Q if m_j >= 0 else -((-m_j) // Q)
        o_of[j] = o_j
        labeled.append((("r", j, 0), r_j))
        sign = 1 if m_j >= 0 else -1
        for k in range(1, abs(o_j)):
            labeled.append((("r", j, k), act(model.compose(prefix_a, bpow(sign * k * Q)), y)))
        labeled.append((("s", j), s_j))
        prefix = prefix_next

    if case == "O":
        # No a-blocks: the chain is just the interpolated leading b-block.
        i = 0

    # Segment endpoints C_j, D_j for the record.
    for j in range(1, i):
        segments[f"C_{j}"] = (p_pts[j - 1], q_pts[j])
        segments[f"D_{j}"] = (p_pts[j - 1], p_pts[j])

    # Block conditions; measured worst cases, violations annotated.
    def note(name: str, holds: bool, measured):
        conditions[name] = {"holds": bool(holds), "measured": measured}
        if not holds:
            failures.append(f"condition {name} fails (measured {measured})")

    if i >= 1:
        s_prev = [y] + s_pts if not m0 else s_pts  # s_0 = y in case I
        c1 = max(
            max(model.distance(q_pts[j], r_pts[j]) for j in range(i)),
            max(model.distance(p_pts[j], s_prev[j]) for j in range(i)),
        )
        note("c1", c1 <= 2 * delta, c1)
        c2 = min(model.distance(p_pts[j], q_pts[j]) for j in range(i))
        note("c2", c2 >= 1000 * E, c2)
        geos_A = [model.geodesic(p_pts[j], q_pts[j]) for j in range(i)]
        geos_B = [model.geodesic(r_pts[j], s_pts[-i:][j]) for j in range(i)]
        c3 = max(_segment_overlap(model, geos_A[j], geos_B[j], 10 * delta) for j in range(i))
        note("c3", c3 <= E, c3)
        geos_B_prev = ([model.geodesic(y, act(bpow(m0), y))] if m0 else []) + geos_B
        if m0:
            c4 = max(_segment_overlap(model, geos_B_prev[j], geos_A[j], 10 * delta) for j in range(i))
        elif i >= 2:
            c4 = max(_segment_overlap(model, geos_B[j - 1], geos_A[j], 10 * delta) for j in range(1, i))
        else:
            c4 = 0
        note("c4", c4 <= E, c4)
        if i >= 2:
            c5 = max(_segment_overlap(model, geos_A[j], geos_A[j + 1], 10 * delta) for j in range(i - 1))
        else:
            c5 = 0
        note("c5", c5 <= E, c5)

    # Pruning: drop every r_j (k = 0 only), every s_j but the last, and q_j
    # whenever o_j = 0.  Interior r_{j,k} interpolation points stay.
    last_s = max((lab[1] for lab, _ in labeled if lab[0] == "s"), default=None)
    u: list = []
    u_labels: list = []
    for lab, pt in labeled:
        kind = lab[0]
        if kind == "r" and lab[2] == 0 and not (m0 and lab[1] == 0):
            continue  # r_0 = y is the chain start in cases O and II
        if kind == "s" and lab[1] != last_s:
            continue
        if kind == "p" and lab[2] == abs(blocks[lab[1] - 1][0]) and o_of.get(lab[1]) == 0 and lab[1] != i:
            continue  # q_j with o_j = 0 (keep q_i when it ends the chain)
        if kind == "p" and lab[2] == abs(blocks[lab[1] - 1][0]) and o_of.get(lab[1]) == 0 and lab[1] == i and last_s is not None:
            continue
        u.append(pt)
        u_labels.append(lab)

    # Gap bands: (i) around tr(a), (ii) around tr(b^Q).
    gaps: list = []
    ok_bands = True
    for p1, p2 in zip(u, u[1:]):
        d = model.distance(p1, p2)
        if Fraction(4, 5) * tr_a <= d <= Fraction(6, 5) * tr_a:
            band = "i"
        elif tr_a / 100 <= d <= tr_a / 10:
            band = "ii"
        else:
            band = None
            ok_bands = False
            failures.append(f"gap {d} falls outside both admissible bands")
        gaps.append((d, band))

    three = three_points_check(model, u, E, delta)
    if not three.holds:
        failures.append(f"three points condition fails at index {three.first_violation}")

    # Embedding constant from the chain: L = Q * lambda_0 / 500 with
    # lambda_0 = (E/100 - delta)^-1 * 2 tr(a).
    lam0 = (E / 100 - delta) ** -1 * 2 * tr_a
    L = Q * lam0 / 500
    w_elt = evaluate(model, word, a, b)
    moved = model.distance(x, model.apply(w_elt, x))
    word_len = sum(abs(n) + abs(m) for n, m in blocks) + abs(m0)
    embedding_ok = L * moved >= word_len
    if not embedding_ok:
        failures.append(f"embedding bound fails: L * {moved} < |word| = {word_len}")

    return WitnessChain(
        word=tuple(word),
        case=case,
        base_x=x,
        base_y=y,
        p=p_pts,
        q=q_pts,
        r=r_pts,
        s=s_pts,
        segments=segments,
        u=u,
        u_labels=u_labels,
        conditions=conditions,
        failures=failures,
        gaps=gaps,
        gap_bands_ok=ok_bands,
        three_points=three,
        embedding_L=L,
        embedding_ok=embedding_ok,
    )


def chain_base_points(model: ActionModel, axis_a: AxisData, axis_b: AxisData, overlap: OverlapReport):
    """Base points (x, y) for witness chains.

    D > 0: midpoint of the longest overlap segment, projected to each axis.
    D = 0: the midpoint of a distance-realizing segment between the axes,
    used for both (deterministic tie-breaks throughout).
    """
    pa, pb = EdgePath(model, axis_a.path), EdgePath(model, axis_b.path)
    if overlap.D > 0 and overlap.witness_segment:
        seg = list(overlap.witness_segment)
        mid = seg[len(seg) // 2]
        return pa.nearest(mid), pb.nearest(mid)
    key = model.point_key
    shared = [p for p in pa.points if p in pb.members]
    if shared:
        # Distance 0 is least, and p = q there: the least key of a shared point.
        mid = min(shared, key=key)
        return mid, mid
    # The least (d(p, q), key(p), key(q)) pairs each p with its nearest q.
    pairs = [(p, pb.nearest(p)) for p in pa.points]
    pair = min(pairs, key=lambda t: (model.distance(*t), key(t[0]), key(t[1])))
    geo = model.geodesic(pair[0], pair[1])
    mid = geo[len(geo) // 2]
    return mid, mid
