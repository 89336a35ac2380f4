"""Certifying criteria: three points condition, certificates, witness chains."""

import json
import random
import re
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest

import freecert

from freecert import (
    AxisPair,
    CapExceeded,
    CertificateRefused,
    CycleModel,
    FreeGroupModel,
    FreeProductModel,
    ModelError,
    OverlapReport,
    analyze_pair,
    build_witness_chain,
    chain_base_points,
    classify,
    compute_delta,
    nielsen_certify,
    prop6_certify,
    prop7_certify,
    prop8_certify,
    resolve_constants,
    theorem9_certify,
    three_points_check,
    validate_certificate,
)
from freecert.certifier import (
    _gap_band,
    _segment_overlap,
    check_chain_input,
    nielsen_claim,
    prop6_claim,
    prop7_claim,
    theorem9_claim,
)
from freecert.cli import main


@pytest.fixture(scope="module")
def f2():
    return FreeGroupModel(2, cap=4096)


@pytest.fixture(scope="module")
def zz2():
    return FreeProductModel(cap=512)


A, B = (1,), (2,)


# -- the constants a certificate uses ---------------------------------------------


@pytest.mark.parametrize("model", [FreeGroupModel(2), FreeProductModel()], ids=["F2", "ZxZ2"])
def test_tree_constants_are_one_on_trees(model):
    assert resolve_constants(model, 0, "tree-case") == {
        "delta": (0, "tree-case"),
        "P": (1, "tree-case"),
        "K20": (1, "tree-case"),
        "L20": (1, "tree-case"),
        "K200": (1, "tree-case"),
        "L200": (1, "tree-case"),
    }


@pytest.mark.parametrize("n", [4, 8])
def test_curved_constants_are_brute_forced(n):
    # C4's group ball is the whole group, C8's is not: both are brute-forced all the same.
    model = CycleModel(n)
    delta = compute_delta(model).delta
    assert delta >= 1
    constants = resolve_constants(model, delta, "brute-forced")
    assert constants["delta"] == (delta, "brute-forced")
    assert {name: prov for name, (_, prov) in constants.items() if name != "delta"} == {
        name: "brute-forced" for name in ("P", "K20", "L20", "K200", "L200")
    }


def test_zero_delta_off_a_tree_is_refused():
    # The triangle C3 measures delta = 0, but it is not a tree: P = ceil(K/(90 delta)) has no value.
    model = CycleModel(3)
    assert compute_delta(model).delta == 0
    with pytest.raises(CertificateRefused, match=r"delta = 0 .*--delta"):
        resolve_constants(model, 0, "brute-forced")


# -- three points condition ----------------------------------------------------


def test_three_points_collinear_holds(f2):
    points = [(1,) * (10 * k) for k in range(4)]
    rep = three_points_check(f2, points, Fraction(5), 0)
    assert rep.holds and rep.first_violation is None
    assert rep.bound3_lhs >= rep.bound3_rhs


def test_three_points_backtrack_fails(f2):
    rep = three_points_check(f2, [(), (1,), ()], Fraction(1), 0)
    assert not rep.holds and rep.first_violation == 0


def test_three_points_lambda_formula(f2):
    points = [(1,) * (200 * k) for k in range(4)]
    rep = three_points_check(f2, points, Fraction(100), 0)
    assert rep.holds
    assert rep.lam == 200
    assert rep.bound3_rhs == 600
    assert rep.bound3_lhs == 200 * 600


def test_three_points_epsilon_precondition(f2):
    with pytest.raises(ModelError):
        three_points_check(f2, [(), (1,)], Fraction(0), 0)


class _Table:
    """Points 0..n-1 with distances read from a table: only what three_points_check measures."""

    def __init__(self, table):
        self.distance = lambda i, j: table[min(i, j)][max(i, j)]


def _summed_bound(model, points, epsilon, delta):
    """(holds, first violation, lam, lhs, rhs) with each sum of gaps taken afresh."""
    gaps = [Fraction(model.distance(points[i], points[i + 1])) for i in range(len(points) - 1)]
    for i in range(len(points) - 2):
        if Fraction(model.distance(points[i], points[i + 2])) < max(gaps[i], gaps[i + 1]) + epsilon:
            return False, i, None, None, None
    lam = (epsilon / 100 - delta) ** -1 * max(gaps)
    for i in range(3, len(points) + 1):
        lhs = lam * Fraction(model.distance(points[0], points[i - 1]))
        rhs = sum(gaps[: i - 1], Fraction(0))
        if lhs < rhs:
            return False, i - 1, lam, lhs, rhs
    return True, None, lam, lhs, rhs


def _boundary_table(n, gap, skip, far):
    """Distances of n points: gaps of ``gap``, every skip of two ``skip``, and d(p_0, p_(n-1)) = ``far``."""
    table = [[gap * (j - i) for j in range(n)] for i in range(n)]
    for i in range(n - 2):
        table[i][i + 2] = skip
    table[0][n - 1] = far
    return table


def test_three_points_running_sum_matches_the_sum_taken_afresh(f2):
    # Chains of 3-40 points: on a line (the bound holds), random points (the
    # local condition fails), and tables whose d(p_0, p_k) collapses at one k
    # (the summed bound fails there).  Tables near a line with gaps of about
    # epsilon, at fractional epsilon and delta 0-2, reach each outcome at
    # delta > 0 too.  The integer check equals the reference in Fractions, at
    # the boundaries as well: a skip of exactly max gap + epsilon holds and
    # one less fails; lambda |p_1 - p_i| equal to the sum of gaps holds and
    # one less fails.
    rng = random.Random("three-points")
    checked = set()
    for n in range(3, 41):
        steps = [rng.randint(6, 9) for _ in range(n)]
        line = [(1,) * sum(steps[:k]) for k in range(n)]
        walk = [f2.canon(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 12))) for _ in range(n)]
        table = [[10 * (j - i) for j in range(n)] for i in range(n)]
        if n > 3:
            table[0][rng.randint(3, n - 1)] = 0
        cases = [
            (f2, line, Fraction(5), 0),
            (f2, walk, Fraction(1), 0),
            (_Table(table), list(range(n)), Fraction(5), 0),
        ]
        for delta in (0, 1, 2):
            epsilon = 100 * delta + Fraction(rng.randint(1, 40), rng.randint(1, 7))
            gaps = [ceil(epsilon) + rng.randint(0, 30) for _ in range(n - 1)]
            near = [[sum(gaps[i:j]) - min(j - i - 1, rng.randint(0, 2)) for j in range(n)] for i in range(n)]
            if rng.random() < 0.3:
                near[0][rng.randint(2, n - 1)] = rng.randint(0, 3)
            cases.append((_Table(near), list(range(n)), epsilon, delta))
        for model, points, epsilon, delta in cases:
            rep = three_points_check(model, points, epsilon, delta)
            expected = _summed_bound(model, points, epsilon, delta)
            assert (rep.holds, rep.first_violation, rep.lam, rep.bound3_lhs, rep.bound3_rhs) == expected
            assert all(v is None or type(v) is Fraction for v in (rep.lam, rep.bound3_lhs, rep.bound3_rhs))
            checked.add((rep.holds, rep.lam is None, delta > 0))
    outcomes = ((True, False), (False, True), (False, False))
    assert checked == {(*outcome, curved) for outcome in outcomes for curved in (False, True)}  # each was reached

    boundaries = [
        (_boundary_table(4, 1, 101, 3), Fraction(100), 0, (True, None)),  # skip 1 + 100; lambda = 1, 1 * 3 = 3
        (_boundary_table(4, 1, 100, 3), Fraction(100), 0, (False, 0)),
        (_boundary_table(4, 1, 101, 2), Fraction(100), 0, (False, 3)),
        (_boundary_table(5, 2, 307, 8), Fraction(305), 3, (True, None)),  # lambda = 100 * 2 / (305 - 300) = 40
        (_boundary_table(5, 2, 307, 8), Fraction(1831, 6), 3, (False, 0)),  # 305 1/6 > 307 - 2
    ]
    for table, epsilon, delta, (holds, first_violation) in boundaries:
        model, points = _Table(table), list(range(len(table)))
        rep = three_points_check(model, points, epsilon, delta)
        assert (rep.holds, rep.first_violation) == (holds, first_violation)
        assert (rep.holds, rep.first_violation, rep.lam, rep.bound3_lhs, rep.bound3_rhs) == _summed_bound(
            model, points, epsilon, delta)


# -- nielsen ---------------------------------------------------------------------


def test_nielsen_generators(f2):
    cert = nielsen_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"))
    assert cert.exponents == {"n_min": 100, "m_min": 100}
    assert cert.constants["D"][0] == 0
    assert cert.details["predicted_embedding_L"] == "1"
    validate_certificate(cert.to_doc())


def test_nielsen_shared_axis_refused(f2):
    with pytest.raises(CertificateRefused, match="dependent"):
        nielsen_certify(f2, A, (1, 1), resolve_constants(f2, 0, "tree-case"))


def test_nielsen_sharp_mode_small_exponents(f2):
    cert = nielsen_certify(
        f2, A, B, resolve_constants(f2, 0, "tree-case"),
        epsilon_mode="sharp-experimental", epsilon=Fraction(1), exponents=(1, 1),
    )
    assert cert.exponents == {"n_min": 1, "m_min": 1}
    assert cert.details["oracle_confirmed_depth"] == 8


def test_nielsen_sharp_mode_requires_epsilon(f2):
    with pytest.raises(CertificateRefused):
        nielsen_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"), epsilon_mode="sharp-experimental")


def test_nielsen_paper_literal_mode_refuses_an_epsilon(f2):
    # Paper-literal mode fixes eps = 100(delta + 1); a given epsilon is refused, not replaced.
    with pytest.raises(CertificateRefused, match="^an explicit epsilon is only allowed in sharp-experimental mode$"):
        nielsen_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"), epsilon=Fraction(5))


def test_nielsen_sharp_mode_checks_the_canonical_pair():
    # The oracle back-check powers the analysed elements, not the caller's
    # words: a raw -2 or an a·a^-1 pair gives the certificate of the normal form.
    model = FreeProductModel()
    constants = resolve_constants(model, 0, "tree-case")

    def certify(a, b):
        return nielsen_certify(
            model, a, b, constants, epsilon_mode="sharp-experimental", epsilon=Fraction(1), exponents=(2, 2),
        ).to_doc()

    assert certify((1, -2, 2, 1, -2), (-2, -1, 1, 1)) == certify((1, 1, 2), (2, 1))


def test_nielsen_sharp_mode_refuses_a_back_check_the_cap_stops():
    model = FreeGroupModel(2, cap=512)
    with pytest.raises(CertificateRefused) as exc:
        nielsen_certify(model, (1, 2), (2, 1), resolve_constants(model, 0, "tree-case"),
                        epsilon_mode="sharp-experimental", epsilon=Fraction(1), exponents=(200, 200))
    assert str(exc.value) == ("oracle back-check could not run at exponents (200, 200): "
                              "word length 800 exceeds expansion cap 512")


@pytest.mark.parametrize(
    "exponents", [(5,), (1, 2, 3), (1, Fraction(1)), (True, 1), (0, 0), (-2, -2), (0, 5), (5, -1), [1, 0]]
)
def test_nielsen_refuses_explicit_exponents_that_are_not_two_integers(f2, exponents):
    # Invalid input in either mode, before the pair is analysed: anything but
    # two integers, and two integers of which one is below 1.
    if [type(e) for e in exponents] == [int, int]:
        message = re.escape(f"explicit exponents must be >= 1, got {tuple(exponents)}") + "$"
    else:
        message = "^explicit exponents must be two integers, got "
    for mode in ("paper-literal", "sharp-experimental"):
        with pytest.raises(ModelError, match=message):
            nielsen_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"), epsilon_mode=mode,
                            epsilon=Fraction(1) if mode != "paper-literal" else None, exponents=exponents)


def test_nielsen_torsion_partner_refused(zz2):
    with pytest.raises(CertificateRefused, match="hyperbolic"):
        nielsen_certify(zz2, (1,), (2,), resolve_constants(zz2, 0, "tree-case"))


# -- prop6 -------------------------------------------------------------------------


def test_prop6_generators_q3(f2):
    cert = prop6_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"), q=Fraction(3))
    assert cert.constants["N6"][0] == 204
    assert cert.exponents == {"n_min": 204, "m_min": 612}


def test_prop6_ratio_precondition(f2):
    with pytest.raises(CertificateRefused, match="swap"):
        prop6_certify(f2, A, (2, 1), resolve_constants(f2, 0, "tree-case"), q=Fraction(3))


def test_prop6_q_window(f2):
    # tr(b) = 1 < tr(a)/q = 3/2 violates the lower ratio bound.
    with pytest.raises(CertificateRefused, match="ratio"):
        prop6_certify(f2, (1, 2, 1), B, resolve_constants(f2, 0, "tree-case"), q=Fraction(2))


def test_prop6_reads_the_overlap_before_the_ratio(f2):
    # a^10 b a^10 (tr 21) against a (tr 1) at q = 2 fails the lower ratio
    # bound and has an overlap the window cannot bound: D is read first.
    with pytest.raises(CertificateRefused, match="overlap unbounded in window"):
        prop6_certify(f2, (1,) * 10 + (2,) + (1,) * 10, A, resolve_constants(f2, 0, "tree-case"), q=Fraction(2))


# -- prop7 / prop8 ------------------------------------------------------------------


def test_prop7_generators(f2):
    cert = prop7_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"))
    assert cert.constants["E"][0] == 110
    assert cert.constants["N7"][0] == 110000


def test_prop7_overlapping_pair(f2):
    # f = ab (tr 2), g = a (tr 1): axes share the edge [e, a], so D = 1.
    cert = prop7_certify(f2, (1, 2), (1,), resolve_constants(f2, 0, "tree-case"))
    assert cert.constants["D"][0] == 1
    assert cert.constants["E"][0] == 121
    assert cert.constants["N7"][0] == 60500


def test_prop7_condition1(f2):
    with pytest.raises(CertificateRefused, match="condition 1"):
        prop7_certify(f2, A, (2, 1), resolve_constants(f2, 0, "tree-case"))


def test_prop8_generators(f2):
    cert = prop8_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"))
    assert cert.constants["N"][0] == 110000
    assert cert.details["composite_threshold_N"] == 110000


def test_prop8_large_g(f2):
    cert = prop8_certify(f2, A, f2.power(B, 10), resolve_constants(f2, 0, "tree-case"))
    assert cert.constants["N"][0] == 110000  # max(110000, 1000)


# -- theorem9_certify, plain and with quasi_mode (theorem 14) -------------------------------------


def test_theorem9_constants_and_branch(f2):
    cert = theorem9_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"))
    assert cert.constants["N6"][0] == 204
    assert cert.constants["N7"][0] == 112000
    assert cert.constants["M"][0] == 116040
    assert cert.exponents == {"n_min": 116040, "m_min": 116040}
    assert cert.details["branch"] == "step1-prop6"
    assert cert.constants["D"][0] == 0


def test_theorem9_dependent_pair_refused(f2):
    with pytest.raises(CertificateRefused, match="dependent"):
        theorem9_certify(f2, A, (1, 1), resolve_constants(f2, 0, "tree-case"))


def test_theorem14_matches_theorem9_at_delta_zero(f2):
    c9 = theorem9_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"))
    c14 = theorem9_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"), quasi_mode=True)
    assert c14.exponents == c9.exponents
    assert c14.criterion == "theorem14-mode"
    assert c14.details["overlap_radius_c"] == c9.details["overlap_radius_c"] == 0
    assert {k: v for k, v in c14.constants.items()} == {k: v for k, v in c9.constants.items()}


# -- the claims on plain numbers ---------------------------------------------------------


TREE = {name: (value, "tree-case") for name, value in [("delta", 0), ("P", 1), ("K20", 1), ("L20", 1)]}
TREE_THRESHOLDS = {"N6": (204, "paper-formula"), "N7": (112000, "paper-formula"), "M": (116040, "paper-formula")}


@pytest.mark.parametrize(
    "tr_a, tr_b, D, branch, swapped",
    [
        (1, 1, 0, "step1-prop6", False),
        (1200, 1, 0, "step2-nielsen", False),
        (1, 1200, 0, "step2-nielsen", True),
        (100000, Fraction(1, 1000), 100000, "step3-prop7", False),
    ],
)
def test_theorem9_claim_replays_each_branch(tr_a, tr_b, D, branch, swapped):
    n, m, own, details = theorem9_claim(TREE, tr_a, tr_b, D)
    assert (n, m, own) == (116040, 116040, TREE_THRESHOLDS)
    assert details == {
        "branch": branch,
        "swapped_roles": swapped,
        "overlap_radius_c": 0,
        "lemma5_bound": 4 * max(tr_a, tr_b),
    }


@pytest.mark.parametrize(
    "claim, tr_a, tr_b, D, options, refusal",
    [
        (theorem9_claim, 1000, Fraction(1, 1000), 3000, (), r"no branch fires .* D = 3000 > 2 tr\(a\) = 2000\)"),
        # With the roles swapped the larger element is b, and the refusal says so.
        (theorem9_claim, Fraction(1, 1000), 1000, 3000, (), r"no branch fires .* D = 3000 > 2 tr\(b\) = 2000\)"),
        (theorem9_claim, 1, 1, 4, (), "measured D = 4 violates the commutator bound 4"),
        (prop7_claim, 2, 1, 5, (), r"condition 2 fails: D = 5 > 2 tr\(f\)"),
        (prop7_claim, 1, 2, 0, (), r"condition 1 fails: tr\(g\) = 2 > tr\(f\) = 1$"),
        (prop6_claim, 1, 2, 0, (Fraction(3),), r"tr\(b\) = 2 > tr\(a\) = 1; swap the roles$"),
        (prop6_claim, 3, 1, 0, (Fraction(2),), r"tr\(b\) = 1 < tr\(a\)/q = 3/2$"),
    ],
    ids=["theorem9-no-branch", "theorem9-no-branch-swapped", "theorem9-commutator-bound", "prop7-condition-2",
         "prop7-condition-1", "prop6-swap", "prop6-q"],
)
def test_claims_name_the_inequality_that_fails(claim, tr_a, tr_b, D, options, refusal):
    with pytest.raises(CertificateRefused, match=refusal):
        claim(TREE, tr_a, tr_b, D, *options)


def test_nielsen_claim_keeps_explicit_exponents_below_the_formula():
    n, m, own, details = nielsen_claim(TREE, 1, 1, 0, Fraction(100), (1, 1))
    assert (n, m, own, details["formula_satisfied"]) == (1, 1, {}, False)
    assert nielsen_claim(TREE, 1, 1, 0, Fraction(100))[:2] == (100, 100)


# -- certificates as documents ---------------------------------------------------------


def test_certificate_document_round_trip(f2):
    cert = nielsen_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"))
    doc = json.loads(json.dumps(cert.to_doc(), indent=2))
    validate_certificate(doc)
    assert doc["schema_version"] == 1
    assert doc["elements"] == {"a": [1], "b": [2]}


def test_certificate_documents_are_deterministic(f2):
    c1 = nielsen_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"))
    c2 = nielsen_certify(f2, A, B, resolve_constants(f2, 0, "tree-case"))
    assert json.dumps(c1.to_doc(), indent=2) == json.dumps(c2.to_doc(), indent=2)


def test_validate_certificate_rejects_missing_fields():
    with pytest.raises(ModelError, match="missing"):
        validate_certificate({"schema_version": 1})


# -- the shared overlap refusal ---------------------------------------------------------


# L = a^10 b a^10 is independent of a, and its axis runs along all of a's window.
LONG = (1,) * 10 + (2,) + (1,) * 10


@pytest.mark.parametrize(
    "certify, first, second",
    [
        pytest.param(nielsen_certify, A, LONG, id="nielsen"),
        pytest.param(lambda m, a, b, c: prop6_certify(m, a, b, c, q=Fraction(21)), LONG, A, id="prop6"),
        pytest.param(prop7_certify, LONG, A, id="prop7"),
        pytest.param(prop8_certify, A, LONG, id="prop8"),
        pytest.param(theorem9_certify, A, LONG, id="theorem9"),
        pytest.param(lambda m, a, b, c: theorem9_certify(m, a, b, c, quasi_mode=True), A, LONG, id="theorem14"),
    ],
)
def test_criteria_refuse_an_overlap_unbounded_in_window(f2, certify, first, second):
    with pytest.raises(CertificateRefused, match="overlap unbounded in window") as refusal:
        certify(f2, first, second, resolve_constants(f2, 0, "tree-case"))
    # The refusal names the measured D, the overlap radius and the window.
    overlap = analyze_pair(f2, first, second, 0).overlap
    assert overlap.unbounded_in_window and overlap.D > 0
    assert f"the 0-overlap (D >= {overlap.D})" in str(refusal.value)
    assert f"{overlap.window}-edge window" in str(refusal.value)


# -- witness chains ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def chain_setup(f2):
    a = f2.power(A, 204)
    analysis = analyze_pair(f2, a, B, 0, window=3)
    x, y = chain_base_points(analysis)
    return a, x, y


E8 = Fraction(204, 1000)
Q8 = 3


def test_chain_reduces_caller_words(f2, chain_setup):
    # a with a b·b^-1 pair in front and b with an a·a^-1 pair give the chain of
    # their normal forms, point for point.
    a, x, y = chain_setup
    raw = build_witness_chain(f2, (1, 2), (2, -2) + a, (1, -1) + B, x, y, E8, Q8, 0)
    assert raw == build_witness_chain(f2, (1, 2), a, B, x, y, E8, Q8, 0)


def test_chain_word_ab(f2, chain_setup):
    a, x, y = chain_setup
    chain = build_witness_chain(f2, (1, 2), a, B, x, y, E8, Q8, 0)
    assert chain.case == "I"
    assert chain.failures == []
    assert all(chain.conditions[c]["holds"] for c in ("c1", "c2", "c3", "c4", "c5"))
    assert chain.conditions["c1"]["measured"] == 0  # exact at delta = 0
    assert chain.three_points.holds
    assert chain.embedding_L == 1200
    assert chain.embedding_ok


def test_chain_single_a_degenerates(f2, chain_setup):
    a, x, y = chain_setup
    chain = build_witness_chain(f2, (1,), a, B, x, y, E8, Q8, 0)
    assert chain.case == "I"
    assert len(chain.u) == 2
    assert chain.u[0] == x and chain.u[-1] == f2.apply(a, y)
    assert chain.three_points.holds  # vacuous for two points


def test_chain_gap_bands(f2, chain_setup):
    a, x, y = chain_setup
    long_word = (1, 2, 2, 2, 2, 1, 1, 2)
    chain = build_witness_chain(f2, long_word, a, B, x, y, E8, Q8, 0)
    assert chain.gap_bands_ok
    assert {band for _, band in chain.gaps} <= {"i", "ii"}


def test_chain_dependent_pair_fails_clause5(f2, chain_setup):
    a, x, y = chain_setup
    chain = build_witness_chain(f2, (1, -2, 1), a, a, x, y, E8, Q8, 0)
    assert not chain.conditions["c5"]["holds"]
    assert any("c5" in f for f in chain.failures)


def test_chain_case_two(f2, chain_setup):
    a, x, y = chain_setup
    chain = build_witness_chain(f2, (2, 2, 2, 1, 2), a, B, x, y, E8, Q8, 0)
    assert chain.case == "II"
    assert chain.failures == []
    assert chain.u[0] == y


def test_chain_case_o(f2, chain_setup):
    a, x, y = chain_setup
    chain = build_witness_chain(f2, (2, 2, 2, 2), a, B, x, y, E8, Q8, 0)
    assert chain.case == "O"
    assert chain.u[0] == y and chain.u[-1] == f2.apply(f2.power(B, 4), y)


def test_chain_steps_negative_b_blocks_by_q(f2, chain_setup):
    # b^-6 is two Q-blocks of b^-3: the leading block (case II, m0 = -6) and
    # the block after a (case I, m_1 = -6) each step through b^-3.
    a, x, y = chain_setup
    b3 = f2.power(B, -3)
    chain = build_witness_chain(f2, (-2,) * 6 + (1,) + (-2,) * 6, a, B, x, y, E8, Q8, 0)
    prefix_a = f2.compose(f2.power(B, -6), a)
    assert chain.case == "II" and chain.failures == []
    assert f2.apply(b3, y) in chain.u
    assert f2.apply(f2.compose(prefix_a, b3), y) in chain.u
    chain = build_witness_chain(f2, (1,) + (-2,) * 6, a, B, x, y, E8, Q8, 0)
    assert chain.case == "I" and chain.failures == []
    assert chain.u == [x, f2.apply(a, x), f2.apply(f2.compose(a, b3), y), f2.apply(f2.compose(a, f2.power(B, -6)), y)]


LETTERS = "chain words use two letters: 1 and 2 (signed)"
UNREDUCED = "word is not freely reduced over the two letters"


@pytest.mark.parametrize(
    "word, E, Q, expected",
    [
        ((2, 2, 2), 101, 1, ([(2, 3)], "O")),
        ((-2,), 101, 1, ([(2, -1)], "O")),
        ((1, 1, 2, 2, -1), 101, 1, ([(1, 2), (2, 2), (1, -1)], "I")),
        ((-2, 1, -2, -2), 101, 1, ([(2, -1), (1, 1), (2, -2)], "II")),
        ((1, 3), 101, 1, LETTERS),
        ((1, 1, -1), 101, 1, UNREDUCED),
        ((), 101, 1, "chain words must be nonempty"),
        # Several faults at once: Q, then E, then the letters, then the reduction.
        ((1, -1, 0), 100, 0, "Q must be >= 1"),
        ((1, -1, 0), 100, 1, "epsilon must exceed 100 * delta"),
        ((1, -1, 0), 101, 1, LETTERS),
        ((0, 1, -1), 101, 1, LETTERS),
        ((1, -1), 101, 1, UNREDUCED),
        ((), 100, 0, "Q must be >= 1"),
        ((), 100, 1, "epsilon must exceed 100 * delta"),
    ],
)
def test_check_chain_input(word, E, Q, expected):
    # delta = 1 throughout, so E must exceed 100.
    if isinstance(expected, str):
        with pytest.raises(ModelError) as exc:
            check_chain_input(word, Fraction(E), Q, 1)
        assert str(exc.value) == expected
    else:
        assert check_chain_input(word, Fraction(E), Q, 1) == expected


def test_chain_refuses_a_syllable_past_the_cap_before_forming_its_steps():
    # a^5000 on a = A^40 outgrows cap 512 at its end point q.  The chain forms
    # a^5000 by squaring and applies q before any of the 4,999 steps between
    # p and q, so it composes a few dozen times, not once per step.
    model = FreeGroupModel(2, cap=512)
    calls = []
    compose = model.compose
    model.compose = lambda *elements: calls.append(1) or compose(*elements)
    with pytest.raises(CapExceeded, match="word length 200000 exceeds expansion cap 512"):
        build_witness_chain(model, (1,) * 5000, model.power(A, 40), B, (), (), Fraction(40, 1000), 3, 0)
    assert len(calls) < 64


def test_chain_refuses_a_small_epsilon_before_walking_its_word():
    # E = 1/25 is not above 100 delta = 100, so the chain is refused before
    # any power, product or point of the word is formed.
    model = FreeGroupModel(2, cap=4096)
    a = model.power(A, 40)
    calls = []
    compose, apply = model.compose, model.apply
    model.compose = lambda *elements: calls.append("compose") or compose(*elements)
    model.apply = lambda g, p: calls.append("apply") or apply(g, p)
    with pytest.raises(ModelError, match=r"epsilon must exceed 100 \* delta"):
        build_witness_chain(model, (1, 2) * 8, a, B, (), (), Fraction(1, 25), 3, 1)
    assert calls == []


# -- axis geometry against the all-pairs formulas ------------------------------------------


def _all_pairs_overlap(model, axis_a, axis_b, c):
    pa, pb = list(axis_a.path), list(axis_b.path)
    in_a = [p for p in pa if min(model.distance(p, q) for q in pb) <= c]
    in_b = [q for q in pb if min(model.distance(q, p) for p in pa) <= c]
    union = list(dict.fromkeys(in_a + in_b))
    if not union:
        return OverlapReport(0, c, min(len(pa), len(pb)) - 1, (), False, False)
    best = (0, union[0], union[0])
    for i, p in enumerate(union):
        for q in union[i + 1 :]:
            if model.distance(p, q) > best[0]:
                best = (model.distance(p, q), p, q)

    def touches(points, path, step):
        m = max(step, 1)
        return any(p in path[:m] for p in points), any(p in path[-m:] for p in points)

    a_head, a_tail = touches(in_a, pa, axis_a.step)
    b_head, b_tail = touches(in_b, pb, axis_b.step)
    return OverlapReport(
        best[0],
        c,
        min(len(pa), len(pb)) - 1,
        tuple(model.geodesic(best[1], best[2])),
        a_head or a_tail or b_head or b_tail,
        (a_head and a_tail) or (b_head and b_tail),
    )


def _all_pairs_base_points(model, axis_a, axis_b, overlap):
    pa, pb = axis_a.path, axis_b.path
    if overlap.D > 0 and overlap.witness_segment:
        mid = overlap.witness_segment[len(overlap.witness_segment) // 2]
        nearest = lambda path: min(path, key=lambda p: (model.distance(p, mid), model.point_key(p)))
        return nearest(pa), nearest(pb)
    p, q = min(
        ((p, q) for p in pa for q in pb),
        key=lambda t: (model.distance(*t), model.point_key(t[0]), model.point_key(t[1])),
    )
    geo = model.geodesic(p, q)
    return geo[len(geo) // 2], geo[len(geo) // 2]


def _all_pairs_segment_overlap(model, path1, path2, c):
    pts = [p for p in path1 if min(model.distance(p, q) for q in path2) <= c]
    pts += [q for q in path2 if min(model.distance(q, p) for p in path1) <= c]
    return max((model.distance(p, q) for p in pts for q in pts), default=0)


def _segment_pairs(model, rng, count):
    """Seeded segment pairs (p, q), (r, s) in a tree: random ends, r and s on
    [p, q] (nested), r on [p, q] with s anywhere, r = s, and p = q."""
    alphabet = [l for i in range(1, model.rank + 1) for l in (i, -i)]

    def word():
        return model.canon(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))

    pairs = []
    for _ in range(count):
        p, q, r, s = word(), word(), word(), word()
        kind = rng.randrange(5)
        if kind == 1:
            r, s = rng.choice(model.geodesic(p, q)), rng.choice(model.geodesic(p, q))
        elif kind == 2:
            r = rng.choice(model.geodesic(p, q))
        elif kind == 3:
            s = r
        elif kind == 4:
            q = p
        pairs.append(((p, q), (r, s)))
    return pairs


def test_tree_block_overlaps_at_c_zero_are_read_off_medians():
    # [p, q] ∩ [r, s] in a tree runs from median(p, q, r) to median(p, q, s);
    # the all-pairs reference measures it on the two geodesics, for either
    # orientation of either segment and either order of the two.
    rng = random.Random("segment-overlap")
    shared = {"none": 0, "one point": 0, "segment": 0}
    for model in (FreeGroupModel(2, cap=4096), FreeGroupModel(3, cap=4096), FreeProductModel(cap=4096)):
        for (p, q), (r, s) in _segment_pairs(model, rng, 700):
            geo_1, geo_2 = model.geodesic(p, q), model.geodesic(r, s)
            expected = _all_pairs_segment_overlap(model, geo_1, geo_2, 0)
            for first, second in (((p, q), (r, s)), ((q, p), (s, r)), ((q, p), (r, s)), ((r, s), (p, q))):
                assert _segment_overlap(model, first, second, 0) == expected, (model.spec_dict(), p, q, r, s)
            common = len(set(geo_1) & set(geo_2))
            shared["segment" if common > 1 else "one point" if common else "none"] += 1
            assert (expected > 0) == (common > 1)
    assert sum(shared.values()) >= 2000 and min(shared.values()) >= 200, shared


def test_a_chain_at_delta_zero_builds_no_segment_geodesic(monkeypatch, capsys):
    # At c = 10 delta = 0 the block overlaps c3-c5 come from medians; at
    # delta 1 each of the five overlaps (c3 and c4 on two blocks, c5 on one)
    # builds its two geodesics and takes the point-list path, as chain --delta 1 does.
    model = FreeGroupModel(2, cap=512)
    a, word = (1,) * 40, (2, 1, 2, 1, 2)
    x, y = chain_base_points(analyze_pair(model, a, B, 0, window=6))
    calls = {"geodesic": 0, "overlap_points": 0}

    def counted(name, function):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or function(*args)

    monkeypatch.setattr(model, "geodesic", counted("geodesic", model.geodesic))
    monkeypatch.setattr(freecert.certifier, "overlap_points", counted("overlap_points", freecert.certifier.overlap_points))
    assert build_witness_chain(model, word, a, B, x, y, Fraction(40, 1000), 1, 0).failures == []
    assert calls == {"geodesic": 0, "overlap_points": 0}
    chain = build_witness_chain(model, word, a, B, x, y, Fraction(101), 1, 1)
    assert calls == {"geodesic": 10, "overlap_points": 5}
    assert [chain.conditions[name]["measured"] for name in ("c3", "c4", "c5")] == [11, 11, 19]  # all-pairs at c = 10

    f2 = str(Path(__file__).resolve().parent.parent / "demos/models/f2.json")
    argv = ["chain", "--model", f2, "--a", "a" * 40, "--b", "b", "--window", "6", "--word", "babab", "--Q", "1",
            "--E", "101", "--delta", "1"]
    main(argv)
    capsys.readouterr()
    assert calls["overlap_points"] == 10


def _gap_band_by_fractions(d, tr_a):
    """The chain's gap band with the bounds as Fractions, as it was first written."""
    if Fraction(4, 5) * tr_a <= d <= Fraction(6, 5) * tr_a:
        return "i"
    if tr_a / 100 <= d <= tr_a / 10:
        return "ii"
    return None


def test_integer_gap_bands_equal_the_fraction_bands():
    # Every d up to 1.5 tau for integer and fractional tau, with the four
    # boundaries 5d = 4 tau, 5d = 6 tau, 100d = tau and 10d = tau reached.
    taus = [Fraction(t) for t in (1, 5, 10, 40, 100, 120, 1000, 2000)] + [Fraction(7, 3), Fraction(1000, 7)]
    for tau in taus:
        for d in range(0, int(tau * 3 / 2) + 2):
            assert _gap_band(d, tau) == _gap_band_by_fractions(d, tau), (d, tau)
    boundaries = [(4, Fraction(5)), (6, Fraction(5)), (1, Fraction(100)), (10, Fraction(100)), (20, Fraction(200))]
    assert [_gap_band(d, tau) for d, tau in boundaries] == ["i", "i", "ii", "ii", "ii"]
    assert [_gap_band(d, tau) for d, tau in ((3, Fraction(5)), (7, Fraction(5)), (0, Fraction(100)))] == [None] * 3


def _assert_chain_overlaps_match(model, chain):
    # Conditions c3-c5 at delta = 0, so the overlap radius 10*delta is 0.
    geos_A = [model.geodesic(p, q) for p, q, _, _ in chain.blocks]
    geos_B = [model.geodesic(r, s) for _, _, r, s in chain.blocks]
    segment_pairs = {
        "c3": zip(geos_A, geos_B),
        "c4": zip(geos_B, geos_A[1:]),
        "c5": zip(geos_A, geos_A[1:]),
    }
    for name, pairs in segment_pairs.items():
        expected = max((_all_pairs_segment_overlap(model, s, t, 0) for s, t in pairs), default=0)
        assert chain.conditions[name]["measured"] == expected, (chain.word, name)


@pytest.mark.parametrize(
    "a, b, window, c",
    [
        ((1,) * 40, (-2, -2), 6, 0),  # long-axis shape: axes cross at one point
        ((1,) * 5, (2, 1, 1, -2), 4, 0),  # disjoint axes: D = 0, no shared point
        ((1, 2), (1,), 3, 0),  # shared edge: D > 0
        ((1, 2), (1,), 3, -1),  # a negative overlap radius is refused
        ((1,) * 12, (2, 1, -2), 4, 2),  # disjoint axes inside the 2-overlap
    ],
)
def test_axis_geometry_matches_all_pairs_reference(f2, a, b, window, c):
    if c < 0:
        with pytest.raises(ModelError, match=f"overlap radius c must be >= 0, got {c}"):
            analyze_pair(f2, a, b, 0, window=window, c=c)
        return
    analysis = analyze_pair(f2, a, b, 0, window=window, c=c)
    axis_a, axis_b = analysis.axis_a, analysis.axis_b
    assert analysis.overlap == _all_pairs_overlap(f2, axis_a, axis_b, c)
    x, y = chain_base_points(analysis)
    assert (x, y) == _all_pairs_base_points(f2, axis_a, axis_b, analysis.overlap)
    for word in ((1, -2), (1, -2, 1, -2, 1)):
        _assert_chain_overlaps_match(f2, build_witness_chain(f2, word, a, b, x, y, Fraction(len(a), 1000), 3, 0))


def _nearest(model, edges, p):
    """The point of an edge path nearest p, ties to the least ``point_key``; the
    scan skips the points that cannot beat the best distance found."""
    if p in edges.members:
        return p
    dist, key, points = model.distance, model.point_key, edges.points
    best, found = (dist(p, points[0]), key(points[0])), points[0]
    i = 1
    while i < len(points):
        q = points[i]
        d = dist(p, q)
        if d <= best[0] and (d, key(q)) < best:
            best, found = (d, key(q)), q
        i += max(1, d - best[0])
    return found


def _point_list_base_points(model, axis_a, axis_b, overlap):
    """The base points measured on two point-list axes, the rule chain_base_points
    followed before it read the rays: the witness midpoint projected to each
    axis, or else the midpoint of the least (d(p, q), key(p), key(q)) pair."""
    pa, pb = axis_a.edges, axis_b.edges
    if overlap.witness_segment:
        seg = overlap.witness_segment
        mid = seg[len(seg) // 2]
        return _nearest(model, pa, mid), _nearest(model, pb, mid)
    key = model.point_key
    pairs = [(p, _nearest(model, pb, p)) for p in pa.points]
    pair = min(pairs, key=lambda t: (model.distance(*t), key(t[0]), key(t[1])))
    geo = model.geodesic(*pair)
    return geo[len(geo) // 2], geo[len(geo) // 2]


def _scanned_base_points(model, axis_a, axis_b, overlap):
    """The base points with a lone shared point found by scanning a's axis."""
    shared = [p for p in axis_a.path if p in axis_b.edges.members]
    if overlap.D == 0 and shared:
        mid = min(shared, key=model.point_key)
        return mid, mid
    return _point_list_base_points(model, axis_a, axis_b, overlap)


def test_base_points_from_the_shorter_axis_match_the_scan_of_a(f2):
    # A shared point is read off the overlap; the pair is the one a scan of a's
    # axis for shared points finds, with a longer or shorter than b.  A
    # negative overlap radius is refused before anything is measured.
    rng = random.Random("base-points")
    pairs = [((1,) * k, b) for k in (1, 5, 17, 40) for b in ((2,), (-2, -2), (2, 1, -2), (1, 2))]
    pairs += [tuple(f2.canon(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 6))) for _ in "ab")
              for _ in range(30)]
    shared = 0
    for a, b in pairs:
        if classify(f2, a).tr <= 0 or classify(f2, b).tr <= 0:
            continue
        window = rng.randint(1, 6)
        for first, second in ((a, b), (b, a)):
            pa, pb = classify(f2, first), classify(f2, second)
            with pytest.raises(ModelError, match="overlap radius c must be >= 0, got -1"):
                AxisPair(f2, pa, pb, window, 0, -1)
            for c in (0, 1):
                pair = AxisPair(f2, pa, pb, window, 0, c)
                assert chain_base_points(pair) == _scanned_base_points(f2, pair.axis_a, pair.axis_b, pair.overlap)
                shared += pair.overlap.D == 0 and not pair.axis_a.edges.members.isdisjoint(pair.axis_b.path)
    assert shared > 0


def _hyperbolic_pairs(model, rng, count):
    """Hyperbolic (g, h) with both axes moved off the identity by conjugators of up
    to 10 letters: independent conjugates, h a power of g, and g = h^k y."""
    alphabet = [l for i in range(1, model.rank + 1) for l in (i, -i)]

    def word(most):
        return model.canon(rng.choice(alphabet) for _ in range(rng.randint(0, most)))

    def conjugate():
        while True:
            u = word(10)
            g = model.compose(model.compose(u, word(6)), model.inverse(u))
            if classify(model, g).tr > 0:
                return g

    pairs = []
    while len(pairs) < count:
        g, h = conjugate(), conjugate()
        kind = rng.randrange(4)
        if kind == 1:
            h = model.power(g, rng.choice((-2, -1, 2)))
        elif kind == 2:
            g = model.compose(model.power(h, rng.randint(1, 4)), word(3))
        if classify(model, g).tr > 0 and classify(model, h).tr > 0:
            pairs.append((g, h))
    return pairs


def test_ray_base_points_equal_the_point_list_rule():
    # chain_base_points reads the base points off the rays; the point-list rule
    # measures them on both built axes.  Windows 1-8 and c = 0-3: both a
    # witness and a bridge between disjoint windows, at c = 0 and at c >= 1.
    rng = random.Random("ray-base-points")
    seen = {(c_zero, bridge): 0 for c_zero in (True, False) for bridge in (True, False)}
    for model in (FreeGroupModel(2, cap=4096), FreeGroupModel(3, cap=4096), FreeProductModel(cap=4096)):
        for g, h in _hyperbolic_pairs(model, rng, 700):
            window, c = rng.randint(1, 8), rng.randint(0, 3)
            pair = AxisPair(model, classify(model, g), classify(model, h), window, 0, c)
            expected = _point_list_base_points(model, pair.axis_a, pair.axis_b, pair.overlap)
            assert chain_base_points(pair) == expected, (model.spec_dict(), g, h, window, c)
            seen[c == 0, not pair.overlap.witness_segment] += 1
    assert sum(seen.values()) >= 2000 and min(seen.values()) >= 20, seen


def test_chain_overlaps_match_all_pairs_reference_on_one_line(f2):
    # b = a^(1/2) lies on a's axis, so consecutive blocks overlap in long segments.
    chain = build_witness_chain(f2, (1, -2, 1, -2, 1), (1,) * 6, (1,) * 3, (), (), Fraction(6, 1000), 3, 0)
    assert [chain.conditions[name]["measured"] for name in ("c3", "c4", "c5")] == [3, 3, 3]
    _assert_chain_overlaps_match(f2, chain)
