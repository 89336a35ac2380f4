"""Acceptance gate: one pass/fail line per criterion, exact tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion is a separate test so failures stay isolated.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from freecert import (
    CertificateRefused,
    CycleModel,
    ExplicitGraphModel,
    FreeGroupModel,
    FreeProductModel,
    acyl_constants,
    analyze_pair,
    build_witness_chain,
    chain_base_points,
    classify,
    compute_delta,
    freeness_to_depth,
    independence_test,
    nielsen_certify,
    overlap_diameter,
    prop7_certify,
    quasi_axis,
    resolve_constants,
    theorem9_certify,
    three_points_check,
)
from freecert.models import IDENTITY
from substitution import evaluate


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {title}", flush=True)


def random_element(model, rng, max_len):
    while True:
        w = model.canon(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, max_len))))
        if w:
            return w


def test_criterion_1_tree_exactness():
    with criterion(1, "tree exactness: delta = 0 on the radius-8 ball in under 10 s"):
        model = FreeGroupModel(2, cap=64)
        start = time.monotonic()
        report = compute_delta(model, radius=8)
        elapsed = time.monotonic() - start
        assert report.delta == 0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_translation_length_laws():
    with criterion(2, "translation length laws: tr(g^k) = k tr(g), conjugation invariance"):
        model = FreeGroupModel(2, cap=512)
        tr = model.exact_translation_length
        rng = random.Random(20)
        for _ in range(20):
            g = random_element(model, rng, 6)
            for k in range(1, 6):
                assert tr(model.power(g, k)) == k * tr(g)
        for _ in range(20):
            g = random_element(model, rng, 6)
            h = random_element(model, rng, 6)
            conj = model.compose(model.compose(h, g), model.inverse(h))
            assert tr(conj) == tr(g)


def test_criterion_3_three_points_soundness():
    with criterion(3, "three points condition: 1000 seeded sequences, zero violations of (3)"):
        models = [FreeGroupModel(2, cap=1024), FreeProductModel(cap=1024)]
        rng = random.Random(3)
        held = 0
        for trial in range(1000):
            model = models[trial % 2]
            if trial % 2 == 0:
                # Random walk points: the condition holds only occasionally.
                points = []
                w = ()
                for _ in range(rng.randint(3, 6)):
                    w = model.canon(w + tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6))))
                    points.append(w)
            else:
                # Monotone points along a geodesic ray: the condition holds.
                letter = rng.choice([1, 2])
                pos = 0
                points = []
                for _ in range(rng.randint(3, 6)):
                    points.append((letter,) * pos)
                    pos += rng.randint(2, 30)
            gaps = [model.distance(p, q) for p, q in zip(points, points[1:])]
            margin = min(
                model.distance(points[i], points[i + 2]) - max(gaps[i], gaps[i + 1])
                for i in range(len(points) - 2)
            )
            if margin < 1:
                continue  # condition (2) does not hold for any usable epsilon
            held += 1
            report = three_points_check(model, points, Fraction(margin), 0)
            assert report.holds, (points, report)
            assert report.lam == Fraction(100, margin) * max(gaps)
            assert report.bound3_lhs >= report.bound3_rhs
        assert held >= 300, f"only {held} sequences exercised the condition"


def test_criterion_4_nielsen_pipeline():
    with criterion(4, "Nielsen pipeline on (a, b): D = 0, (100, 100), oracle and embedding"):
        model = FreeGroupModel(2, cap=2048)
        a, b = (1,), (2,)
        analysis = analyze_pair(model, a, b, 0)
        assert analysis.overlap.D == 0
        cert = nielsen_certify(model, a, b, resolve_constants(model, 0, "tree-case"))
        assert cert.exponents == {"n_min": 100, "m_min": 100}
        assert cert.details["predicted_embedding_L"] == "1"

        # Reduced-word counts: 4 * 3^(l-1) per length, 484 in total through
        # length 5 (the letter budget arithmetic behind depth-6 freeness).
        counts = {}
        for w in model.group_ball(6):
            counts[len(w)] = counts.get(len(w), 0) + 1
        assert all(counts[l] == 4 * 3 ** (l - 1) for l in range(1, 7))
        assert sum(counts[l] for l in range(1, 6)) == 484

        # Orbit displacements of the base point meet the predicted embedding constant 1.
        report = freeness_to_depth(model, a, b, 100, 100, 6)
        assert report.verdict == "free-to-depth"
        assert report.min_displacement_ratio == 100


def test_criterion_5_constant_formulas():
    with criterion(5, "constant formulas: N6 = 204, E = 110, N7 = 110000/112000, M = 116040"):
        model = FreeGroupModel(2, cap=512)
        a, b = (1,), (2,)
        from freecert import prop6_certify

        c6 = prop6_certify(model, a, b, resolve_constants(model, 0, "tree-case"), q=Fraction(3))
        assert c6.constants["N6"][0] == 204
        c7 = prop7_certify(model, a, b, resolve_constants(model, 0, "tree-case"))
        assert c7.constants["E"][0] == 110
        assert c7.constants["N7"][0] == 110000
        c9 = theorem9_certify(model, a, b, resolve_constants(model, 0, "tree-case"))
        assert c9.constants["N7"][0] == 112000
        assert c9.constants["M"][0] == 116040


def test_criterion_6_power_displacement():
    with criterion(6, "tr(g^P) >= 1 for every hyperbolic element, P from resolve_constants"):
        tree_models = [FreeGroupModel(2, cap=256), FreeProductModel(cap=256)]
        words = tree_models[0].group_ball(4)  # the reduced words in two letters up to length 4
        for model in tree_models:
            P0 = resolve_constants(model, 0, "tree-case")["P"][0]
            assert P0 == 1
            for w in words:
                g = model.canon(w)
                profile = classify(model, g)
                if profile.tr > 0:
                    assert model.exact_translation_length(model.power(g, P0)) >= 1
        finite = [
            CycleModel(5),
            ExplicitGraphModel([[1, 3], [0, 2], [1, 3], [0, 2]], [[1, 2, 3, 0]]),
        ]
        for model in finite:
            for g in model.group_ball(6):
                assert classify(model, g).tr == 0


def test_criterion_7_overlap_bound():
    with criterion(7, "overlap bound D < 4PKL max(tr) + 100 delta on 30 independent pairs"):
        model = FreeGroupModel(2, cap=512)
        entry = acyl_constants(model, R=0, region_radius=3, group_ball_radius=5)
        K, L = entry.K_hat, entry.L_hat
        rng = random.Random(7)
        checked = 0
        while checked < 30:
            a = random_element(model, rng, 4)
            b = random_element(model, rng, 4)
            if independence_test(model, a, b, 3)[0] != "independent-to-bound":
                continue
            axis_a = quasi_axis(model, classify(model, a), window=6)
            axis_b = quasi_axis(model, classify(model, b), window=6)
            rep = overlap_diameter(model, axis_a, axis_b, 0)
            if rep.unbounded_in_window:
                continue
            tr_max = max(model.exact_translation_length(a), model.exact_translation_length(b))
            assert rep.D < 4 * 1 * K * L * tr_max, (a, b, rep.D, tr_max)
            checked += 1


def test_criterion_8_witness_chains():
    with criterion(8, "witness chains for a = f^204, b = g: clauses, bands, three points"):
        model = FreeGroupModel(2, cap=8192)
        a = model.power((1,), 204)
        b = (2,)
        analysis = analyze_pair(model, a, b, 0, window=3)
        x, y = chain_base_points(analysis)
        E, Q = Fraction(204, 1000), 3
        case_one = [w for w in model.group_ball(3) if w and abs(w[0]) == 1][:10]
        assert len(case_one) == 10
        for word in case_one:
            chain = build_witness_chain(model, word, a, b, x, y, E, Q, 0)
            assert chain.case == "I"
            assert all(chain.conditions[c]["holds"] for c in ("c1", "c2", "c3", "c4", "c5")), (
                word,
                chain.conditions,
            )
            assert chain.gap_bands_ok, (word, chain.gaps)
            assert chain.three_points.holds, word
            assert chain.failures == []


def test_criterion_9_torsion_pair_refusal():
    with criterion(9, "torsion pairs (f^n s, f^n): oracle relation, sharp mode refused"):
        model = FreeProductModel(cap=2048)
        for n in range(1, 11):
            g = model.canon((1,) * n + (2,))
            h = model.canon((1,) * n)
            assert model.canon(evaluate(model, (-2, 1, -2, 1), g, h)) == IDENTITY  # (y^-1 x)^2 acts trivially
            report = freeness_to_depth(model, g, h, 1, 1, 4)
            assert report.verdict == "relation-found"
            assert len(report.relation) == 4
            assert model.canon(evaluate(model, report.relation, g, h)) == IDENTITY
            assert independence_test(model, g, h, 3)[0] == "independent-to-bound"
            with pytest.raises(CertificateRefused, match="oracle"):
                nielsen_certify(
                    model,
                    g,
                    h,
                    resolve_constants(model, 0, "tree-case"),
                    epsilon_mode="sharp-experimental",
                    epsilon=Fraction(1),
                    exponents=(1, 1),
                )


def test_criterion_10_cross_validation():
    with criterion(10, "cross-validation: 50 certified pairs, oracle depth 6, zero relations"):
        model = FreeGroupModel(2, cap=8192)
        rng = random.Random(10)
        start = time.monotonic()
        emitted = 0
        while emitted < 50:
            a = random_element(model, rng, 4)
            b = random_element(model, rng, 4)
            if independence_test(model, a, b, 3)[0] != "independent-to-bound":
                continue
            try:
                cert = nielsen_certify(model, a, b, resolve_constants(model, 0, "tree-case"))
            except CertificateRefused:
                continue
            n, m = cert.exponents["n_min"], cert.exponents["m_min"]
            report = freeness_to_depth(model, a, b, n, m, 6)
            assert report.verdict == "free-to-depth", (a, b, n, m, report.relation)
            emitted += 1
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f} s"
