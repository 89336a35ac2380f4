"""Brute-force word oracle: triviality, freeness to depth, embeddings, sweeps."""

import itertools
from fractions import Fraction

import pytest

from freecert import CycleModel, FreeGroupModel, FreeProductModel, exceptional_sweep, freeness_to_depth
from freecert.models import IDENTITY, CapExceeded, ModelError
from freecert.oracle import evaluate


@pytest.fixture(scope="module")
def f2():
    return FreeGroupModel(2, cap=2048)


@pytest.fixture(scope="module")
def zz2():
    return FreeProductModel(cap=512)


A, B = (1,), (2,)


def acts_trivially(model, word, a, b):
    return model.canon(evaluate(model, word, a, b)) == IDENTITY


def test_commutator_nontrivial(f2):
    assert not acts_trivially(f2, (1, 2, -1, -2), A, B)


def test_trivial_when_b_equals_a(f2):
    assert acts_trivially(f2, (1, -2), A, A)


def test_torsion_relation_trivial(zz2):
    g, h = zz2.canon((1, 1, 2)), (1, 1)  # f^2 s and f^2
    assert acts_trivially(zz2, (-2, 1, -2, 1), g, h)


def test_freeness_classical_ping_pong(f2):
    report = freeness_to_depth(f2, A, B, 2, 2, 6)
    assert report.verdict == "free-to-depth"
    assert report.relation is None


def test_freeness_finds_torsion_relation(zz2):
    g, h = zz2.canon((1, 1, 2)), (1, 1)
    report = freeness_to_depth(zz2, g, h, 1, 1, 4)
    assert report.verdict == "relation-found"
    assert len(report.relation) == 4
    assert acts_trivially(zz2, report.relation, g, h)


def test_freeness_equal_elements(f2):
    report = freeness_to_depth(f2, A, A, 1, 1, 2)
    assert report.verdict == "relation-found"
    assert report.relation == (1, -2)


def test_trivial_word_is_its_own_relation(f2):
    # a = 1, so the word a is itself the relation; the quotient a * 1^-1 would read (-1,).
    report = freeness_to_depth(f2, (), B, 1, 1, 2)
    assert (report.verdict, report.depth, report.relation) == ("relation-found", 1, (1,))


def test_embedding_fit_powers(f2):
    # Base-point displacements per letter, against the predicted embedding constant 1.
    report = freeness_to_depth(f2, A, B, 100, 100, 3)
    assert report.verdict == "free-to-depth"
    assert report.min_displacement_ratio == 100


def test_oracle_forms_the_powers_of_caller_words(f2):
    # A raw a·a^-1·a reduces to a, and exponents reach the oracle as numbers:
    # the same report as the powers handed over as words.
    report = freeness_to_depth(f2, (1, -1, 1), B, 3, 2, 4)
    assert report == freeness_to_depth(f2, f2.power(A, 3), f2.power(B, 2), 1, 1, 4)
    assert report.verdict == "free-to-depth"


def test_a_capped_run_is_unchecked_with_the_reason():
    report = freeness_to_depth(FreeGroupModel(2, cap=8), A, B, 5, 5, 3)
    assert (report.verdict, report.reason) == ("unchecked", "word length 10 exceeds expansion cap 8")
    assert report.to_doc() == {"verdict": "unchecked", "reason": "word length 10 exceeds expansion cap 8"}


def test_a_letter_out_of_range_is_still_invalid_input(f2):
    with pytest.raises(ModelError, match="out of range") as exc:
        freeness_to_depth(f2, (3,), B, 1, 1, 2)
    assert not isinstance(exc.value, CapExceeded)


def test_embedding_fit_generators_tight(f2):
    report = freeness_to_depth(f2, A, B, 1, 1, 5)
    assert report.verdict == "free-to-depth"
    assert report.min_displacement_ratio == 1


def test_sweep_free_pair_no_exceptions(f2):
    table = exceptional_sweep(f2, A, B, range(1, 6), range(1, 6), 4)
    assert table.exceptional_pairs == []
    assert all(r.verdict == "free-to-depth" for r in table.reports.values())


def test_sweep_torsion_pair(zz2):
    table = exceptional_sweep(zz2, zz2.canon((1, 2)), (1,), range(1, 4), range(1, 4), 4)
    assert (1, 1) in table.exceptional_pairs
    assert table.reports[(1, 1)].verdict == "relation-found"
    assert acts_trivially(zz2, table.reports[(1, 1)].relation, zz2.canon((1, 2)), (1,))


def test_sweep_reduces_caller_words():
    # A raw -2 or an f·f^-1 pair sweeps exactly as its normal form does.
    model = FreeProductModel()
    raw = exceptional_sweep(model, (1, -2, 2, 1, -2), (-2, 1, -1, 2, 1), range(1, 3), range(1, 3), 4)
    canonical = exceptional_sweep(model, (1, 1, 2), (1,), range(1, 3), range(1, 3), 4)
    assert raw.exceptional_pairs and raw == canonical


def test_sweep_keeps_one_report_per_cell_small_total_first():
    table = exceptional_sweep(FreeGroupModel(2, cap=8), A, B, range(3, 5), range(4, 6), 2)
    assert list(table.reports) == [(3, 4), (3, 5), (4, 4), (4, 5)]
    # The longest word of length 2 is b^m b^m: m = 4 fits the cap of 8, m = 5 does not.
    assert [r.verdict for r in table.reports.values()] == ["free-to-depth", "unchecked"] * 2
    rows = table.rows()
    assert rows[1]["reason"] == "word length 10 exceeds expansion cap 8" and "reason" not in rows[0]
    assert table.exceptional_pairs == []


def test_sweep_dependent_pair_all_relations(f2):
    table = exceptional_sweep(f2, A, f2.power(A, 2), range(1, 3), range(1, 3), 4)
    assert all(r.verdict == "relation-found" for r in table.reports.values())


def test_sweep_rows_sorted_by_total_exponent(f2):
    table = exceptional_sweep(f2, A, B, range(1, 4), range(1, 4), 2)
    totals = [row["n"] + row["m"] for row in table.rows()]
    assert totals == sorted(totals)


def _ratios_word_by_word(model, a, b, depth):
    """(min, max) of Fraction(d(x, wx), |w|), one Fraction per word the oracle visits.

    Words go in the oracle's order, length then lex over (1, -1, 2, -2), up
    to the first that repeats a value, which the oracle reports as a relation.
    """
    base, seen, ratios = model.basepoint(), {IDENTITY}, []
    for length in range(1, depth + 1):
        for w in itertools.product((1, -1, 2, -2), repeat=length):
            if any(x == -y for x, y in zip(w, w[1:])):
                continue
            v = evaluate(model, w, a, b)
            if v in seen:
                return min(ratios), max(ratios)
            seen.add(v)
            ratios.append(Fraction(model.distance(base, model.apply(v, base)), length))
    return min(ratios), max(ratios)


@pytest.mark.parametrize(
    "model, a, b, depth, verdict",
    [
        (FreeGroupModel(2, cap=64), (1, 2), (2, 2, -1), 4, "free-to-depth"),
        # Displacements 1 and 3 on level one; the relation a b^-1 = a^-1 a^-1
        # is the fourth word of level two.
        (CycleModel(50), (1,), (1, 1, 1), 3, "relation-found"),
        # f^2 s, f^2: the relation is found at the eighth word of level two,
        # whose first seven words lower the least ratio from 2 to 1/2.
        (FreeProductModel(cap=512), (1, 1, 2), (1, 1), 4, "relation-found"),
    ],
    ids=["F2", "C50", "ZxZ2-torsion"],
)
def test_ratios_folded_per_level_match_a_fraction_per_word(model, a, b, depth, verdict):
    report = freeness_to_depth(model, a, b, 1, 1, depth)
    lo, hi = _ratios_word_by_word(model, a, b, depth)
    assert report.verdict == verdict
    assert report.min_displacement_ratio == lo
    assert report.fitted_L == max(hi, 1 / lo, Fraction(1))
