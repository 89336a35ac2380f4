"""Brute-force word oracle: triviality, freeness to depth, embeddings, sweeps."""

import pytest

from freecert import FreeGroupModel, FreeProductModel, exceptional_sweep, freeness_to_depth
from freecert.models import IDENTITY
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
    report = freeness_to_depth(f2, f2.power(A, 2), f2.power(B, 2), 6)
    assert report.verdict == "free-to-depth"
    assert report.relation is None


def test_freeness_finds_torsion_relation(zz2):
    g, h = zz2.canon((1, 1, 2)), (1, 1)
    report = freeness_to_depth(zz2, g, h, 4)
    assert report.verdict == "relation-found"
    assert len(report.relation) == 4
    assert acts_trivially(zz2, report.relation, g, h)


def test_freeness_equal_elements(f2):
    report = freeness_to_depth(f2, A, A, 2)
    assert report.verdict == "relation-found"
    assert report.relation == (1, -2)


def test_trivial_word_is_its_own_relation(f2):
    # a = 1, so the word a is itself the relation; the quotient a * 1^-1 would read (-1,).
    report = freeness_to_depth(f2, (), B, 2)
    assert (report.verdict, report.depth, report.relation) == ("relation-found", 1, (1,))


def test_embedding_fit_powers(f2):
    # Base-point displacements per letter, against the predicted embedding constant 1.
    report = freeness_to_depth(f2, f2.power(A, 100), f2.power(B, 100), 3)
    assert report.verdict == "free-to-depth"
    assert report.min_displacement_ratio == 100


def test_embedding_fit_generators_tight(f2):
    report = freeness_to_depth(f2, A, B, 5)
    assert report.verdict == "free-to-depth"
    assert report.min_displacement_ratio == 1


def test_sweep_free_pair_no_exceptions(f2):
    table = exceptional_sweep(f2, A, B, range(1, 6), range(1, 6), 4)
    assert table.exceptional_pairs == []
    assert all(v == "free-to-depth" for v in table.cells.values())


def test_sweep_torsion_pair(zz2):
    table = exceptional_sweep(zz2, zz2.canon((1, 2)), (1,), range(1, 4), range(1, 4), 4)
    assert (1, 1) in table.exceptional_pairs
    assert table.cells[(1, 1)] == "relation-found"
    assert acts_trivially(zz2, table.witnesses[(1, 1)], zz2.canon((1, 2)), (1,))


def test_sweep_reduces_caller_words():
    # A raw -2 or an f·f^-1 pair sweeps exactly as its normal form does.
    model = FreeProductModel()
    raw = exceptional_sweep(model, (1, -2, 2, 1, -2), (-2, 1, -1, 2, 1), range(1, 3), range(1, 3), 4)
    canonical = exceptional_sweep(model, (1, 1, 2), (1,), range(1, 3), range(1, 3), 4)
    assert raw.exceptional_pairs and raw == canonical


def test_sweep_dependent_pair_all_relations(f2):
    table = exceptional_sweep(f2, A, f2.power(A, 2), range(1, 3), range(1, 3), 4)
    assert all(v == "relation-found" for v in table.cells.values())


def test_sweep_rows_sorted_by_total_exponent(f2):
    table = exceptional_sweep(f2, A, B, range(1, 4), range(1, 4), 2)
    totals = [row["n"] + row["m"] for row in table.rows()]
    assert totals == sorted(totals)
