"""Brute-force word oracle: triviality, freeness to depth, embeddings, sweeps."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from freecert import (
    CycleModel,
    CyclicFreeProductModel,
    FreeGroupModel,
    FreeProductModel,
    exceptional_sweep,
    freeness_to_depth,
)
from freecert import oracle
from freecert.models import IDENTITY, CapExceeded, ModelError
from freecert.oracle import PackedWords, arithmetic
from substitution import evaluate


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


@pytest.mark.parametrize(
    "model, a, b, n, m",
    [
        (FreeGroupModel(2, cap=64), (1,), (1,), 1, 1),
        (FreeGroupModel(2, cap=64), (1, 2), (1, 2), 2, 3),
        (FreeProductModel(cap=512), (1, 1, 2), (1, 1), 1, 1),
        (FreeProductModel(cap=512), (1, 2), (2,), 1, 1),
        (CycleModel(7), (1,), (1, 1), 1, 1),
        (CycleModel(12), (1,), (1,), 3, 4),
    ],
    ids=["F2-equal", "F2-common-root", "ZxZ2-torsion", "ZxZ2-involution", "C7", "C12"],
)
def test_a_found_relation_is_reduced_and_acts_trivially(model, a, b, n, m):
    report = freeness_to_depth(model, a, b, n, m, 6)
    assert report.verdict == "relation-found"
    rel = report.relation
    assert rel and all(x != -y for x, y in zip(rel, rel[1:]))
    assert acts_trivially(model, rel, model.power(a, n), model.power(b, m))


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


def _report_tuple(report):
    return (report.verdict, report.depth, report.relation, report.min_displacement_ratio, report.fitted_L,
            report.reason)


def _reference_report(model, a, b, n, m, depth):
    """(verdict, depth, relation, min ratio, fitted L, reason) with every word
    evaluated through the model's own compose, one Fraction per word.

    Words go in the oracle's order, length then lex over (1, -1, 2, -2), up
    to the first that repeats a value, which the oracle reports as a relation.
    """
    an, bm = model.power(model.canon(a), n), model.power(model.canon(b), m)
    base, seen, ratios = model.basepoint(), {IDENTITY: ()}, []

    def stats():
        if not ratios:
            return None, None
        lo, hi = min(ratios), max(ratios)
        return lo, (None if lo == 0 else max(hi, 1 / lo, Fraction(1)))

    try:
        for length in range(1, depth + 1):
            for w in itertools.product((1, -1, 2, -2), repeat=length):
                if any(x == -y for x, y in zip(w, w[1:])):
                    continue
                v = evaluate(model, w, an, bm)
                if v in seen:
                    rel = w if v == IDENTITY else seen[v] + tuple(-x for x in reversed(w))
                    return ("relation-found", length, rel, *stats(), None)
                seen[v] = w
                ratios.append(Fraction(model.distance(base, model.apply(v, base)), length))
    except CapExceeded as exc:
        return ("unchecked", depth, None, None, None, str(exc))
    return ("free-to-depth", depth, None, *stats(), None)


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
    expected = _reference_report(model, a, b, 1, 1, depth)
    assert expected[0] == verdict
    assert _report_tuple(freeness_to_depth(model, a, b, 1, 1, depth)) == expected


# -- the oracle's own arithmetic on tree models ------------------------------------------


# Models with small caps, and the letters their random words draw from: the
# rank-200 group has characters above 255, and -2 in Z * Z/2 is the
# involution s written with a negative sign.  The last two are trees built
# in code, not from a spec kind, one with its involution between two Z
# factors and one with it first.
ARITHMETIC_MODELS = [
    (FreeGroupModel(2, cap=24), (1, -1, 2, -2)),
    (FreeGroupModel(3, cap=24), (1, -1, 2, -2, 3, -3)),
    (FreeGroupModel(200, cap=24), (1, -1, 150, -150, 200, -200)),
    (FreeProductModel(cap=12), (1, -1, 2, -2)),
    (CyclicFreeProductModel((None, 2, None), ("x", "s", "y"), cap=16), (1, -1, 2, -2, 3, -3)),
    (CyclicFreeProductModel((2, None), ("s", "f"), cap=24), (1, -1, 2, -2)),
]
ARITHMETIC_IDS = ["F2", "F3", "F200", "ZxZ2", "ZxZ2xZ-code", "Z2xZ-code"]


def _random_word(rng, alphabet, most):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, most)))


def _random_pair(rng, alphabet):
    """A raw pair (a, b), b often built from a so that relations turn up."""
    a = _random_word(rng, alphabet, 4)
    kind = rng.randrange(4)
    if kind == 0:
        return a, a * rng.randint(1, 2)
    if kind == 1:
        return a, tuple(-x for x in reversed(a))
    return a, _random_word(rng, alphabet, 4)


@pytest.mark.parametrize("model, alphabet", ARITHMETIC_MODELS, ids=ARITHMETIC_IDS)
def test_packed_search_matches_a_search_through_the_models_compose(model, alphabet):
    rng = random.Random(17)
    verdicts = set()
    for _ in range(40):
        a, b = _random_pair(rng, alphabet)
        n, m = rng.randint(-3, 3), rng.randint(-3, 3)
        report = freeness_to_depth(model, a, b, n, m, 4)
        assert _report_tuple(report) == _reference_report(model, a, b, n, m, 4), (a, b, n, m)
        verdicts.add(report.verdict)
    assert verdicts == {"free-to-depth", "relation-found", "unchecked"}


@pytest.mark.parametrize("model, alphabet", ARITHMETIC_MODELS, ids=ARITHMETIC_IDS)
def test_packed_compose_and_power_match_the_model(model, alphabet):
    rng = random.Random(5)
    for _ in range(60):
        x, y = _random_word(rng, alphabet, 10), _random_word(rng, alphabet, 10)
        packed = arithmetic(model, (*x, *y))
        assert isinstance(packed, PackedWords)
        cx, cy = model.canon(x), model.canon(y)
        px, py = packed.encode(x), packed.encode(y)
        assert (px, len(px)) == (packed.encode(cx), len(cx))
        assert packed.compose(px, py) == packed.encode(model.compose(cx, cy))
        assert packed.inverse(px) == packed.encode(model.inverse(cx))
        for k in range(-4, 5):
            assert packed.power(px, k) == packed.encode(model.power(cx, k)), (x, k)


@pytest.mark.parametrize("model, alphabet", ARITHMETIC_MODELS, ids=ARITHMETIC_IDS)
def test_a_power_past_the_cap_is_refused_where_the_search_would_stop(model, alphabet):
    # Long exponents, and a often a conjugate of the last letter: on Z * Z/2
    # the involution s, whose powers have order at most 2, so that a relation
    # comes before a long b^m.
    rng = random.Random(23)
    verdicts = set()
    for _ in range(60):
        a, b = _random_pair(rng, alphabet)
        if rng.random() < 0.3:
            u = _random_word(rng, alphabet, 3)
            a = u + (alphabet[-1],) + tuple(-x for x in reversed(u))
        n, m = rng.randint(-30, 30), rng.randint(-30, 30)
        report = freeness_to_depth(model, a, b, n, m, 2)
        assert _report_tuple(report) == _reference_report(model, a, b, n, m, 2), (a, b, n, m)
        verdicts.add(report.verdict)
    assert {"relation-found", "unchecked"} <= verdicts


def test_a_power_too_long_to_form_is_refused_at_once():
    start = time.perf_counter()
    report = freeness_to_depth(FreeGroupModel(2, cap=512), (1, 2), B, 10**12, 101, 3)
    assert (report.verdict, report.reason) == ("unchecked", "word length 2000000000000 exceeds expansion cap 512")
    report = freeness_to_depth(FreeGroupModel(2, cap=512), A, (1, 2), 3, -(10**12), 3)
    assert (report.verdict, report.reason) == ("unchecked", "word length 2000000000000 exceeds expansion cap 512")
    assert time.perf_counter() - start < 1


def test_a_code_built_tree_power_past_the_cap_is_refused_before_it_is_formed():
    # A tree model built in code is not a spec kind, yet the oracle evaluates
    # in its own packed words, read from the factor orders; f^(10**12) is
    # refused by its length alone.
    model = CyclicFreeProductModel((2, None), ("s", "f"), cap=30)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        report = freeness_to_depth(model, (2,), (1, 2), 10**12, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1 and peak < 10**6
    assert (report.verdict, report.reason) == ("unchecked", "word length 1000000000000 exceeds expansion cap 30")
    # An involution's powers stay short: s^(10**12 + 1) is s, and is checked.
    assert freeness_to_depth(model, (1,), (2,), 10**12 + 1, 1, 2).relation == (1, 1)


@pytest.mark.parametrize(
    "kind, args",
    [(FreeGroupModel, ()), (FreeProductModel, ()), (CyclicFreeProductModel, ((2, None, None), ("s", "x", "y")))],
    ids=["free-group", "free-product", "code-built"],
)
def test_tree_models_call_no_model_method(kind, args):
    # The oracle reads a tree's factor orders and cap, data alone, and calls nothing of the model.
    calls = []

    class Watched(kind):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            if callable(value) and not name.startswith("__"):
                calls.append(name)
            return value

    watched = Watched(*args, cap=64)
    calls.clear()
    report = freeness_to_depth(watched, (1, 2), (2, 2, -1), 3, -2, 4)
    assert calls == []
    assert report == freeness_to_depth(kind(*args, cap=64), (1, 2), (2, 2, -1), 3, -2, 4)


def test_packed_tables_hold_only_the_letters_of_a_and_b():
    # A large rank costs nothing: the tables have entries for the generators used.
    packed = PackedWords((None,) * 40_000, 64, (39_999, -3))
    assert len(packed._code) == 4
    assert packed.encode((39_999, 39_999, -3, 3, -39_999)) == chr(79_998)
    with pytest.raises(ModelError, match="letter 4 out of range for rank 40000"):
        packed.encode((4,))


# -- letters formed when level 1 first reads them, and the word budget ----------------


def test_a_level_1_relation_leaves_a_long_b_power_unformed():
    # a = s has order 2, so a^-1 repeats a at level 1 and b^m is never read.
    tracemalloc.start()
    try:
        report = freeness_to_depth(FreeProductModel(cap=64), (2,), (1,), 1, 3 * 10**7, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.verdict, report.depth, report.relation) == ("relation-found", 1, (1, 1))
    assert peak < 10**6


def test_a_level_1_relation_is_reported_at_once_past_any_b_power_and_depth():
    # Depth 30 is past the word budget, but the relation comes at level 1, before it applies.
    start = time.perf_counter()
    for depth in (2, 30):
        report = freeness_to_depth(FreeProductModel(cap=64), (2,), (1,), 1, 10**12, depth)
        assert (report.verdict, report.depth, report.relation) == ("relation-found", 1, (1, 1))
    assert time.perf_counter() - start < 1


def _count_letters(monkeypatch):
    """The (base, exponent) of every letter the oracle forms, in order."""
    formed, real = [], oracle.arithmetic

    def counting(model, letters):
        arith = real(model, letters)
        letter = arith.letter

        def counted(g, k):
            formed.append((g, k))
            return letter(g, k)

        arith.letter = counted
        return arith

    monkeypatch.setattr(oracle, "arithmetic", counting)
    return formed


def test_each_letter_is_formed_once_when_level_1_reads_it(monkeypatch):
    formed = _count_letters(monkeypatch)
    s = chr(4)  # the involution's character in Z * Z/2
    assert freeness_to_depth(FreeProductModel(cap=64), (2,), (1,), 1, 5, 4).relation == (1, 1)
    assert formed == [(s, 1), (s, -1)]
    formed.clear()
    # r^7 is the identity on C7: the word a is the relation, and only a^7 is formed.
    assert freeness_to_depth(CycleModel(7), (1,), (1, 1), 7, 3, 4).relation == (1,)
    assert formed == [((1,), 7)]
    formed.clear()
    assert freeness_to_depth(FreeGroupModel(2, cap=64), A, B, 2, 3, 4).verdict == "free-to-depth"
    assert formed == [(chr(2), 2), (chr(2), -2), (chr(4), 3), (chr(4), -3)]


def test_a_depth_whose_words_could_pass_the_budget_is_unchecked():
    # F2's words to depth d number 2 * 3**d - 1: 39,365 at depth 9, 118,097 at 10.
    f2 = FreeGroupModel(2, cap=8192)
    assert freeness_to_depth(f2, A, B, 1, 1, 9).verdict == "free-to-depth"
    report = freeness_to_depth(f2, A, B, 1, 1, 10)
    assert report.to_doc() == {"verdict": "unchecked",
                               "reason": "the words to depth 10 could pass the word budget of 100000"}
    start = time.perf_counter()
    assert freeness_to_depth(f2, A, B, 1, 1, 10**9).verdict == "unchecked"
    assert time.perf_counter() - start < 1

