"""Brute-force verification side: freeness to depth over reduced words,
orbit displacement statistics, and exponent-grid sweeps.

This module is deliberately independent of the certifier's formulas: it
only ever evaluates words through the model's exact canonical forms, so it
can confirm or refute certificates without sharing their reasoning.  It
takes a, b and the exponents of a claim about <a^n, b^m>, forms the powers
itself, and alone decides what a run reports, ``unchecked`` included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .models import IDENTITY, ActionModel, CapExceeded, ModelError, Word


@dataclass(frozen=True)
class OracleReport:
    depth: int
    verdict: str  # "free-to-depth" | "relation-found" | "unchecked"
    relation: Optional[Word]
    min_displacement_ratio: Optional[Fraction]
    fitted_L: Optional[Fraction]
    reason: Optional[str]  # why an unchecked run stopped: the model cap's message

    def to_doc(self) -> dict:
        if self.verdict == "unchecked":
            return {"verdict": self.verdict, "reason": self.reason}
        return {
            "depth": self.depth,
            "verdict": self.verdict,
            "relation": list(self.relation) if self.relation else None,
            "min_displacement_ratio": str(self.min_displacement_ratio)
            if self.min_displacement_ratio is not None
            else None,
            "fitted_L": str(self.fitted_L) if self.fitted_L is not None else None,
        }


@dataclass
class SweepTable:
    reports: dict  # (n, m) -> OracleReport, small n + m first

    @property
    def exceptional_pairs(self) -> list:
        return [nm for nm, report in self.reports.items() if report.verdict == "relation-found"]

    def rows(self) -> list[dict]:
        out = []
        for (n, m), report in self.reports.items():
            row = {"n": n, "m": m, "verdict": report.verdict,
                   "witness": list(report.relation) if report.relation else None}
            if report.reason is not None:
                row["reason"] = report.reason
            out.append(row)
        return out

    def to_doc(self) -> dict:
        return {"rows": self.rows(), "exceptional_pairs": [list(p) for p in self.exceptional_pairs]}


def evaluate(model: ActionModel, word: Word, a: Word, b: Word) -> Word:
    """The element ``word`` (letters +-1 for a, +-2 for b) with a, b substituted."""
    subs = {1: a, -1: model.inverse(a), 2: b, -2: model.inverse(b)}
    out: Word = ()
    for l in word:
        out = model.compose(out, subs[l])
    return out


def freeness_to_depth(model: ActionModel, a: Word, b: Word, n: int, m: int, depth: int) -> OracleReport:
    """Check every reduced word in (a^n, b^m) up to ``depth`` for relations.

    a and b are reduced once, and the oracle forms a^n, b^m and their
    inverses itself.  Free-to-depth means all words act nontrivially *and*
    pairwise distinctly.  Words are visited in length-then-lex order and
    the first failure is reported: either a trivially-acting word itself,
    or the quotient w1 * w2^-1 of the first evaluation collision (which can
    be longer than the depth at which it was detected).  Displacements of
    the base point are folded into the embedding stats: every word of a
    level has the same length, so each level's least and greatest
    displacement become exact ratios once per level (a level cut short by
    a relation included), the same values as one ratio per word.  A run
    that the model cap stops is reported ``unchecked``, with the cap's
    message as the reason.
    """
    if depth < 1:
        raise ModelError("depth must be >= 1")
    an, bm = model.power(model.canon(a), n), model.power(model.canon(b), m)
    try:
        return _search(model, {1: an, -1: model.inverse(an), 2: bm, -2: model.inverse(bm)}, depth)
    except CapExceeded as exc:
        return OracleReport(depth, "unchecked", None, None, None, str(exc))


def _search(model: ActionModel, letters: dict, depth: int) -> OracleReport:
    """The oracle's level-by-level pass over words in ``letters``, keyed 1, -1, 2, -2."""
    base = model.basepoint()
    seen: dict[Word, Word] = {IDENTITY: ()}  # the empty word evaluates to the identity
    min_ratio: Optional[Fraction] = None
    max_ratio: Optional[Fraction] = None

    # One pass level by level, each level the (word, value) pairs of one
    # length in lexicographic order (letters 1, -1, 2, -2), so the first
    # relation found is the lexicographically least at the minimal length.
    level: list[tuple[Word, Word]] = [((), ())]
    for length in range(1, depth + 1):
        next_level = []
        lo = hi = None  # least and greatest displacement on this level so far
        for word, value in level:
            for l in (1, -1, 2, -2):
                if word and word[-1] == -l:
                    continue
                w, v = word + (l,), model.compose(value, letters[l])
                prev = seen.setdefault(v, w)
                if prev is not w:
                    # w acts trivially, or two distinct words evaluate to the same element.
                    # Equal last letters would make the prefixes an earlier collision, so prev w^-1 is reduced.
                    rel = w if v == IDENTITY else prev + tuple(-x for x in reversed(w))
                    min_ratio, max_ratio = _fold(min_ratio, max_ratio, lo, hi, length)
                    return OracleReport(length, "relation-found", rel, min_ratio, _fit_L(min_ratio, max_ratio), None)
                d = model.distance(base, model.apply(v, base))
                if lo is None:
                    lo = hi = d
                elif d < lo:
                    lo = d
                elif d > hi:
                    hi = d
                next_level.append((w, v))
        min_ratio, max_ratio = _fold(min_ratio, max_ratio, lo, hi, length)
        level = next_level
    return OracleReport(depth, "free-to-depth", None, min_ratio, _fit_L(min_ratio, max_ratio), None)


def _fold(
    min_ratio: Optional[Fraction], max_ratio: Optional[Fraction], lo: Optional[int], hi: Optional[int], length: int
) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """The extreme ratios with one level's displacements ``lo``..``hi`` over ``length`` folded in."""
    if lo is None:
        return min_ratio, max_ratio
    lo_r, hi_r = Fraction(lo, length), Fraction(hi, length)
    if min_ratio is None:
        return lo_r, hi_r
    return min(min_ratio, lo_r), max(max_ratio, hi_r)


def _fit_L(min_ratio: Optional[Fraction], max_ratio: Optional[Fraction]) -> Optional[Fraction]:
    if min_ratio is None or max_ratio is None or min_ratio == 0:
        return None
    return max(max_ratio, 1 / min_ratio, Fraction(1))


def exceptional_sweep(
    model: ActionModel,
    a: Word,
    b: Word,
    n_range: range,
    m_range: range,
    depth: int,
) -> SweepTable:
    """Grid sweep of (a^n, b^m) pairs, small n+m first.

    Each cell keeps its oracle report: the verdict, with the relation found
    or the reason the model cap left the cell unchecked.
    """
    if depth < 2:
        raise ModelError("depth must be >= 2")
    cells = sorted(((n, m) for n in n_range for m in m_range), key=lambda t: (t[0] + t[1], t))
    return SweepTable({(n, m): freeness_to_depth(model, a, b, n, m, depth) for n, m in cells})
