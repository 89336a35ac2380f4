"""Brute-force verification side: freeness to depth over reduced words,
orbit displacement statistics, and exponent-grid sweeps.

This module is deliberately independent of the certifier's formulas: it
only ever evaluates words through the model's exact canonical forms, so it
can confirm or refute certificates without sharing their reasoning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .models import IDENTITY, ActionModel, CapExceeded, ModelError, Word


@dataclass(frozen=True)
class OracleReport:
    depth: int
    verdict: str  # "free-to-depth" | "relation-found"
    relation: Optional[Word]
    min_displacement_ratio: Optional[Fraction]
    fitted_L: Optional[Fraction]
    fitted_C: Fraction = Fraction(0)

    def to_doc(self) -> dict:
        return {
            "depth": self.depth,
            "verdict": self.verdict,
            "relation": list(self.relation) if self.relation else None,
            "min_displacement_ratio": str(self.min_displacement_ratio)
            if self.min_displacement_ratio is not None
            else None,
            "fitted_L": str(self.fitted_L) if self.fitted_L is not None else None,
            "fitted_C": str(self.fitted_C),
        }


@dataclass
class SweepTable:
    cells: dict  # (n, m) -> verdict string
    witnesses: dict  # (n, m) -> relation word
    exceptional_pairs: list
    reasons: dict = field(default_factory=dict)  # (n, m) -> why the cell is unchecked

    def rows(self) -> list[dict]:
        out = []
        for (n, m) in sorted(self.cells, key=lambda t: (t[0] + t[1], t)):
            row = {
                "n": n,
                "m": m,
                "verdict": self.cells[(n, m)],
                "witness": list(self.witnesses.get((n, m), ())) or None,
            }
            if (n, m) in self.reasons:
                row["reason"] = self.reasons[(n, m)]
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


def freeness_to_depth(model: ActionModel, a: Word, b: Word, depth: int) -> OracleReport:
    """Check every reduced word in (a, b) up to ``depth`` for relations.

    Free-to-depth means all words act nontrivially *and* pairwise
    distinctly.  Words are visited in length-then-lex order and the first
    failure is reported: either a trivially-acting word itself, or the
    quotient w1 * w2^-1 of the first evaluation collision (which can be
    longer than the depth at which it was detected).  Displacements of the
    base point are folded into the embedding stats.
    """
    if depth < 1:
        raise ModelError("depth must be >= 1")
    a, b = model.canon(a), model.canon(b)
    base = model.basepoint()

    letters = {1: a, -1: model.inverse(a), 2: b, -2: model.inverse(b)}

    seen: dict[Word, Word] = {IDENTITY: ()}  # the empty word evaluates to the identity
    min_ratio: Optional[Fraction] = None
    max_ratio: Optional[Fraction] = None

    # One pass level by level, each level the (word, value) pairs of one
    # length in lexicographic order (letters 1, -1, 2, -2), so the first
    # relation found is the lexicographically least at the minimal length.
    level: list[tuple[Word, Word]] = [((), ())]
    for length in range(1, depth + 1):
        next_level = []
        for word, value in level:
            for l in (1, -1, 2, -2):
                if word and word[-1] == -l:
                    continue
                w, v = word + (l,), model.compose(value, letters[l])
                if v in seen:
                    # w acts trivially, or two distinct words evaluate to the same element.
                    rel = w if v == IDENTITY else model_free_quotient(seen[v], w)
                    return OracleReport(length, "relation-found", rel, min_ratio, _fit_L(min_ratio, max_ratio))
                seen[v] = w
                r = Fraction(model.distance(base, model.apply(v, base)), length)
                min_ratio = r if min_ratio is None else min(min_ratio, r)
                max_ratio = r if max_ratio is None else max(max_ratio, r)
                next_level.append((w, v))
        level = next_level
    return OracleReport(depth, "free-to-depth", None, min_ratio, _fit_L(min_ratio, max_ratio))


def model_free_quotient(w1: Word, w2: Word) -> Word:
    """Reduced word for w1 * w2^-1 (a relation when both act identically)."""
    out = list(w1)
    for l in reversed(w2):
        if out and out[-1] == l:
            out.pop()
        else:
            out.append(-l)
    return tuple(out)


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

    Each cell records the oracle verdict, with the relation found or the
    reason the model cap left the cell unchecked.
    """
    if depth < 2:
        raise ModelError("depth must be >= 2")
    a, b = model.canon(a), model.canon(b)
    cells: dict = {}
    witnesses: dict = {}
    reasons: dict = {}
    exceptional = []
    for n, m in sorted(((n, m) for n in n_range for m in m_range), key=lambda t: (t[0] + t[1], t)):
        an, bm = model.power(a, n), model.power(b, m)
        try:
            report = freeness_to_depth(model, an, bm, depth)
        except CapExceeded as exc:
            cells[(n, m)] = "unchecked"
            reasons[(n, m)] = str(exc)
            continue
        cells[(n, m)] = report.verdict
        if report.verdict == "relation-found":
            witnesses[(n, m)] = report.relation
            exceptional.append((n, m))
    return SweepTable(cells, witnesses, exceptional, reasons)
