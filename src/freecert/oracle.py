"""Brute-force verification side: freeness to depth over reduced words,
orbit displacement statistics, and exponent-grid sweeps.

This module is deliberately independent of the certifier's formulas, so
it can confirm or refute certificates without sharing their reasoning.  It
takes a, b and the exponents of a claim about <a^n, b^m>, forms each power
itself when its search first reads it, and alone decides what a run
reports, ``unchecked`` included: a run stops at the model cap, or before a
level whose words could pass ``ActionModel.BALL_BUDGET``.

Words are evaluated in an exact arithmetic (:func:`arithmetic`).  The spec
kinds ``free-group`` and ``free-product`` are checked in the oracle's own
:class:`PackedWords`, built from the factor orders and cap that the
model's spec gives; that path shares no code with ``models.py``.  Every
other model is checked through its own exact canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .models import IDENTITY, ActionModel, CapExceeded, ModelError, Word


@dataclass(frozen=True)
class OracleReport:
    depth: int
    verdict: str  # "free-to-depth" | "relation-found" | "unchecked"
    relation: Optional[Word]
    min_displacement_ratio: Optional[Fraction]
    fitted_L: Optional[Fraction]
    reason: Optional[str]  # why an unchecked run stopped: the model cap's or the word budget's message

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


class PackedWords:
    """Normal-form words of a free product of copies of Z and Z/2, one ``str`` character a letter.

    The oracle's own arithmetic for the spec kinds ``free-group`` and
    ``free-product``.  Letter +i is chr(2i) and -i is chr(2i + 1); an
    involution, its own inverse, is chr(2i) under either sign.  A ``str``
    below code 256 holds a byte a character, so slicing and joining copy
    memory, and its hash is computed once and cached, which is what the
    search's table of values keys on.  The tables hold only the generators
    in ``letters``, the letters of a and b, so a large rank costs nothing.
    """

    identity = ""

    def __init__(self, rank: int, involutions: Iterable[int], cap: int, letters: Iterable[int]):
        self.rank, self.cap = rank, cap
        involutions = set(involutions)
        self._code: dict = {}  # letter -> its character
        self._inverse: dict = {}  # character -> the character of the inverse letter
        for l in letters:
            i = abs(l) if isinstance(l, int) else 0
            if 1 <= i <= rank:
                up = chr(2 * i)
                down = up if i in involutions else chr(2 * i + 1)
                self._code[i], self._code[-i] = up, down
                self._inverse[up], self._inverse[down] = down, up
        self._flip = str.maketrans(self._inverse)

    def encode(self, word: Iterable[int]) -> str:
        """``word``, reduced to its normal form; refuses a letter outside the rank."""
        code, inverse = self._code, self._inverse
        out: list = []
        for l in word:
            if l not in code:
                raise ModelError(f"letter {l} out of range for rank {self.rank}")
            c = code[l]
            if out and out[-1] == inverse[c]:
                out.pop()
            else:
                out.append(c)
        return "".join(out)

    def compose(self, x: str, y: str) -> str:
        # Normal forms cancel only where they join (Lyndon-Schupp IV.1): drop
        # the inverse pairs at the seam, then join what is left in one copy.
        inverse = self._inverse
        if not (x and y and x[-1] == inverse[y[0]]):
            return x + y
        n, k = len(x), 1
        most = min(n, len(y))
        while k < most and x[n - 1 - k] == inverse[y[k]]:
            k += 1
        return x[: n - k] + y[k:]

    def inverse(self, x: str) -> str:
        return x[::-1].translate(self._flip)

    def power(self, g: str, n: int) -> str:
        if n < 0:
            g, n = self.inverse(g), -n  # invert the short base, never the power
        result = self.identity
        while n:
            if n & 1:
                result = self.compose(result, g)
            n >>= 1
            if n:  # square only while bits remain
                g = self.compose(g, g)
        return result

    def displacement(self, v: str) -> int:
        """d(1, v * 1) on the Cayley tree: the length of v, within the model's cap."""
        if len(v) > self.cap:
            raise CapExceeded(f"word length {len(v)} exceeds expansion cap {self.cap}")
        return len(v)

    def letter(self, g: str, k: int) -> str:
        """g^k, refused with CapExceeded before it is formed if it is longer than the cap."""
        _check_power(g, self.compose(g, g), k, self.cap)
        return self.power(g, k)


def _check_power(g, square, k: int, cap: int) -> None:
    """Refuses with CapExceeded a tree word g^k longer than ``cap``, given g and g^2.

    For k != 0, |g^k| = |g| + (|k| - 1)(|g^2| - |g|), as each further g
    adds its cyclically reduced core; an involution (g^2 the identity)
    has odd powers g and even powers the identity.
    """
    k_abs = abs(k) if square else abs(k) % 2
    length = len(g) + (k_abs - 1) * (len(square) - len(g)) if k_abs else 0
    if length > cap:
        raise CapExceeded(f"word length {length} exceeds expansion cap {cap}")


class _ModelArithmetic:
    """Any other model's arithmetic: its own canonical forms, action and metric."""

    identity = IDENTITY

    def __init__(self, model: ActionModel):
        self.encode, self.compose = model.canon, model.compose
        self._model, self._base = model, model.basepoint()

    def letter(self, g: Word, k: int) -> Word:
        """g^k; on a tree model, refused as :meth:`PackedWords.letter` refuses it (other models are finite)."""
        if self._model.is_tree:
            _check_power(g, self.compose(g, g), k, self._model.cap)
        return self._model.power(g, k)

    def displacement(self, v: Word) -> int:
        return self._model.distance(self._base, self._model.apply(v, self._base))


def arithmetic(model: ActionModel, letters: Iterable[int]):
    """The arithmetic the oracle evaluates words over ``letters`` in.

    On the two free-product spec kinds it is the oracle's own
    :class:`PackedWords`, read from the spec alone; on every other kind it
    is the model's own canonical forms.
    """
    if model.kind in ("free-group", "free-product"):
        spec = model.spec_dict()
        rank, involutions = (spec["rank"], ()) if spec["kind"] == "free-group" else (2, (2,))
        return PackedWords(rank, involutions, spec["cap"], letters)
    return _ModelArithmetic(model)


def freeness_to_depth(model: ActionModel, a: Word, b: Word, n: int, m: int, depth: int) -> OracleReport:
    """Check every reduced word in (a^n, b^m) up to ``depth`` for relations.

    a and b are reduced once, and the oracle forms a^n, b^m and their
    inverses itself, each inverse as a power of the inverted short word.
    Free-to-depth means all words act nontrivially *and* pairwise
    distinctly.  Words are visited in length-then-lex order and
    the first failure is reported: either a trivially-acting word itself,
    or the quotient w1 * w2^-1 of the first evaluation collision (which can
    be longer than the depth at which it was detected).  Displacements of
    the base point are folded into the embedding stats: every word of a
    level has the same length, so each level's least and greatest
    displacement become exact ratios once per level (a level cut short by
    a relation included), the same values as one ratio per word.  A run
    that the model cap stops is reported ``unchecked``, with the cap's
    message as the reason, and so is a depth whose words could pass
    ``ActionModel.BALL_BUDGET``, with the budget's.
    """
    if depth < 1:
        raise ModelError("depth must be >= 1")
    arith = arithmetic(model, (*a, *b))
    a, b = arith.encode(a), arith.encode(b)
    try:
        return _search(arith, {1: (a, n), -1: (a, -n), 2: (b, m), -2: (b, -m)}, depth)
    except CapExceeded as exc:
        return OracleReport(depth, "unchecked", None, None, None, str(exc))


def _search(arith, powers: dict, depth: int) -> OracleReport:
    """The oracle's level-by-level pass over words in the letters 1, -1, 2, -2.

    ``powers`` maps each letter to its (base, exponent).  ``arith`` gives
    the values: an ``identity``, ``compose(x, y)``, ``letter(g, k)`` and the
    base point's ``displacement(v)``; ``letter`` and ``displacement`` raise
    CapExceeded past the cap.  Level 1 forms each letter just before it
    visits the letter's own word, so no letter after the first relation is
    formed; a level whose words could pass ``ActionModel.BALL_BUDGET`` is
    not formed at all, and the run is ``unchecked``.
    """
    identity, compose, displacement = arith.identity, arith.compose, arith.displacement
    seen: dict = {identity: ()}  # the empty word evaluates to the identity
    letters: dict = {}  # each letter's value, formed when level 1 reads it
    min_ratio: Optional[Fraction] = None
    max_ratio: Optional[Fraction] = None

    # One pass level by level, each level the (word, value) pairs of one
    # length in lexicographic order (letters 1, -1, 2, -2), so the first
    # relation found is the lexicographically least at the minimal length.
    level: list = [((), identity)]
    for length in range(1, depth + 1):
        # A word has at most 3 children, the empty word 4.
        if len(seen) + (3 if length > 1 else 4) * len(level) > ActionModel.BALL_BUDGET:
            reason = f"the words to depth {depth} could pass the word budget of {ActionModel.BALL_BUDGET}"
            return OracleReport(depth, "unchecked", None, None, None, reason)
        next_level = []
        lo = hi = None  # least and greatest displacement on this level so far
        for word, value in level:
            for l in (1, -1, 2, -2):
                if word and word[-1] == -l:
                    continue
                if not word:  # level 1, whose one parent is the empty word
                    letters[l] = arith.letter(*powers[l])
                w, v = word + (l,), compose(value, letters[l])
                prev = seen.setdefault(v, w)
                if prev is not w:
                    # w acts trivially, or two distinct words evaluate to the same element.
                    # Equal last letters would make the prefixes an earlier collision, so prev w^-1 is reduced.
                    rel = w if v == identity else prev + tuple(-x for x in reversed(w))
                    min_ratio, max_ratio = _fold(min_ratio, max_ratio, lo, hi, length)
                    return OracleReport(length, "relation-found", rel, min_ratio, _fit_L(min_ratio, max_ratio), None)
                d = displacement(v)
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
    or the reason the model cap or the word budget left the cell unchecked.
    """
    if depth < 2:
        raise ModelError("depth must be >= 2")
    cells = sorted(((n, m) for n in n_range for m in m_range), key=lambda t: (t[0] + t[1], t))
    return SweepTable({(n, m): freeness_to_depth(model, a, b, n, m, depth) for n, m in cells})
