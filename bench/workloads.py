"""Seeded inputs and per-op output checks for the benchmark workloads.

Each workload is a pool of ``POOL_SIZE`` ops built from the seed alone: the
program only ever sees the spec files written here and the argv lists.
Every pool has a fixed composition (how many ops of each kind and size),
and the seed picks the concrete words, graphs' vertex labels, budgets and
order.  That keeps the cost mix identical across seeds, so run-to-run
spread comes from the program and the machine, not from the draw.

The checks hold for any correct program, not for golden bytes: a freeness
certificate must verify, a tree has delta 0, a sweep witness must evaluate
to the identity under the tiny evaluator below (which shares no code with
``freecert.oracle``), and so on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

POOL_SIZE = 120

WORKLOADS = ("certify-f2", "long-axis", "delta-regions", "oracle-short")


@dataclass
class Op:
    kind: str
    argv: list
    out: str
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Tiny word evaluator, independent of freecert
# ---------------------------------------------------------------------------
#
# Letters are signed ints: in F2, a = 1 and b = 2; in Z * Z/2, f = 1 and
# s = 2 with s^-1 = s.


def reduce_word(letters, involution: Optional[int] = None) -> tuple:
    """Freely reduce; ``involution`` names a letter of order two."""
    out: list = []
    for l in letters:
        if involution is not None and abs(l) == involution:
            l = involution
        if out and (out[-1] == -l or (l == involution and out[-1] == l)):
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def invert(word, involution: Optional[int] = None) -> tuple:
    return tuple(l if l == involution else -l for l in reversed(word))


def evaluate(word, a, b, involution: Optional[int] = None) -> tuple:
    """The element ``word`` (letters +-1 for a, +-2 for b) with a, b substituted."""
    subs = {1: a, -1: invert(a, involution), 2: b, -2: invert(b, involution)}
    out: list = []
    for l in word:
        out.extend(subs[l])
    return reduce_word(out, involution)


def power(word, n: int, involution: Optional[int] = None) -> tuple:
    return reduce_word(tuple(word) * n, involution)


def commute(a, b) -> bool:
    return evaluate((1, 2, -1, -2), a, b) == ()


def parse(text: str) -> tuple:
    """'abA' -> (1, 2, -1); f/s words use the same lowercase-positive rule."""
    index = {"a": 1, "b": 2, "f": 1, "s": 2}
    return tuple(index[c.lower()] * (1 if c.islower() else -1) for c in text)


def spell(word, letters: str = "ab") -> str:
    return "".join(letters[abs(l) - 1] if l > 0 else letters[abs(l) - 1].upper() for l in word)


def random_reduced(rng: random.Random, length: int, first=None) -> tuple:
    word: list = []
    while len(word) < length:
        choices = [l for l in (1, -1, 2, -2) if not word or word[-1] != -l]
        if not word and first is not None:
            choices = list(first)
        word.append(rng.choice(choices))
    return tuple(word)


# ---------------------------------------------------------------------------
# Pool helpers
# ---------------------------------------------------------------------------


def _interleave(rng: random.Random, groups: list, shuffle: bool = True) -> list:
    """Merge groups so every prefix of the result keeps their proportions.

    Each item gets the position (index + jitter) / group size; sorting by it
    spreads every group evenly, so a run cut mid-pool still sees the mix.
    With ``shuffle`` false each group keeps its own order.
    """
    keyed = []
    for group in groups:
        if shuffle:
            rng.shuffle(group)
        n = len(group)
        keyed.extend(((i + rng.random()) / n, item) for i, item in enumerate(group))
    keyed.sort(key=lambda t: t[0])
    return [item for _, item in keyed]


def _bit_reversed(n: int) -> list:
    """0 .. n-1 in bit-reversed order: every prefix spreads evenly over the range."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """``count`` integers spread evenly over [lo, hi], jittered by the seed."""
    span = hi - lo + 1
    return [lo + int(span * (i + rng.random()) / count) for i in range(count)]


def _write_spec(workdir: Path, name: str, spec: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(spec))
    return str(path)


# ---------------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------------


def _certify_f2(rng: random.Random, workdir: Path) -> list:
    # Random F2 pairs of length 1-4 as in acceptance criterion 10; a fixed
    # fifth of the pool is commuting (dependent) pairs, which must be refused.
    # The independent pairs come in equal numbers for each of the 16 length
    # classes (|a|, |b|): the cost of an op depends on the class by up to a
    # third, so a drawn mix of classes would move p50 from seed to seed.
    spec = _write_spec(workdir, "f2.json", {"kind": "free-group", "rank": 2, "cap": 8192})
    cert, vout = str(workdir / "cert.json"), str(workdir / "verify.json")
    want_dep = POOL_SIZE // 5
    dependent = []
    while len(dependent) < want_dep:
        a = random_reduced(rng, rng.randint(1, 4))
        b = random_reduced(rng, rng.randint(1, 4))
        if commute(a, b):
            dependent.append((a, b))
    classes = [(len_a, len_b) for len_a in range(1, 5) for len_b in range(1, 5)]
    independent = []
    for i in range(POOL_SIZE - want_dep):
        len_a, len_b = classes[i % len(classes)]
        while True:
            a, b = random_reduced(rng, len_a), random_reduced(rng, len_b)
            if not commute(a, b):
                break
        independent.append((a, b))
    ops = []
    for group in (dependent, independent):
        ops.append(
            [
                Op(
                    "certify",
                    ["certify", "--model", spec, "--a", spell(a), "--b", spell(b),
                     "--criterion", "nielsen", "--out", cert],
                    cert,
                    {"commute": commute(a, b), "verify": ["verify", "--certificate", cert, "--out", vout],
                     "verify_out": vout},
                )
                for a, b in group
            ]
        )
    return _interleave(rng, ops)


def _long_axis(rng: random.Random, workdir: Path) -> list:
    # Criterion 8 at reduced k: a = a^k, b a short power of b, case-I words.
    # An op's cost grows steeply with k (0.3 s at k = 27 to 0.9 s at k = 39
    # with window 6), so p90 sits on a steep slope: each window's ops get b
    # and the word length from their k rank, not from the draw, and run in
    # bit-reversed k order, so that the part of the pool a run repeats
    # spans the k range the same way for every seed.
    spec = _write_spec(workdir, "f2.json", {"kind": "free-group", "rank": 2, "cap": 8192})
    out = str(workdir / "chain.json")
    groups = []
    windows = (3, 4, 5, 6)
    per_window = POOL_SIZE // len(windows)
    for window in windows:
        group = []
        ks = _stratified(rng, 10, 40, per_window)
        for rank in _bit_reversed(per_window):
            k = ks[rank]
            b = ("b", "B", "bb", "BB")[rank % 4]
            # A b-syllable of the word longer than one letter gives a chain gap
            # outside both admissible bands for small k, and the chain exits 1.
            word = random_reduced(rng, rank % 3 + 1, first=(1, -1))
            while any(x == y and abs(x) == 2 for x, y in zip(word, word[1:])):
                word = random_reduced(rng, rank % 3 + 1, first=(1, -1))
            group.append(
                Op(
                    "chain",
                    ["chain", "--model", spec, "--a", "a" * k, "--b", b, "--window", str(window),
                     "--word", spell(word), "--E", f"{k}/1000", "--Q", "3", "--out", out],
                    out,
                )
            )
        groups.append(group)
    return _interleave(rng, groups, shuffle=False)


def _torus(m: int, n: int, rng: random.Random) -> tuple:
    """m x n grid torus with its two translations, vertices relabelled by ``rng``."""
    label = list(range(m * n))
    rng.shuffle(label)
    vertex = lambda x, y: label[(x % m) * n + (y % n)]
    adjacency = [[] for _ in range(m * n)]
    shift_x, shift_y = [0] * (m * n), [0] * (m * n)
    for x in range(m):
        for y in range(n):
            v = vertex(x, y)
            adjacency[v] = sorted({vertex(x + 1, y), vertex(x - 1, y), vertex(x, y + 1), vertex(x, y - 1)})
            shift_x[v], shift_y[v] = vertex(x + 1, y), vertex(x, y + 1)
    spec = {"kind": "explicit-graph", "adjacency": adjacency, "generators": [shift_x, shift_y]}
    return spec, m // 2 + n // 2


# Graph regions for the BFS-DAG branch: non-tree, every geodesic count under
# the 64-path cap (a 6x6 torus has 80 between antipodes and takes ~26 s).
GRAPHS = [("cycle", n) for n in range(5, 14)] + [
    ("torus", (3, 3)), ("torus", (3, 4)), ("torus", (3, 5)),
    ("torus", (4, 4)), ("torus", (4, 5)), ("torus", (5, 5)),
]


def _delta_regions(rng: random.Random, workdir: Path) -> list:
    tree_spec = _write_spec(workdir, "f2.json", {"kind": "free-group", "rank": 2, "cap": 64})
    out = str(workdir / "region.json")
    half = POOL_SIZE // 2
    trees = []
    for radius, budget in zip([4, 5, 6] * (half // 3), _stratified(rng, 300, 900, half)):
        trees.append(
            Op(
                "delta-tree",
                ["delta", "--model", tree_spec, "--radius", str(radius), "--budget", str(budget),
                 "--seed", str(rng.randrange(1 << 30)), "--out", out],
                out,
            )
        )
    deltas, acyls = [], []
    repeats = half // 2 // len(GRAPHS)
    for i, (kind, size) in enumerate(GRAPHS * repeats):
        if kind == "cycle":
            spec, diameter = {"kind": "cycle", "n": size}, size // 2
        else:
            spec, diameter = _torus(*size, rng)
        path = _write_spec(workdir, f"graph{i}.json", spec)
        graph = f"{kind}{size}"
        deltas.append(
            Op("delta-graph", ["delta", "--model", path, "--radius", str(diameter), "--out", out], out,
               {"graph": graph, "diameter": diameter})
        )
        radii = [0, i % 2 + 1]
        acyls.append(
            Op("acyl-graph", ["acyl", "--model", path, "--radii", ",".join(map(str, radii)),
                              "--region-radius", "2", "--ball-radius", "3", "--out", out], out,
               {"radii": radii})
        )
    return _interleave(rng, [trees, deltas, acyls])


def _oracle_short(rng: random.Random, workdir: Path) -> list:
    # Thirds of the pool: torsion sweeps, then F2 sweeps at depth 7 and at
    # depth 8, each third costlier than the one before, so that p50 falls
    # inside the depth-7 third and p90 inside the depth-8 third, never on a
    # boundary between two kinds of op.
    zspec = _write_spec(workdir, "zxz2.json", {"kind": "free-product", "cap": 256})
    fspec = _write_spec(workdir, "f2.json", {"kind": "free-group", "rank": 2, "cap": 256})
    out = str(workdir / "sweep.json")
    third = POOL_SIZE // 3
    torsion = []
    # (f^n s, f^m) with n = m t: cell (1, t) holds (a b^-t)^2 = s^2 = 1.
    for i in range(third):
        t, m = i % 4 + 1, i // 4 % 2 + 1
        a, b = parse("f" * (m * t) + "s"), parse("f" * m)
        torsion.append(
            Op("sweep-torsion", ["sweep", "--model", zspec, "--a", spell(a, "fs"), "--b", spell(b, "fs"),
                                 "--range", "1:1,1:4", "--depth", "4", "--out", out], out,
               {"a": a, "b": b, "cells": 4, "must_relate": [(1, t)]})
        )
    groups = [torsion]
    for depth in (7, 8):
        free = []
        for i in range(third):
            len_a, len_b = i % 2 + 1, i // 2 % 2 + 1
            while True:
                a, b = random_reduced(rng, len_a), random_reduced(rng, len_b)
                if not commute(a, b):
                    break
            free.append(
                Op("sweep-f2", ["sweep", "--model", fspec, "--a", spell(a), "--b", spell(b),
                                "--range", "1:1", "--depth", str(depth), "--out", out], out,
                   {"a": a, "b": b, "cells": 1})
            )
        groups.append(free)
    return _interleave(rng, groups)


GENERATORS = {
    "certify-f2": _certify_f2,
    "long-axis": _long_axis,
    "delta-regions": _delta_regions,
    "oracle-short": _oracle_short,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    """The op pool of ``workload`` for ``seed``; spec files go to ``workdir``."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)


# ---------------------------------------------------------------------------
# Running one op and checking its output
# ---------------------------------------------------------------------------


def call(main: Callable, argv: list) -> tuple:
    """Run the CLI in-process; return (exit code or None, seconds, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # an exception out of the CLI is a failed op
            secs = time.perf_counter() - start
            return None, secs, f"{type(exc).__name__}: {exc}"
        secs = time.perf_counter() - start
    return code, secs, err.getvalue().strip()


def _unlink(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _check_certify(op: Op, code, main) -> tuple:
    """After a certify exit 0 or 1: verify; returns (extra seconds, failure)."""
    if code == 1:
        # A refusal writes nothing; a written certificate with exit 1 is one
        # the chained oracle check rejected.
        if os.path.exists(op.out):
            return 0.0, "certify wrote a certificate its own oracle check rejects"
        return 0.0, None
    if op.info["commute"]:
        return 0.0, "certified a commuting (dependent) pair"
    _unlink(op.info["verify_out"])
    vcode, secs, err = call(main, op.info["verify"])
    if vcode != 0:
        return secs, f"verify exit {vcode}: {err}"
    verdict = _load(op.info["verify_out"])["verdict"]
    if verdict != "free-to-depth":
        return secs, f"verify verdict {verdict}"
    return secs, None


def _check_delta_tree(op: Op, doc: dict) -> Optional[str]:
    if Fraction(str(doc["delta"])) != 0:
        return f"tree region has delta {doc['delta']}"
    return None


def _check_delta_graph(op: Op, doc: dict) -> Optional[str]:
    delta = Fraction(str(doc["delta"]))
    if not 0 < delta <= op.info["diameter"]:
        return f"{op.info['graph']}: delta {delta} outside (0, diameter {op.info['diameter']}]"
    if doc["exhaustive"] is not True:
        return f"{op.info['graph']}: whole finite graph not measured exhaustively"
    return None


def _check_acyl(op: Op, doc: dict) -> Optional[str]:
    entries = doc["entries"]
    if sorted(entries, key=int) != [str(r) for r in sorted(op.info["radii"])]:
        return f"acyl entries {sorted(entries)} for radii {op.info['radii']}"
    for R, entry in entries.items():
        if not (isinstance(entry["K_hat"], int) and entry["K_hat"] >= 1 and entry["L_hat"] >= 1):
            return f"acyl R={R}: K_hat/L_hat below 1: {entry}"
    return None


def _check_sweep(op: Op, doc: dict, involution: Optional[int]) -> Optional[str]:
    a, b = op.info["a"], op.info["b"]
    seen = set()
    for row in doc["rows"]:
        n, m, verdict, witness = row["n"], row["m"], row["verdict"], row["witness"]
        seen.add((n, m))
        an, bm = power(a, n, involution), power(b, m, involution)
        if verdict == "relation-found":
            if not witness or evaluate(witness, an, bm, involution) != ():
                return f"cell ({n}, {m}): witness {witness} is not a relation"
        elif verdict != "free-to-depth":
            return f"cell ({n}, {m}): verdict {verdict}"
        if involution is None and verdict == "relation-found" and not commute(an, bm):
            # Non-commuting elements of a free group generate a free group.
            return f"cell ({n}, {m}): relation reported for a free pair"
    for cell in op.info.get("must_relate", ()):
        row = next((r for r in doc["rows"] if (r["n"], r["m"]) == cell), None)
        if row is None or row["verdict"] != "relation-found":
            return f"cell {cell}: a length-4 relation exists but was not found"
    if len(seen) != op.info["cells"]:
        return f"sweep returned {len(seen)} cells for a grid of {op.info['cells']}"
    return None


CHECKS = {
    "chain": lambda op, doc: None if doc.get("failures") == [] else f"chain failures {doc.get('failures')}",
    "delta-tree": _check_delta_tree,
    "delta-graph": _check_delta_graph,
    "acyl-graph": _check_acyl,
    "sweep-torsion": lambda op, doc: _check_sweep(op, doc, involution=2),
    "sweep-f2": lambda op, doc: _check_sweep(op, doc, involution=None),
}


class Consistency:
    """Same graph, same delta: a graph's value must not change within a run."""

    def __init__(self):
        self.seen: dict = {}

    def check(self, op: Op, doc: dict) -> Optional[str]:
        if op.kind != "delta-graph":
            return None
        value = str(doc["delta"])
        first = self.seen.setdefault(op.info["graph"], value)
        return None if first == value else f"{op.info['graph']}: delta {value} after {first}"


def run_op(op: Op, main: Callable, consistency: Consistency) -> tuple:
    """Run one op and check it; return (seconds in the CLI, failure or None)."""
    _unlink(op.out)
    code, secs, err = call(main, op.argv)
    if op.kind == "certify" and code in (0, 1):
        extra, failure = _check_certify(op, code, main)
        return secs + extra, failure
    if code != 0:
        return secs, f"{op.kind} exit {code}: {err}"
    try:
        doc = _load(op.out)
        failure = CHECKS[op.kind](op, doc) or consistency.check(op, doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failure = f"{op.kind}: unreadable output: {type(exc).__name__}: {exc}"
    return secs, failure
