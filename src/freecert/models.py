"""Action models: point spaces with exact integer metrics and isometric group actions.

Every other module operates on an :class:`ActionModel`, which also owns
the structure the isometry layer needs: the exact translation length of an
element, and the axis of a hyperbolic one, as rays out of its base point.
Three desk-scale families are built in:

* :class:`CyclicFreeProductModel` -- a free product of copies of Z and
  Z/2 acting on its Cayley tree, with exact cyclic reduction.  The spec
  kinds ``free-group`` (rank k, all factors Z) and ``free-product``
  (Z * Z/2) build it,
* ``cycle`` -- the cyclic rotation group acting on the n-cycle,
* ``explicit-graph`` -- a finite graph with a finite automorphism group
  generated by user-supplied vertex permutations.

Group elements and Cayley points are words: tuples of signed 1-based
generator indices, always stored in canonical form.  All distances are
exact integers; there is no floating point anywhere in this module.

Every word a model method returns is canonical, and the identity is
``IDENTITY``: test it with ``w == IDENTITY``, never by reducing w again.
``compose(x, y)``, ``inverse``, ``power`` and ``apply`` take canonical words
(on the tree, points are words and ``apply`` is ``compose`` under the cap);
``canon`` reduces and range-checks words where they come in: the CLI, and
each library function that takes a caller's words (``classify``,
``independence_test``, ``build_witness_chain``, and ``freeness_to_depth``
on the ``cycle`` and ``explicit-graph`` kinds, where it reduces a and b
once and forms their powers itself).  On every tree model the oracle
reduces and multiplies words in its own arithmetic, read from the model's
factor ``orders`` and ``cap``, which shares no code with this module.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

Word = tuple[int, ...]
IDENTITY: Word = ()


class ModelError(Exception):
    """Malformed model spec or invalid input to a model operation."""


class CapExceeded(ModelError):
    """A lazy model was asked to expand beyond its configured radius cap.

    Raised instead of silently truncating: infinite graphs must fail loudly.
    """


def parse_letters(text: str, names: Sequence[str]) -> Word:
    """Parse a human-typed element word.

    Lowercase letters are generators, uppercase or a trailing apostrophe
    marks an inverse: ``"abA"`` and ``"aba'"`` both mean a·b·a^-1.  A word
    with no apostrophe is read through one table of the names and their
    upper case, each entry made by the loop's own rule; anything else
    (an apostrophe, a letter outside the table) goes through the loop.
    """
    index = {name: i + 1 for i, name in enumerate(names)}
    if "'" not in text:
        table = {ch: (-1 if ch.isupper() else 1) * index[ch.lower()]
                 for name in names for ch in (name, name.upper()) if ch.lower() in index}
        try:
            return tuple([table[ch] for ch in text])
        except KeyError:
            pass
    raw: list[int] = []
    i = 0
    while i < len(text):
        ch = text[i]
        lower = ch.lower()
        if lower not in index:
            raise ModelError(f"unknown generator letter {ch!r} (expected one of {list(names)})")
        sign = -1 if ch.isupper() else 1
        if i + 1 < len(text) and text[i + 1] == "'":
            sign = -sign
            i += 1
        raw.append(sign * index[lower])
        i += 1
    return tuple(raw)


def common_prefix(x: Word, y: Word) -> int:
    """Length of the longest common prefix of two words.

    Compares slices, so the letters are matched at C speed: the first
    letter, then the whole shorter word, then a bisection in which each
    step compares only the half not yet known to match.
    """
    if len(x) > len(y):
        x, y = y, x
    n = len(x)
    if not n or x[0] != y[0]:
        return 0
    if x == y[:n]:
        return n
    lo, hi = 1, n  # x[:lo] == y[:lo], and they differ below hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if x[lo:mid] == y[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


class ActionModel:
    """A point space with exact distance and an isometric group action.

    Immutable after construction; all operations are pure.  Subclasses
    must provide canonical forms for group elements, the action, the
    vertex metric, and neighbor enumeration in a fixed total order
    (generator index, then sign), so the geodesic walk, which tries
    neighbours in that order, is deterministic.
    An infinite model also provides what an axis of a hyperbolic element
    needs: exact translation lengths and the axis rays.
    """

    kind: str = "abstract"
    is_tree = False
    order: Optional[int] = None  # size of the acting group; None when infinite
    generator_names: tuple[str, ...] = ()
    # Most points a ball, or an enumerated group, may hold: the largest the tests,
    # demos and benchmark build is 13,121 (radius 8 in F2); radius 10 in F2
    # (118,097) is refused.
    BALL_BUDGET = 100_000

    # -- group structure ------------------------------------------------

    def canon(self, word: Iterable[int]) -> Word:
        raise NotImplementedError

    def inverse(self, g: Word) -> Word:
        return self.canon(-l for l in reversed(g))

    def compose(self, x: Iterable[int], y: Iterable[int]) -> Word:
        return self.canon((*x, *y))

    def power(self, g: Word, n: int) -> Word:
        if n < 0:
            return self.power(self.inverse(g), -n)
        result: Word = IDENTITY
        while n:
            if n & 1:
                result = self.compose(result, g)
            n >>= 1
            if n:  # square only while bits remain
                g = self.compose(g, g)
        return result

    def generators(self) -> list[Word]:
        raise NotImplementedError

    def group_ball(self, radius: int) -> list[Word]:
        """All distinct group elements expressible as products of at most
        ``radius`` generators, in breadth-first canonical order."""
        gens = list(dict.fromkeys(w for g in self.generators() for w in (g, self.inverse(g))))
        return list(self._bfs(IDENTITY, lambda w: [self.compose(w, s) for s in gens], radius))

    def _bfs(self, start, successors, radius: int) -> dict:
        """{point: its BFS parent's place in this order} for everything within
        ``radius`` steps, in BFS order, the start's parent None; refuses to
        list more than BALL_BUDGET, so a huge ball fails fast instead of hanging."""
        parents = {start: None}
        frontier, first = [start], 0  # the frontier holds the places first, first + 1, ...
        for _ in range(radius):
            if not frontier:
                break  # the whole component is listed; a larger radius adds nothing
            nxt = []
            for place, p in enumerate(frontier, first):
                for q in successors(p):
                    if q not in parents:
                        if len(parents) == self.BALL_BUDGET:
                            raise ModelError(f"a ball of radius {radius} holds more than {self.BALL_BUDGET} points")
                        parents[q] = place
                        nxt.append(q)
            first += len(frontier)
            frontier = nxt
        return parents

    # -- action and metric ----------------------------------------------

    def apply(self, g: Word, x):
        raise NotImplementedError

    def distance(self, x, y) -> int:
        raise NotImplementedError

    def neighbors(self, x) -> list:
        raise NotImplementedError

    def basepoint(self):
        raise NotImplementedError

    def point_key(self, x):
        """Total order on points, used for deterministic tie-breaks."""
        raise NotImplementedError

    def ball(self, center, r: int) -> list:
        """Points at distance <= r from center, in BFS (canonical) order."""
        return list(self.ball_parents(center, r))

    def ball_parents(self, center, r: int) -> dict:
        """:meth:`ball` as {point: the place of its BFS parent in the ball}, center's None."""
        if r < 0:
            raise ModelError("ball radius must be >= 0")
        return self._bfs(center, self.neighbors, r)

    def geodesics(self, x, y) -> Iterator[list]:
        """Every geodesic from x to y, in the order of ``neighbors``.

        A depth-first walk steps to each neighbour one edge closer to y, as
        the exact metric decides, so each prefix is a geodesic from x.  It
        keeps its own stack of neighbour iterators, so a geodesic of any
        length costs no recursion, and a neighbour is measured only when
        the walk reaches it.
        """
        steps = self.distance(x, y)
        if not steps:
            yield [x]
            return
        path, stack = [x], [iter(self.neighbors(x))]
        while stack:
            left = steps - len(path)  # how far the next step lies from y
            for q in stack[-1]:
                if self.distance(q, y) == left:
                    break
            else:
                stack.pop()
                path.pop()
                continue
            if left:
                path.append(q)
                stack.append(iter(self.neighbors(q)))
            else:
                yield path + [q]

    def geodesic(self, x, y) -> list:
        """The first geodesic from x to y: at each step, the first neighbour closer to y."""
        return next(self.geodesics(x, y))

    # -- isometry structure ----------------------------------------------

    def exact_translation_length(self, g: Word) -> int:
        """Exact translation length of g.

        In a finite group every orbit is bounded, so every length is 0; an
        infinite model must give its own.
        """
        if self.order is None:
            raise NotImplementedError(f"{type(self).__name__} has no exact translation length")
        return 0

    def axis_rays(self, g: Word, n: int) -> tuple[Word, Word, Word]:
        """(p*, forward, backward): a hyperbolic g's axis base point and the
        two rays of its axis out of p*, each n translations long.  Only a
        tree model reads its axis off words, and it gives its own."""
        raise NotImplementedError(f"{type(self).__name__} has no axis rays")

    def spec_dict(self) -> dict:
        raise NotImplementedError


class CyclicFreeProductModel(ActionModel):
    """A free product of copies of Z and Z/2 on its Cayley graph, a tree.

    ``orders`` gives each factor: ``None`` for Z, ``2`` for Z/2.  Points and
    elements are words in the normal form of the free product (Lyndon and
    Schupp, Combinatorial Group Theory, IV.1): no letter next to its
    inverse, and an order-two generator is its own inverse, always written
    with the positive letter.  Each generator spans one edge per vertex
    (one for an involution, two for a Z factor), so the Cayley graph is a
    tree: distances and geodesics go through the longest common prefix.

    Every g splits as u * core * u^-1 with ``core`` cyclically reduced.  The
    core is the translation part: g translates its axis by len(core),
    unless the core is empty or a single involution, when g is elliptic.
    The axis passes through u.  Finite orders above 2 give a Cayley graph
    with cycles, where none of this holds, so they are refused.
    """

    is_tree = True

    def __init__(self, orders: Sequence[Optional[int]], names: Sequence[str], cap: int = 64):
        if cap < 1:
            raise ModelError("cap must be >= 1")
        if not orders:
            raise ModelError("rank must be >= 1")
        if any(o not in (None, 2) for o in orders):
            raise ModelError(f"factor orders must be None (Z) or 2 (Z/2), got {list(orders)}")
        if len(names) != len(orders):
            raise ModelError("one generator name per factor required")
        if 1 + sum(1 if o == 2 else 2 for o in orders) > self.BALL_BUDGET:
            raise ModelError(f"a ball of radius 1 holds more than {self.BALL_BUDGET} points")
        self.orders = tuple(orders)
        self.generator_names = tuple(names)
        self.cap = cap
        self.rank = len(orders)
        involutions = {i for i, o in enumerate(orders, start=1) if o == 2}
        # Each signed letter's normal-form letter, and each normal-form letter's inverse.
        self._letters = {
            s * i: (i if i in involutions else s * i) for i in range(1, self.rank + 1) for s in (1, -1)
        }
        self._inverse = {l: (l if l in involutions else -l) for l in self._letters.values()}
        # neighbor steps in generator order, positive letter first
        self._steps = tuple(dict.fromkeys(self._letters.values()))

    def _check_cap(self, w: Word) -> Word:
        if len(w) > self.cap:
            raise CapExceeded(f"word length {len(w)} exceeds expansion cap {self.cap}")
        return w

    def canon(self, word: Iterable[int]) -> Word:
        letters, inverse = self._letters, self._inverse
        out: list[int] = []
        for l in word:
            if l not in letters:
                raise ModelError(f"letter {l} out of range for rank {self.rank}")
            l = letters[l]
            if out and out[-1] == inverse[l]:
                out.pop()
            else:
                out.append(l)
        return tuple(out)

    def inverse(self, g: Word) -> Word:
        return tuple(map(self._inverse.__getitem__, reversed(g)))

    def _seam(self, w: Word, x: Word) -> int:
        """How many letters cancel where w meets x: the common prefix of w^-1
        and x.  w^-1 is built on ever longer tails of w, so a short seam
        costs a short inverse."""
        most, size = min(len(w), len(x)), 8
        while True:
            size = min(size, most)
            k = common_prefix(self.inverse(w[len(w) - size :]), x)
            if k < size or size == most:
                return k
            size *= 8

    def compose(self, x: Word, y: Word) -> Word:
        # Normal forms cancel only where they join (Lyndon-Schupp IV.1).
        if x and y and x[-1] == self._inverse[y[0]]:
            k = self._seam(x, y)
            return x[: len(x) - k] + y[k:]
        return x + y

    def generators(self) -> list[Word]:
        return [(i,) for i in range(1, self.rank + 1)]

    def apply(self, g: Word, x: Word) -> Word:
        w = self.compose(g, x)
        return w if len(w) <= self.cap else self._check_cap(w)

    def neighbors(self, x: Word) -> list[Word]:
        back = self._inverse[x[-1]] if x else None
        return [x[:-1] if l == back else self._check_cap(x + (l,)) for l in self._steps]

    def distance(self, x: Word, y: Word) -> int:
        if not x or not y or x[0] != y[0]:
            return len(x) + len(y)  # they part at the identity
        return len(x) + len(y) - 2 * common_prefix(x, y)

    def geodesic(self, x: Word, y: Word) -> list[Word]:
        # Unique in a tree: back up to the longest common prefix, then descend.
        k = common_prefix(x, y)
        return [x[:j] for j in range(len(x), k - 1, -1)] + [y[:j] for j in range(k + 1, len(y) + 1)]

    def geodesics(self, x: Word, y: Word) -> Iterator[list[Word]]:
        yield self.geodesic(x, y)  # a tree has exactly one

    def basepoint(self) -> Word:
        return IDENTITY

    def point_key(self, x: Word):
        return (len(x), x)

    def cyclic_split(self, g: Word) -> tuple[Word, Word]:
        """(u, core) with g = u * core * u^-1 and core cyclically reduced."""
        w = self.canon(g)
        k = 0
        while len(w) - 2 * k >= 2 and w[k] == self._inverse[w[-1 - k]]:
            k += 1
        return w[:k], w[k : len(w) - k]

    def exact_translation_length(self, g: Word) -> int:
        core = self.cyclic_split(g)[1]
        if len(core) == 1 and self._inverse[core[0]] == core[0]:
            return 0  # an involution flips an edge
        return len(core)

    def axis_rays(self, g: Word, n: int) -> tuple[Word, Word, Word]:
        # g = u * core * u^-1 moves u * core^k to u * core^(k+1), so the axis
        # point t steps from u is the first |u| + |t| letters of u * core^n
        # (t >= 0) or u * core^-n (t < 0).  The orbit point u * core^(+-k) has
        # |u| + k tau letters: the first past the cap is refused, as ``apply``
        # would refuse it, before a ray is formed.
        u, core = self.cyclic_split(g)
        if len(u) + n * len(core) > self.cap:
            k = max(1, (self.cap - len(u)) // len(core) + 1)
            raise CapExceeded(f"word length {len(u) + k * len(core)} exceeds expansion cap {self.cap}")
        return u, u + core * n, u + self.inverse(core) * n


class FreeGroupModel(CyclicFreeProductModel):
    """Free group of rank k on its 2k-regular Cayley tree."""

    kind = "free-group"

    def __init__(self, rank: int = 2, cap: int = 64):
        if 1 + 2 * rank > self.BALL_BUDGET:  # its radius-1 ball, refused before the rank-long tuples
            raise ModelError(f"a ball of radius 1 holds more than {self.BALL_BUDGET} points")
        super().__init__((None,) * rank, tuple(chr(ord("a") + i) for i in range(rank)), cap)

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "rank": self.rank, "cap": self.cap}


class FreeProductModel(CyclicFreeProductModel):
    """Z * Z/2 = <f> * <s | s^2>; s is an involution, so the tree has torsion."""

    kind = "free-product"

    def __init__(self, cap: int = 64):
        super().__init__((None, 2), ("f", "s"), cap)

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "cap": self.cap}


class CycleModel(ActionModel):
    """The n-cycle with its rotation group; points are vertex indices."""

    kind = "cycle"
    generator_names = ("r",)

    def __init__(self, n: int):
        if n < 3:
            raise ModelError("cycle needs n >= 3")
        self.n = n
        self.order = n

    def canon(self, word: Iterable[int]) -> Word:
        e = 0
        for l in word:
            if abs(l) != 1:
                raise ModelError("cycle model has a single rotation generator")
            e += 1 if l > 0 else -1
        return (1,) * (e % self.n)

    def generators(self) -> list[Word]:
        return [(1,)]

    def apply(self, g: Word, x: int) -> int:
        return (x + len(g)) % self.n

    def distance(self, x: int, y: int) -> int:
        d = abs(x - y) % self.n
        return min(d, self.n - d)

    def neighbors(self, x: int) -> list[int]:
        return [(x + 1) % self.n, (x - 1) % self.n]

    def basepoint(self) -> int:
        return 0

    def point_key(self, x: int):
        return x

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "n": self.n}


class ExplicitGraphModel(ActionModel):
    """A finite graph acted on by the group generated by given automorphisms.

    The full group is enumerated up front (it is a subgroup of Sym(V); one
    of more than BALL_BUDGET elements is refused), and each element's
    canonical form is the shortest, lexicographically least word over the
    generator alphabet producing its permutation.
    """

    kind = "explicit-graph"

    def __init__(self, adjacency: Sequence[Sequence[int]], generator_perms: Sequence[Sequence[int]] = ()):
        n = len(adjacency)
        adj = [sorted(set(row)) for row in adjacency]
        for v, row in enumerate(adj):
            for u in row:
                if not 0 <= u < n:
                    raise ModelError(f"vertex {u} out of range")
                if u == v:
                    raise ModelError("self-loops not allowed")
                if v not in adj[u]:
                    raise ModelError("adjacency is not symmetric")
        self.n = n
        self.adj = adj
        edges = {(v, u) for v, row in enumerate(adj) for u in row}

        perms = [tuple(p) for p in generator_perms]
        for p in perms:
            if sorted(p) != list(range(n)):
                raise ModelError("generator is not a permutation of the vertex set")
            if any((p[v], p[u]) not in edges for v, u in edges):
                raise ModelError("generator does not extend to a graph automorphism")
        self._perms = perms
        # Each letter's permutation, in generator order, positive letter first.
        self._letter_perms = {}
        for i, p in enumerate(perms, start=1):
            self._letter_perms[i] = p
            self._letter_perms[-i] = tuple(sorted(range(n), key=p.__getitem__))
        self.generator_names = tuple(chr(ord("a") + i) for i in range(len(perms)))
        self._canon_by_perm = self._enumerate_group()
        self._perm_by_canon = {word: perm for perm, word in self._canon_by_perm.items()}
        self.order = len(self._canon_by_perm)
        self._dist = self._all_pairs_distances()

    def _enumerate_group(self) -> dict[tuple[int, ...], Word]:
        identity = tuple(range(self.n))
        table = {identity: IDENTITY}
        frontier = [identity]
        while frontier:
            nxt = []
            for perm in frontier:
                base = table[perm]
                for letter, g in self._letter_perms.items():
                    comp = tuple(g[perm[v]] for v in range(self.n))
                    if comp not in table:
                        if len(table) == self.BALL_BUDGET:
                            raise ModelError(f"the generated group has more than {self.BALL_BUDGET} elements")
                        table[comp] = base + (letter,)
                        nxt.append(comp)
            frontier = nxt
        return table

    def _all_pairs_distances(self) -> list[list[int]]:
        """d(x, y) for every pair of vertices, -1 where they lie in different components."""
        rows = []
        for src in range(self.n):
            row, steps = [-1] * self.n, []  # steps: by place in the BFS, one past the parent's
            for v, parent in self._bfs(src, self.adj.__getitem__, self.n).items():
                steps.append(0 if parent is None else steps[parent] + 1)
                row[v] = steps[-1]
            rows.append(row)
        return rows

    def _perm_of(self, word: Iterable[int]) -> tuple[int, ...]:
        perm = range(self.n)
        for l in word:
            if l not in self._letter_perms:
                raise ModelError(f"letter {l} out of range")
            p = self._letter_perms[l]
            perm = [p[v] for v in perm]
        return tuple(perm)

    def canon(self, word: Iterable[int]) -> Word:
        return self._canon_by_perm[self._perm_of(word)]

    def generators(self) -> list[Word]:
        return [self.canon((i,)) for i in range(1, len(self._perms) + 1)]

    def group_ball(self, radius: int) -> list[Word]:
        elems = sorted(self._canon_by_perm.values(), key=lambda w: (len(w), w))
        return [w for w in elems if len(w) <= radius]

    def apply(self, g: Word, x: int) -> int:
        return self._perm_by_canon[g][x]

    def distance(self, x: int, y: int) -> int:
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ModelError("point outside the vertex set")
        d = self._dist[x][y]
        if d < 0:
            raise ModelError("points lie in different components")
        return d

    def neighbors(self, x: int) -> list[int]:
        return self.adj[x]

    def basepoint(self) -> int:
        return 0

    def point_key(self, x: int):
        return x

    def spec_dict(self) -> dict:
        return {
            "kind": self.kind,
            "adjacency": [list(row) for row in self.adj],
            "generators": [list(p) for p in self._perms],
        }


def check_int(value, what: str) -> int:
    """``value`` itself if it is an int (a bool is not), else a ModelError naming ``what``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    return value


def _int_rows(value, field: str) -> list:
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ModelError(f"model spec field {field!r} must be a list of lists")
    for row in value:
        for v in row:
            check_int(v, f"an entry of model spec field {field!r}")
    return value


def build_model(spec: dict) -> ActionModel:
    """Build and validate a model from a spec document.

    Spec fields: ``kind`` plus ``rank`` (free-group), ``n`` (cycle),
    ``adjacency`` and ``generators`` (explicit-graph), and optional ``cap``
    for the two free-product kinds, ``free-group`` (rank copies of Z) and
    ``free-product`` (Z * Z/2), which build a :class:`CyclicFreeProductModel`.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ModelError("model spec must be a mapping with a 'kind' field")
    kind = spec["kind"]
    cap = check_int(spec.get("cap", 64), "model spec field 'cap'")
    if kind == "free-group":
        model: ActionModel = FreeGroupModel(rank=check_int(spec.get("rank", 2), "model spec field 'rank'"), cap=cap)
    elif kind == "free-product":
        model = FreeProductModel(cap=cap)
    elif kind == "cycle":
        model = CycleModel(n=check_int(spec.get("n", 0), "model spec field 'n'"))
    elif kind == "explicit-graph":
        model = ExplicitGraphModel(
            _int_rows(spec.get("adjacency", []), "adjacency"), _int_rows(spec.get("generators", []), "generators")
        )
    else:
        raise ModelError(f"unsupported model kind {kind!r}")
    return model
