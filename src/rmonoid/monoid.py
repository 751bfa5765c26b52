"""
Finite monoids with dense integer element ids.

Elements are handles `0..size-1`; id 0 is always the identity for monoids
built by closure (:func:`close` and the built-in families). Each element
carries the shortlex-least generator word that reaches it from the
identity, so ids, words and all downstream output are reproducible for a
fixed generator order.

>>> g1 = Transformation((0, 2, 2))
>>> g2 = Transformation((1, 1, 2))
>>> compose(g1, g2).images
(1, 2, 2)
>>> m = close([g1, g2])
>>> m.size
5
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .errors import CapExceeded, SpecError

__all__ = [
    "Transformation", "Monoid", "compose", "close", "from_table",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class Transformation:
    """A map on points 0..degree-1, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        for p, q in enumerate(self.images):
            if not (0 <= q < n):
                raise SpecError(
                    "images", f"entry {q} at point {p} outside [0, {n})"
                )

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Transformation":
        return cls(tuple(range(degree)))


def compose(s: Transformation, t: Transformation) -> Transformation:
    """Apply `s` first, then `t` (points act on the right).

    The result of a word read left to right is the composite of its letters
    in that order, so generator words multiply out like monoid products.

    >>> compose(Transformation((0, 2, 2)), Transformation((1, 1, 2))).images
    (1, 2, 2)
    """
    if s.degree != t.degree:
        raise SpecError("degree", f"mismatch: {s.degree} != {t.degree}")
    ti = t.images
    return Transformation(tuple(ti[p] for p in s.images))


class Monoid:
    """Immutable finite monoid over dense element ids.

    A monoid is its generator steps alone: `gen_step[x][i]` is the id of
    x*g_i, and every element is reached from the identity by them. Size,
    words and the fill order of rows come from one BFS tree of that right
    Cayley graph. Multiplication walks generator words along it, so it
    needs no table. Left translation y -> x*y steps along a BFS tree of
    the left Cayley graph y -> g*y instead, whose edges are the k
    generator rows (`_left_graph`, `_left_tree`). Full rows, which
    verification scans, are built lazily by `row` and cached. All queries
    are pure: the internal caches only ever receive values that are
    deterministic functions of the construction data, so concurrent
    readers see consistent results.
    """

    def __init__(self, *, identity, generators, gen_names, gen_step):
        self.identity = identity
        self.generators = list(generators)
        self.gen_names = list(gen_names)
        self._gen_step = gen_step          # per element: id of x * g_i
        # BFS tree: ids in discovery order, parent[x] and the generator
        # position used to reach x (None at the identity)
        self._order, self._parent, self._parent_gen = _id_tree(identity,
                                                               gen_step)
        self.size = len(self._order)
        self._rows: list[list[int] | None] = [None] * self.size
        self._words: list[tuple[int, ...] | None] = [None] * self.size
        self._idem_power: dict[int, int] = {}
        self._ltree = None

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Monoid(size={self.size}, generators={len(self.generators)})"

    # -- multiplication ----------------------------------------------------

    def gen_step(self, x: int, gi: int) -> int:
        """Product of element `x` with the `gi`-th generator."""
        return self._gen_step[x][gi]

    def row(self, x: int) -> list[int]:
        """The full row `y -> x*y`, cached after first use."""
        r = self._rows[x]
        if r is None:
            # x*(u*g) = (x*u)*g, filled in BFS discovery order so the
            # parent entry is always ready.
            r = [0] * self.size
            r[self.identity] = x
            step, par, pgen = self._gen_step, self._parent, self._parent_gen
            for y in islice(self._order, 1, None):
                r[y] = step[r[par[y]]][pgen[y]]
            self._rows[x] = r
        return r

    def _cached_row(self, x: int) -> list[int] | None:
        """The row of `x` if it is already built, else None."""
        return self._rows[x]

    def _left_graph(self) -> list[list[int]]:
        """Per element y, the products g*y over the generators in input
        order: the left Cayley graph, read off the k generator rows."""
        rows = [self.row(g) for g in self.generators]
        return [[r[y] for r in rows] for y in range(self.size)]

    def _left_tree(self) -> tuple[list[int], list[int | None],
                                  list[list[int] | None]]:
        """(order, parent, step_row) of a BFS tree of `_left_graph` from the
        identity: x = g*parent[x], with step_row[x] the row of that
        generator g, and every element listed in `order` after its parent.

        Built once, in O(n*k); parent and step_row are None at the identity.
        """
        if self._ltree is None:
            order, parent, gen = _id_tree(self.identity, self._left_graph())
            rows = [self.row(g) for g in self.generators]
            self._ltree = (order, parent, [None if gi is None else rows[gi]
                                           for gi in gen])
        return self._ltree

    def mult(self, x: int, y: int) -> int:
        """x*y, walking y's generator word from x: O(|word(y)|), no row."""
        step = self._gen_step
        for gi in self.word(y):
            x = step[x][gi]
        return x

    def table(self) -> list[list[int]]:
        """The complete multiplication table (forces every row)."""
        return [list(self.row(x)) for x in range(self.size)]

    # -- words --------------------------------------------------------------

    def word(self, x: int) -> tuple[int, ...]:
        """Shortlex-least generator word for `x` (positions into `generators`)."""
        w = self._words[x]
        if w is None:
            rev = []
            y = x
            while self._parent[y] is not None:
                rev.append(self._parent_gen[y])
                y = self._parent[y]
            w = tuple(reversed(rev))
            self._words[x] = w
        return w

    def eval_word(self, word) -> int:
        """Multiply out a sequence of generator positions, left to right."""
        x = self.identity
        for gi in word:
            x = self._gen_step[x][gi]
        return x

    # -- element structure ---------------------------------------------------

    def idempotent_power(self, x: int) -> int:
        """The unique idempotent among the powers of `x`.

        Iterates x, x^2, ... until the power sequence cycles, then picks the
        single idempotent on the cycle. Always exists in a finite monoid.
        """
        cached = self._idem_power.get(x)
        if cached is not None:
            return cached
        seen = {x: 1}
        seq = [x]
        y = x
        k = 1
        while True:
            y = self.mult(y, x)
            k += 1
            if y in seen:
                first = seen[y]
                period = k - first
                break
            seen[y] = k
            seq.append(y)
        # exponents first..first+period-1 repeat forever; the idempotent is
        # the power whose exponent is divisible by the period
        exp = first + (-first) % period
        result = seq[exp - 1]
        self._idem_power[x] = result
        return result


def _bfs_build(identity_key, k, step, cap) -> list[list[int]]:
    """Generic closure by BFS over right multiplication by k generators.

    `step(key, gi)` produces the canonical key of `key * g_i`. Returns the
    generator steps over ids in discovery order (the identity is id 0).
    Raises CapExceeded as soon as the element count passes `cap`.
    """
    index = {identity_key: 0}
    keys = [identity_key]
    gen_step = []
    for key in keys:
        r = []
        for gi in range(k):
            nk = step(key, gi)
            nid = index.get(nk)
            if nid is None:
                nid = len(keys)
                if nid >= cap:
                    raise CapExceeded(cap, nid + 1)
                index[nk] = nid
                keys.append(nk)
            r.append(nid)
        gen_step.append(r)
    return gen_step


def _id_tree(root: int, succ: list[list[int]]):
    """BFS over ids from `root` along the edges x -> succ[x][i].

    Returns the ids in discovery order and, per id, its tree parent and
    the position i of the edge that reached it (None at the root and at
    ids never reached).
    """
    n = len(succ)
    parent: list[int | None] = [None] * n
    edge: list[int | None] = [None] * n
    seen = [False] * n
    seen[root] = True
    queue = [root]
    for x in queue:
        for i, y in enumerate(succ[x]):
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                edge[y] = i
                queue.append(y)
    return queue, parent, edge


def _closure(identity_key, k, step, cap, names) -> Monoid:
    """The monoid generated by k generators acting on canonical keys.

    `step(key, gi)` is the key of `key * g_i` and must determine the
    element, so distinct keys are distinct elements. Ids follow BFS
    discovery from the identity (id 0), and generator i is the element
    1*g_i.
    """
    if names is not None and len(names) != k:
        raise SpecError("names", "one name per generator required")
    gen_step = _bfs_build(identity_key, k, step, cap)
    return Monoid(
        identity=0,
        generators=gen_step[0],
        gen_names=names or [f"g{i}" for i in range(k)],
        gen_step=gen_step,
    )


def close(generators: list[Transformation], cap: int = DEFAULT_CAP,
          names: list[str] | None = None) -> Monoid:
    """Close a set of transformations under composition.

    BFS from the identity, appending products element*generator in generator
    order, canonicalizing by image tuple. Element 0 is the identity and
    every element's stored word is its shortlex-first discovery word.
    """
    if not generators:
        raise SpecError("generators", "need at least one generator")
    degree = generators[0].degree
    for i, g in enumerate(generators):
        if g.degree != degree:
            raise SpecError(
                "generators", f"generator {i} has degree {g.degree} != {degree}"
            )
    gen_images = [g.images for g in generators]

    def step(key, gi):
        gimg = gen_images[gi]
        return tuple(gimg[p] for p in key)

    return _closure(tuple(range(degree)), len(generators), step, cap, names)


def _plain_ids(values, bound: int) -> bool:
    """True when every value has type int (not bool) and lies in
    [0, bound), checked at C speed."""
    return set(map(type, values)) <= {int} and (
        not values or (min(values) >= 0 and max(values) < bound))


def from_table(table: list[list[int]], identity: int = 0,
               generators: list[int] | None = None,
               names: list[str] | None = None) -> Monoid:
    """Wrap an explicit multiplication table as a Monoid.

    Checks the entries, the identity axiom, that the generators reach
    every element from the identity (words are assigned by BFS) and then
    associativity, by Light's test. The monoid keeps only the generator
    columns of the table; rows are rebuilt from them on request.
    """
    n = len(table)
    if n == 0:
        raise SpecError("table", "empty table")
    for i, r in enumerate(table):
        if len(r) != n:
            raise SpecError("table", f"row {i} has length {len(r)}, expected {n}")
        if _plain_ids(r, n):
            continue
        for j, v in enumerate(r):
            if not isinstance(v, int) or not (0 <= v < n):
                raise SpecError("table", f"entry [{i}][{j}] = {v!r} outside [0, {n})")
    if not (0 <= identity < n):
        raise SpecError("identity", f"{identity} outside [0, {n})")
    for x in range(n):
        if table[identity][x] != x or table[x][identity] != x:
            raise SpecError("identity", f"identity axiom fails at element {x}")

    if generators is None:
        generators = [x for x in range(n) if x != identity]
    for g in generators:
        if not (0 <= g < n):
            raise SpecError("generators", f"generator id {g} outside [0, {n})")
    if names is not None and len(names) != len(generators):
        raise SpecError("names", "one name per generator required")

    # element ids stay the table's row indices
    m = Monoid(
        identity=identity,
        generators=generators,
        gen_names=names or [f"g{i}" for i in range(len(generators))],
        gen_step=[[table[x][g] for g in generators] for x in range(n)],
    )
    if m.size != n:
        raise SpecError(
            "generators",
            f"generators only reach {m.size} of {n} elements",
        )
    _light_test(table, identity, generators)
    return m


def _light_test(table: list[list[int]], identity: int,
                generators: list[int]) -> None:
    """Raise SpecError unless the table, which has an identity and is
    generated by `generators`, is associative.

    Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
    I, 1961, section 1.2) checks (x*y)*g = x*(y*g) for all x, y and each g
    in G': the generators in order, skipping any already reached from the
    identity by those kept before it. If it passes, then by induction on
    z's word over G', (x*y)*z = x*(y*z) for each z in the set R that G'
    reaches. R is closed under products, as r*(s*g) = (r*s)*g, and holds
    every skipped generator, so R is everything the generators reach: the
    whole table. A failing (x, y, g) is itself a triple where associativity
    fails. Costs n^2*|G'|, after O(n*|G|) to find G'.
    """
    n = len(table)
    seen = [False] * n
    seen[identity] = True
    reached = [identity]
    kept: list[int] = []
    for g in generators:
        if seen[g]:
            continue
        kept.append(g)
        # close under the kept generators: the new one on every element
        # reached so far, all of them on each element reached from now on
        old = len(reached)
        for i, x in enumerate(reached):
            tx = table[x]
            for h in (kept if i >= old else (g,)):
                y = tx[h]
                if not seen[y]:
                    seen[y] = True
                    reached.append(y)

    right = [[r[g] for r in table] for g in kept]      # y -> y*g
    times = [itemgetter(*rg) for rg in right]          # t -> [t[y*g] for y]
    for x, tx in enumerate(table):
        x_times = itemgetter(*tx)                      # t -> [t[x*y] for y]
        for g, rg, t in zip(kept, right, times):
            if x_times(rg) != t(tx):
                y = next(y for y in range(n) if rg[tx[y]] != tx[rg[y]])
                raise SpecError(
                    "table", f"associativity fails at triple ({x}, {y}, {g})"
                )
