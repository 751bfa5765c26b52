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

from .errors import CapExceeded, SpecError

__all__ = [
    "Transformation", "Monoid", "compose", "close", "from_table",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 1_000_000

# Exhaustive associativity checking is O(n^3); beyond this bound a table is
# accepted unverified and the monoid is flagged.
ASSOC_CHECK_BOUND = 256


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

    Multiplication walks generator words along the right Cayley graph, so
    it needs no table; full rows, which verification scans, are built
    lazily by `row` and cached. All queries are pure: the internal caches
    only ever receive values that are deterministic functions of the
    construction data, so concurrent readers see consistent results.
    """

    def __init__(self, *, size, identity, generators, gen_names, gen_step,
                 parent, parent_gen, table=None, associativity_verified=True):
        self.size = size
        self.identity = identity
        self.generators = list(generators)
        self.gen_names = list(gen_names)
        self._gen_step = gen_step          # per element: id of x * g_i
        self._parent = parent              # BFS tree: parent[x], None at identity
        self._parent_gen = parent_gen      # generator position used to reach x
        self._rows = table if table is not None else [None] * size
        self._words: list[tuple[int, ...] | None] = [None] * size
        self._idem_power: dict[int, int] = {}
        self.associativity_verified = associativity_verified

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
            for y in range(self.size):
                if par[y] is not None:
                    r[y] = step[r[par[y]]][pgen[y]]
            self._rows[x] = r
        return r

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


def _bfs_build(identity_key, k, step, cap):
    """Generic closure by BFS over right multiplication by k generators.

    `step(key, gi)` produces the canonical key of `key * g_i`. Returns the
    keys in discovery order plus BFS tree arrays. Raises CapExceeded as
    soon as the element count passes `cap`.
    """
    index = {identity_key: 0}
    keys = [identity_key]
    parent = [None]
    parent_gen = [None]
    gen_step = []
    pos = 0
    while pos < len(keys):
        key = keys[pos]
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
                parent.append(pos)
                parent_gen.append(gi)
            r.append(nid)
        gen_step.append(r)
        pos += 1
    return keys, parent, parent_gen, gen_step


def _closure(identity_key, k, step, cap, names) -> Monoid:
    """The monoid generated by k generators acting on canonical keys.

    `step(key, gi)` is the key of `key * g_i` and must determine the
    element, so distinct keys are distinct elements. Ids follow BFS
    discovery from the identity (id 0), and generator i is the element
    1*g_i.
    """
    if names is not None and len(names) != k:
        raise SpecError("names", "one name per generator required")
    keys, parent, parent_gen, gen_step = _bfs_build(identity_key, k, step, cap)
    return Monoid(
        size=len(keys),
        identity=0,
        generators=gen_step[0],
        gen_names=names or [f"g{i}" for i in range(k)],
        gen_step=gen_step,
        parent=parent,
        parent_gen=parent_gen,
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


def from_table(table: list[list[int]], identity: int = 0,
               generators: list[int] | None = None,
               names: list[str] | None = None,
               assoc_check_bound: int = ASSOC_CHECK_BOUND) -> Monoid:
    """Wrap an explicit multiplication table as a Monoid.

    The identity axiom is always checked. Associativity is checked
    exhaustively for sizes up to `assoc_check_bound`; larger tables are
    accepted with `associativity_verified=False`. The generators must reach
    every element from the identity, since words are assigned by BFS.
    """
    n = len(table)
    if n == 0:
        raise SpecError("table", "empty table")
    for i, r in enumerate(table):
        if len(r) != n:
            raise SpecError("table", f"row {i} has length {len(r)}, expected {n}")
        for j, v in enumerate(r):
            if not isinstance(v, int) or not (0 <= v < n):
                raise SpecError("table", f"entry [{i}][{j}] = {v!r} outside [0, {n})")
    if not (0 <= identity < n):
        raise SpecError("identity", f"{identity} outside [0, {n})")
    for x in range(n):
        if table[identity][x] != x or table[x][identity] != x:
            raise SpecError("identity", f"identity axiom fails at element {x}")

    verified = n <= assoc_check_bound
    if verified:
        for x in range(n):
            tx = table[x]
            for y in range(n):
                txy = table[tx[y]]
                ty = table[y]
                for z in range(n):
                    if txy[z] != tx[ty[z]]:
                        raise SpecError(
                            "table",
                            f"associativity fails at triple ({x}, {y}, {z})",
                        )

    if generators is None:
        generators = [x for x in range(n) if x != identity]
    for g in generators:
        if not (0 <= g < n):
            raise SpecError("generators", f"generator id {g} outside [0, {n})")
    if names is not None and len(names) != len(generators):
        raise SpecError("names", "one name per generator required")

    # BFS for words / reachability, reusing the table for steps
    keys, parent, parent_gen, _ = _bfs_build(
        identity, len(generators), lambda key, gi: table[key][generators[gi]],
        n + 1
    )
    if len(keys) != n:
        raise SpecError(
            "generators",
            f"generators only reach {len(keys)} of {n} elements",
        )
    # element ids must stay the table's row indices: remap BFS data
    parent_by_id = [None] * n
    parent_gen_by_id = [None] * n
    for bfs_pos, elt in enumerate(keys):
        parent_by_id[elt] = None if parent[bfs_pos] is None else keys[parent[bfs_pos]]
        parent_gen_by_id[elt] = parent_gen[bfs_pos]
    gen_step = [[table[x][g] for g in generators] for x in range(n)]

    return Monoid(
        size=n,
        identity=identity,
        generators=list(generators),
        gen_names=names or [f"g{i}" for i in range(len(generators))],
        gen_step=gen_step,
        parent=parent_by_id,
        parent_gen=parent_gen_by_id,
        table=[list(r) for r in table],
        associativity_verified=verified,
    )
