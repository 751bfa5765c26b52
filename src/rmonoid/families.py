"""
Built-in monoid families and the JSON input format.

Four kinds of input are accepted:

    {"kind": "transformations", "degree": 3,
     "generators": [[0,2,2],[1,1,2]], "names": ["g1","g2"]}
    {"kind": "table", "table": [[0,1],[1,0]], "identity": 0,
     "generators": [1]}
    {"kind": "free_lrb", "k": 2}
    {"kind": "hecke_a", "n": 5}

plus an optional "cap" (element bound, default one million) everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import CapExceeded, ConsistencyError, SpecError
from .monoid import (DEFAULT_CAP, Monoid, Transformation, _closure,
                     _plain_ids, close, from_table)

__all__ = [
    "MonoidSpec", "parse_spec", "load",
    "build_free_lrb", "build_hecke_a",
]

KINDS = ("transformations", "table", "free_lrb", "hecke_a")


def build_free_lrb(k: int, names: list[str] | None = None,
                   cap: int = DEFAULT_CAP) -> Monoid:
    """The free left regular band on k generators.

    Elements are the words with distinct letters (the empty word is the
    identity); u*v appends the letters of v not already in u. Closed by BFS
    over those words, generator g sending u to u*g: the size is exactly
    sum over i of k!/(k-i)!, and ids run by length, then lexicographically.
    """
    if k < 1:
        raise SpecError("k", f"need k >= 1, got {k}")
    # the size, summed term by term: a huge k stops at a true lower bound
    size = term = 1
    for i in range(k, 0, -1):
        term *= i
        size += term
        if size > cap:
            raise CapExceeded(cap, size)
    return _closure((), k, lambda u, g: u if g in u else u + (g,), cap,
                    names)


def build_hecke_a(n: int, names: list[str] | None = None,
                  cap: int = DEFAULT_CAP) -> Monoid:
    """The 0-Hecke monoid of the symmetric group on n letters.

    An element is keyed by the permutation it makes of the identity, in
    one-line notation: generator i sends w to w*s_i (swapping positions i
    and i+1) when that adds an inversion and fixes w otherwise. That
    permutation determines the element, so the closure has exactly n!
    elements.
    """
    if n < 2:
        raise SpecError("n", f"need n >= 2, got {n}")
    size = 1                    # n!, stopping early like free_lrb's size
    for i in range(2, n + 1):
        size *= i
        if size > cap:
            raise CapExceeded(cap, size)

    def step(w, i):
        if w[i] < w[i + 1]:
            return w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        return w

    if names is None:
        names = [f"T{i}" for i in range(1, n)]
    m = _closure(tuple(range(n)), n - 1, step, cap, names)
    if m.size != size:
        raise ConsistencyError(
            f"0-Hecke closure produced {m.size} elements, expected {size}"
        )
    return m


@dataclass(frozen=True)
class MonoidSpec:
    """Validated description of a monoid input."""

    kind: str
    degree: int | None = None
    generators: tuple | None = None      # image tuples or table ids
    table: tuple | None = None
    identity: int | None = None
    k: int | None = None
    n: int | None = None
    names: tuple[str, ...] | None = None
    cap: int = DEFAULT_CAP


def _require(d: dict, field: str, typ, pred=None, why: str = ""):
    if field not in d:
        raise SpecError(field, "missing required field")
    v = d[field]
    if typ is int and isinstance(v, bool) or not isinstance(v, typ):
        raise SpecError(field, f"expected {typ.__name__}, got {type(v).__name__}")
    if pred is not None and not pred(v):
        raise SpecError(field, why or "invalid value")
    return v


def parse_spec(text: str | dict) -> MonoidSpec:
    """Parse and validate a JSON monoid description."""
    if isinstance(text, str):
        try:
            d = json.loads(text)
        except (ValueError, RecursionError) as err:  # long ints, deep nests
            raise SpecError("json", f"not valid JSON: {err}") from err
    else:
        d = text
    if not isinstance(d, dict):
        raise SpecError("json", "top level must be an object")
    kind = _require(d, "kind", str, lambda v: v in KINDS,
                    f"must be one of {', '.join(KINDS)}")
    cap = d.get("cap", DEFAULT_CAP)
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise SpecError("cap", "must be a positive integer")

    names = None
    if "names" in d:
        raw = d["names"]
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise SpecError("names", "must be a list of strings")
        if len(set(raw)) != len(raw):
            raise SpecError("names", "must be distinct")
        names = tuple(raw)

    if kind == "transformations":
        degree = _require(d, "degree", int, lambda v: v >= 1, "must be >= 1")
        gens = _require(d, "generators", list, lambda v: len(v) > 0,
                        "need at least one generator")
        images = []
        for i, g in enumerate(gens):
            if (not isinstance(g, list) or len(g) != degree
                    or not all(isinstance(x, int) and not isinstance(x, bool)
                               and 0 <= x < degree for x in g)):
                raise SpecError(
                    "generators",
                    f"generator {i} must be {degree} point indices in "
                    f"[0, {degree})",
                )
            images.append(tuple(g))
        if names is not None and len(names) != len(images):
            raise SpecError("names", "one name per generator required")
        return MonoidSpec(kind=kind, degree=degree,
                          generators=tuple(images), names=names, cap=cap)

    if kind == "table":
        table = _require(d, "table", list, lambda v: len(v) > 0, "empty table")
        nrows = len(table)
        rows = []
        for i, r in enumerate(table):
            if not isinstance(r, list) or len(r) != nrows \
                    or not _plain_ids(r, nrows):
                raise SpecError("table", f"row {i} must be {nrows} ids in "
                                         f"[0, {nrows})")
            rows.append(tuple(r))
        identity = d.get("identity", 0)
        if isinstance(identity, bool) or not isinstance(identity, int) \
                or not 0 <= identity < nrows:
            raise SpecError("identity", f"must be an id in [0, {nrows})")
        gen_ids = None
        if "generators" in d:
            raw = d["generators"]
            if not isinstance(raw, list) or not _plain_ids(raw, nrows):
                raise SpecError("generators", f"must be ids in [0, {nrows})")
            gen_ids = tuple(raw)
        return MonoidSpec(kind=kind, table=tuple(rows), identity=identity,
                          generators=gen_ids, names=names, cap=cap)

    if kind == "free_lrb":
        k = _require(d, "k", int, lambda v: v >= 1, "must be >= 1")
        return MonoidSpec(kind=kind, k=k, names=names, cap=cap)

    n = _require(d, "n", int, lambda v: v >= 2, "must be >= 2")
    return MonoidSpec(kind=kind, n=n, names=names, cap=cap)


def load(spec: MonoidSpec) -> Monoid:
    """Build the monoid a spec describes."""
    names = list(spec.names) if spec.names is not None else None
    if spec.kind == "transformations":
        return close([Transformation(g) for g in spec.generators],
                     cap=spec.cap, names=names)
    if spec.kind == "table":
        if len(spec.table) > spec.cap:
            raise CapExceeded(spec.cap, len(spec.table))
        return from_table(
            spec.table, identity=spec.identity,
            generators=list(spec.generators) if spec.generators is not None else None,
            names=names,
        )
    if spec.kind == "free_lrb":
        return build_free_lrb(spec.k, cap=spec.cap, names=names)
    return build_hecke_a(spec.n, cap=spec.cap, names=names)
