"""
Exact sparse arithmetic in the integer monoid algebra.

An element is a map from element id to a Python int (arbitrary precision),
with zero coefficients never stored. Every construction in the idempotent
machinery has integer coefficients, so no rationals are needed anywhere.

A product a*b is the sum of a_x * (x*b) over the support of a. Each left
translate x*b comes from s*b, for x = g*s on the monoid's left Cayley
tree, by one step y -> g*y along generator g's row, so products read only
the k generator rows. `RightFactor` keeps the translates of one b for
every product with that b on the right, built only for the x that the
left operands reach.

>>> from .families import build_free_lrb
>>> m = build_free_lrb(2)
>>> a, b = (basis(m, g) for g in m.generators)
>>> e = (one(m) - a) * (one(m) - b)
>>> e * e == e
True
"""

from __future__ import annotations

from .errors import StabilizationError
from .monoid import Monoid

__all__ = [
    "AlgebraElement", "zero", "one", "basis", "from_coeffs", "power_until_stable",
]


class AlgebraElement:
    """Sparse integer combination of monoid elements. Immutable by contract."""

    __slots__ = ("monoid", "coeffs")

    def __init__(self, monoid: Monoid, coeffs: dict[int, int]):
        self.monoid = monoid
        self.coeffs = {x: c for x, c in coeffs.items() if c}

    # -- queries -------------------------------------------------------------

    def coefficient(self, x: int) -> int:
        return self.coeffs.get(x, 0)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(element, coefficient) pairs in id order."""
        return sorted(self.coeffs.items())

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = _scalar(self.monoid, other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.monoid is other.monoid and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.monoid), tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "<0>"
        bits = [f"{c:+d}*[{x}]" for x, c in self.terms()]
        return "<" + " ".join(bits) + ">"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "AlgebraElement":
        if isinstance(other, int):
            return _scalar(self.monoid, other)
        if isinstance(other, AlgebraElement):
            if other.monoid is not self.monoid:
                raise ValueError("operands live over different monoids")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            out[x] = out.get(x, 0) + c
        return AlgebraElement(self.monoid, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.monoid, {x: -c for x, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for x, c in other.coeffs.items():
            out[x] = out.get(x, 0) - c
        return AlgebraElement(self.monoid, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, k: int) -> "AlgebraElement":
        if k == 0:
            return AlgebraElement(self.monoid, {})
        return AlgebraElement(self.monoid, {x: k * c for x, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RightFactor(other).left_mul(self)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = one(self.monoid)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result


class RightFactor:
    """A fixed right factor b with its left translates x*b, memoised per x.

    x*b is read off x's row when that row is already built. Otherwise it
    is g*(s*b) for x = g*s on the left Cayley tree (`Monoid._left_tree`):
    one step y -> g*y along g's row per term of s*b, with s*b memoised or
    found the same way. Terms that merge and cancel are dropped at once,
    so no translate stores a zero and a vanishing s*b ends its subtree.
    """

    __slots__ = ("monoid", "_memo")

    def __init__(self, b: AlgebraElement):
        self.monoid = b.monoid
        self._memo = {b.monoid.identity: b.coeffs}

    def translate(self, x: int) -> dict[int, int]:
        """x*b as an {element: coefficient} map; do not mutate it."""
        t = self._memo.get(x)
        if t is None:
            m = self.monoid
            r = m._cached_row(x)
            if r is None:
                return self._walk(x)
            t = self._memo[x] = _image(r, self._memo[m.identity])
        return t

    def _walk(self, x: int) -> dict[int, int]:
        """x*b along the left Cayley tree, memoising the path to x."""
        memo = self._memo
        _, parent, step_row = self.monoid._left_tree()
        path = [x]
        x = parent[x]
        while (t := memo.get(x)) is None:
            path.append(x)
            x = parent[x]
        for y in reversed(path):
            t = memo[y] = _image(step_row[y], t) if t else t
        return t

    def left_mul(self, a: AlgebraElement) -> AlgebraElement:
        """a*b, as the sum of a_x * (x*b) over the support of a."""
        if a.monoid is not self.monoid:
            raise ValueError("operands live over different monoids")
        m, memo = self.monoid, self._memo
        b = memo[m.identity].items()
        out: dict[int, int] = {}
        get = out.get
        for x, cx in a.coeffs.items():
            t = memo.get(x)
            if t is None:
                r = m._cached_row(x)
                if r is not None:
                    # One pass over the row, as over a memo entry. Going
                    # through `translate` would first build and store x*b,
                    # which a one-off product (every product once `verify`
                    # has built all rows) never reads again.
                    for y, c in b:
                        z = r[y]
                        out[z] = get(z, 0) + cx * c
                    continue
                t = self._walk(x)
            for z, c in t.items():
                out[z] = get(z, 0) + cx * c
        return AlgebraElement(m, out)


def _image(r: list[int], v: dict[int, int]) -> dict[int, int]:
    """The vector sum of c*[r[y]] over the terms c*[y] of v, zeros dropped."""
    out: dict[int, int] = {}
    get = out.get
    for y, c in v.items():
        z = r[y]
        out[z] = get(z, 0) + c
    if len(out) < len(v):
        return {z: c for z, c in out.items() if c}
    return out


def _scalar(m: Monoid, k: int) -> AlgebraElement:
    return AlgebraElement(m, {m.identity: k})


def zero(m: Monoid) -> AlgebraElement:
    return AlgebraElement(m, {})


def one(m: Monoid) -> AlgebraElement:
    return AlgebraElement(m, {m.identity: 1})


def basis(m: Monoid, x: int) -> AlgebraElement:
    return AlgebraElement(m, {x: 1})


def from_coeffs(m: Monoid, coeffs: dict[int, int]) -> AlgebraElement:
    return AlgebraElement(m, dict(coeffs))


def power_until_stable(a: AlgebraElement, cap: int) -> tuple[AlgebraElement, int]:
    """First power a^N with a^(N+1) = a^N, with the N found.

    Exact coefficients make equality the correct fixed-point test. Raises
    StabilizationError when no such N <= cap exists -- which is the expected
    outcome for elements like 1 - x with x of finite group order > 1.
    """
    times_a = RightFactor(a).left_mul
    p = a
    for n in range(1, cap + 1):
        q = times_a(p)
        if q == p:
            return p, n
        p = q
    raise StabilizationError(cap)
