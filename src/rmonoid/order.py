"""
The weak preorder u <= v (some w has uw = v), R- and J-triviality.

u <= v is reachability in the right Cayley graph x -> x*g, and S*x is what
x reaches in the left one, x -> g*x. One Tarjan pass finds a graph's
strongly connected components and reachability bitmasks (bit y of `up[x]`
set when x <= y) in O(n*k) steps plus the mask ORs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .monoid import Monoid

__all__ = [
    "OrderRelation",
    "weak_preorder", "is_j_trivial", "check_left_absorption", "iter_bits",
]


def iter_bits(mask: int):
    """Yield the set bit positions of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class OrderRelation:
    """The weak preorder of a monoid.

    `chain_length` is the number of elements in a longest strictly
    increasing chain; it is None when the preorder is not a partial order
    (all stabilization bounds downstream assume R-triviality).
    """

    size: int
    up: list[int]                      # bitmask upsets, reflexive
    is_partial_order: bool
    witness: tuple[int, int] | None    # x != y with x <= y <= x, if any
    chain_length: int | None

    def leq(self, x: int, y: int) -> bool:
        return (self.up[x] >> y) & 1 == 1


def _reach(succ: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """Component, reachability bitmask and height per vertex of x -> succ[x].

    The height is the number of components on a longest path from the
    vertex. Iterative Tarjan emits sink components first, so the masks and
    heights of a component's successors are final when it is emitted.
    """
    n = len(succ)
    index, low, comp = [-1] * n, [0] * n, [-1] * n    # comp -1: on the stack
    masks: list[int] = []
    heights: list[int] = []
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter = counter + 1
        work = [(root, iter(succ[root]), len(stack))]
        stack.append(root)
        while work:
            v, edges, at = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter = counter + 1
                    work.append((w, iter(succ[w]), len(stack)))
                    stack.append(w)
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != index[v]:
                    continue
                c = len(masks)
                members = stack[at:]
                del stack[at:]
                mask = height = 0
                for w in members:
                    comp[w] = c
                    mask |= 1 << w
                for w in members:
                    for x in succ[w]:
                        if comp[x] != c:
                            mask |= masks[comp[x]]
                            height = max(height, heights[comp[x]])
                masks.append(mask)
                heights.append(height + 1)
    return comp, [masks[c] for c in comp], [heights[c] for c in comp]


def _left_graph(m: Monoid) -> list[list[int]]:
    """Successor lists of x -> g*x, read off the k generator rows."""
    rows = [m.row(g) for g in m.generators]
    return [[r[x] for r in rows] for x in range(m.size)]


def weak_preorder(m: Monoid) -> OrderRelation:
    """Compute u <= v as reachability in the right Cayley graph."""
    n, k = m.size, len(m.generators)
    comp, up, height = _reach(
        [[m.gen_step(x, gi) for gi in range(k)] for x in range(n)])
    sizes = Counter(comp)
    cyclic = [x for x in range(n) if sizes[comp[x]] > 1]
    witness = None
    if cyclic:
        # the smallest id in any cyclic component, and its component's next id
        x = cyclic[0]
        witness = (x, next(y for y in cyclic if y > x and comp[y] == comp[x]))
    return OrderRelation(
        size=n, up=up, is_partial_order=witness is None, witness=witness,
        chain_length=max(height) if witness is None else None,
    )


def is_j_trivial(m: Monoid, order: OrderRelation | None = None) -> bool:
    """True iff R-trivial and the left Cayley graph has only single-vertex
    components: J = R meet L in a finite monoid."""
    order = order if order is not None else weak_preorder(m)
    return (order.is_partial_order
            and len(set(_reach(_left_graph(m))[0])) == m.size)


def check_left_absorption(m: Monoid, order: OrderRelation | None = None):
    """Check that xyz = x forces xy = x, for all triples: (ok, the first
    violating (x, y, z) or None).

    xyz = x for some z is exactly xy <= x in the weak preorder, so the scan
    is O(n^2) over pairs instead of O(n^3) over triples; a violating z is
    recovered only when a counterexample exists. For an R-trivial monoid a
    violation is impossible, so one here means corrupted input upstream.
    """
    order = order if order is not None else weak_preorder(m)
    n = m.size
    for x in range(n):
        rx = m.row(x)
        for y in range(n):
            w = rx[y]
            if w != x and (order.up[w] >> x) & 1:
                z = m.row(w).index(x)
                return False, (x, y, z)
    return True, None
