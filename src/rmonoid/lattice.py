"""
The upper semilattice of idempotent-generated left ideals.

Nodes are the distinct ideals S*e over idempotents e, ordered by reverse
inclusion, with the join S*(ef)^omega, the content map C(x) = S*x^omega and
the descent map D(u) = C(e) for a maximal element e of {s : u*s = u}.
Construction reads only the k generator rows: S*e is reachability in the
left Cayley graph and products are word walks. The `verify` suite checks
that C(x) also equals {a : a*x = a}.

Construction refuses monoids that are not R-trivial: every theorem the
downstream idempotent machinery relies on assumes the preorder is a
partial order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, NotRTrivial
from .monoid import Monoid
from .order import (OrderRelation, _left_graph, _reach, iter_bits,
                    weak_preorder)
from .reporting import Report

__all__ = [
    "LatticeNode", "Semilattice", "build_semilattice",
    "verify_weak_order_axioms",
]


@dataclass(frozen=True)
class LatticeNode:
    node_id: int
    ideal: tuple[int, ...]     # sorted element ids of S*e
    witness: int               # an idempotent e with S*e == ideal


class Semilattice:
    """Nodes, order, join table and content/descent maps for one monoid."""

    def __init__(self, monoid: Monoid, order: OrderRelation,
                 nodes: list[LatticeNode], preceq_masks: list[int],
                 join: list[list[int]], content: list[int], bottom: int):
        self.monoid = monoid
        self.order = order
        self.nodes = nodes
        self._preceq = preceq_masks     # bit K of _preceq[J]: J preceq K
        self._join = join
        self._content = content        # node id per monoid element
        self.bottom = bottom
        self._descent: dict[int, int] = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def preceq(self, a: int, b: int) -> bool:
        return (self._preceq[a] >> b) & 1 == 1

    def strictly_above(self, a: int) -> list[int]:
        return [b for b in iter_bits(self._preceq[a]) if b != a]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def content(self, x: int) -> int:
        """Node id of C(x)."""
        return self._content[x]

    def descent(self, u: int) -> int:
        """Node id of D(u).

        Finds the maximal elements of the stabilizer {s : u*s = u}, checks
        they all share one content (the construction guarantees it), picks
        the smallest-id one, and returns its content node.
        """
        cached = self._descent.get(u)
        if cached is not None:
            return cached
        m, up = self.monoid, self.order.up
        row_u = m.row(u)
        stab = 0
        for s in range(m.size):
            if row_u[s] == u:
                stab |= 1 << s
        maximal = [s for s in iter_bits(stab) if up[s] & stab == 1 << s]
        if not maximal:
            raise ConsistencyError(f"stabilizer of element {u} has no maximal element")
        node_ids = {self._content[s] for s in maximal}
        if len(node_ids) != 1:
            raise ConsistencyError(
                f"descent of element {u} ill-defined: maximal stabilizer "
                f"elements have contents {sorted(node_ids)}"
            )
        e = maximal[0]
        if m.mult(e, e) != e:
            raise ConsistencyError(
                f"maximal stabilizer element {e} of {u} is not idempotent"
            )
        node = self._content[e]
        self._descent[u] = node
        return node

    def generator_label(self, a: int) -> tuple[int, ...]:
        """Positions of the generators g with C(g) preceq this node.

        Every node is the join of the generator contents below it, so these
        subsets identify nodes uniquely; for 0-Hecke monoids they are the
        usual subsets of simple generators.
        """
        m = self.monoid
        return tuple(
            gi for gi, g in enumerate(m.generators)
            if self.preceq(self._content[g], a)
        )


def build_semilattice(m: Monoid, order: OrderRelation | None = None) -> Semilattice:
    """Enumerate idempotent left ideals and assemble the semilattice.

    Joins computed as S*(ef)^omega are cross-checked against the poset
    least upper bound. No row beyond the k generator rows is materialized.
    """
    order = order if order is not None else weak_preorder(m)
    if not order.is_partial_order:
        raise NotRTrivial(order.witness)
    n = m.size

    # S*e is what e reaches in the left Cayley graph
    left_ideal = _reach(_left_graph(m))[1]
    nodes: list[LatticeNode] = []
    ideal_masks: list[int] = []
    mask_to_node: dict[int, int] = {}
    node_of_idem: dict[int, int] = {}
    for e in range(n):
        if m.mult(e, e) != e:
            continue
        mask = left_ideal[e]
        if mask not in mask_to_node:
            node_id = len(nodes)
            mask_to_node[mask] = node_id
            nodes.append(LatticeNode(
                node_id=node_id,
                ideal=tuple(iter_bits(mask)),
                witness=e,
            ))
            ideal_masks.append(mask)
        node_of_idem[e] = mask_to_node[mask]

    k = len(nodes)
    full_mask = (1 << n) - 1
    bottom = mask_to_node.get(full_mask)
    if bottom is None:
        raise ConsistencyError("no node for the whole monoid S*1")

    # reverse inclusion: a preceq b iff ideal(a) contains ideal(b)
    preceq_masks = [0] * k
    for a in range(k):
        pa = 0
        for b in range(k):
            if ideal_masks[a] | ideal_masks[b] == ideal_masks[a]:
                pa |= 1 << b
        preceq_masks[a] = pa

    # content: the node of S*x^omega
    content = [0] * n
    for x in range(n):
        xo = m.idempotent_power(x)
        node = node_of_idem.get(xo)
        if node is None:
            raise ConsistencyError(
                f"ideal of idempotent power {xo} is not a lattice node"
            )
        content[x] = node

    # join via S*(ef)^omega, cross-checked against the least upper bound
    join = [[0] * k for _ in range(k)]
    for a in range(k):
        ea = nodes[a].witness
        for b in range(k):
            j = content[m.mult(ea, nodes[b].witness)]
            ub = preceq_masks[a] & preceq_masks[b]
            if not (ub >> j) & 1 or preceq_masks[j] & ub != ub:
                raise ConsistencyError(
                    f"join mismatch at nodes ({a}, {b}): S*(ef)^omega gives "
                    f"{j}, which is not the least upper bound"
                )
            join[a][b] = j

    return Semilattice(
        monoid=m, order=order, nodes=nodes, preceq_masks=preceq_masks,
        join=join, content=content, bottom=bottom,
    )


def verify_weak_order_axioms(lat: Semilattice) -> Report:
    """Check the four content/descent axioms plus monotonicity of C.

    All pairs (u, v) are scanned:
      1. C(uv) = C(u) v C(v)               (C is a morphism)
      2. C is surjective onto the nodes
      3. uv <= u implies C(v) preceq D(u)
      4. C(v) preceq D(u) implies uv = u
    plus x <= y implies C(x) preceq C(y). Failures land in the report with
    the first counterexample, except that `descent` raises ConsistencyError
    when D(u) is ill-defined.
    """
    m, order = lat.monoid, lat.order
    n = m.size
    content = lat._content
    report = Report()

    bad = None
    for u in range(n):
        row_u = m.row(u)
        cu = content[u]
        for v in range(n):
            if content[row_u[v]] != lat.join(cu, content[v]):
                bad = (u, v)
                break
        if bad:
            break
    report.add("content_is_morphism", bad is None,
               bad and f"C(uv) != C(u) v C(v) at (u, v) = {bad}")

    covered = set(content)
    report.add("content_surjective", len(covered) == lat.n_nodes,
               f"nodes missed: {sorted(set(range(lat.n_nodes)) - covered)}")

    bad3 = bad4 = None
    for u in range(n):
        row_u = m.row(u)
        du = lat.descent(u)
        for v in range(n):
            if bad3 is None and order.leq(row_u[v], u) \
                    and not lat.preceq(content[v], du):
                bad3 = (u, v)
            if bad4 is None and lat.preceq(content[v], du) and row_u[v] != u:
                bad4 = (u, v)
            if bad3 and bad4:
                break
        if bad3 and bad4:
            break
    report.add("uv_below_u_implies_content_below_descent", bad3 is None,
               bad3 and f"counterexample (u, v) = {bad3}")
    report.add("content_below_descent_implies_uv_equals_u", bad4 is None,
               bad4 and f"counterexample (u, v) = {bad4}")

    mono = None
    for x in range(n):
        for y in iter_bits(order.up[x]):
            if not lat.preceq(content[x], content[y]):
                mono = (x, y)
                break
        if mono:
            break
    report.add("content_monotone", mono is None,
               mono and f"x <= y but C(x) not preceq C(y) at {mono}")
    return report
