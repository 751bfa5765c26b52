"""
The upper semilattice of idempotent-generated left ideals.

Nodes are the distinct ideals S*e over idempotents e, ordered by reverse
inclusion, with the join S*(ef)^omega, the content map C(x) = S*x^omega and
the descent map D(u) = C(e) for a maximal element e of {s : u*s = u}.

In an R-trivial monoid u*v = u iff u*g = u for every letter g of v, since
u <= u*g1 <= ... <= u*v. So everything here comes from the generator
steps, with no row and no per-element set:
  - e*g^omega = e iff e*g = e, so C(g) preceq C(e) iff e*g = e. The label
    of an idempotent, the set of generators that fix it, determines its
    node, and J preceq K is inclusion of labels;
  - C is a morphism, so C(x*g) = C(x) v C(g) along the BFS tree of the
    right Cayley graph, and the nodes are the joins of C(1) and the
    C(g^omega);
  - D(u) is the join of C(g) over the generators g with u*g = u, and
    |S*e| = #{a : C(e) preceq D(a)}.
The `verify` suite checks these against the definitions: S*e by search in
the left Cayley graph, {a : a*x = a} off the rows, and D(u) as the
content of a maximal element of the stabilizer.

Construction refuses monoids that are not R-trivial: every theorem the
downstream idempotent machinery relies on assumes the preorder is a
partial order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ConsistencyError, NotRTrivial
from .monoid import Monoid
from .order import OrderRelation, iter_bits, weak_preorder
from .reporting import Report

__all__ = [
    "LatticeNode", "Semilattice", "build_semilattice",
    "verify_weak_order_axioms",
]


@dataclass(frozen=True)
class LatticeNode:
    node_id: int
    ideal_size: int            # |S*e|
    witness: int               # the first idempotent e, by id, of this node


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
        """Node id of D(u): the join of C(g) over the generators g with
        u*g = u. `verify_weak_order_axioms` checks it against a maximal
        element of the stabilizer."""
        m, join, content = self.monoid, self._join, self._content
        node = self.bottom
        for g, ug in zip(m.generators, m._gen_step[u]):
            if ug == u:
                node = join[node][content[g]]
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


def _fixed(step: list[int], x: int) -> int:
    """Bit i set when x*g_i = x, given x's generator steps."""
    mask = 0
    for i, y in enumerate(step):
        if y == x:
            mask |= 1 << i
    return mask


def build_semilattice(m: Monoid, order: OrderRelation | None = None) -> Semilattice:
    """Find the nodes, content, joins and ideal sizes from the generator
    steps: O(n*k) steps, plus word walks, k per node to find the nodes and
    one per pair of nodes for the join table.

    Node ids follow the first idempotent of each content in id order, and
    that idempotent is the node's witness. Joins computed as
    C(ef) = S*(ef)^omega are cross-checked against the least upper bound
    of the label order. No row of the multiplication table is built.
    """
    order = order if order is not None else weak_preorder(m)
    if not order.is_partial_order:
        raise NotRTrivial(order.witness)
    n = m.size
    fixed = list(map(_fixed, m._gen_step, range(n)))

    # the nodes as labels, each reached from C(1) by joining generator
    # contents; gen_join[label][l] is the label of that node joined with
    # C(g), for any generator g whose content has label l
    gen_idem = [m.idempotent_power(g) for g in m.generators]
    gen_label = [fixed[go] for go in gen_idem]
    gen_rep = dict(zip(gen_label, gen_idem))
    idem_of = {fixed[m.identity]: m.identity}
    labels = [fixed[m.identity]]
    gen_join: dict[int, dict[int, int]] = {}
    for label in labels:
        joins = gen_join[label] = {}
        for gl, go in gen_rep.items():
            w = m.idempotent_power(m.mult(idem_of[label], go))
            j = joins[gl] = fixed[w]
            if j not in idem_of:
                idem_of[j] = w
                labels.append(j)

    # content along the BFS tree: C(x) = C(parent) v C(g)
    content = [0] * n
    content[m.identity] = labels[0]
    parent, pgen = m._parent, m._parent_gen
    for x in m._order[1:]:
        content[x] = gen_join[content[parent[x]]][gen_label[pgen[x]]]

    # ids and witnesses: the first idempotent of each content, by id; x is
    # idempotent iff x*g = x for every letter g of x, and the letters of x
    # lie below C(x), so iff its label lies in fixed[x]
    node_of: dict[int, int] = {}
    witnesses: list[int] = []
    for x in range(n):
        label = content[x]
        if label not in node_of and label & ~fixed[x] == 0:
            node_of[label] = len(witnesses)
            witnesses.append(x)
            if len(witnesses) == len(labels):
                break
    if len(witnesses) != len(labels):
        raise ConsistencyError("a join of generator contents has no "
                               "idempotent of that content")
    k = len(labels)
    label_of = list(node_of)            # labels in node id order
    content = [node_of[c] for c in content]

    # reverse inclusion of ideals is inclusion of labels
    preceq_masks = [0] * k
    for a, la in enumerate(label_of):
        preceq_masks[a] = sum(1 << b for b, lb in enumerate(label_of)
                              if la & lb == la)

    # join via S*(ef)^omega, cross-checked against the least upper bound
    join = [[0] * k for _ in range(k)]
    for a in range(k):
        ea = witnesses[a]
        for b in range(k):
            j = content[m.mult(ea, witnesses[b])]
            ub = preceq_masks[a] & preceq_masks[b]
            if not (ub >> j) & 1 or preceq_masks[j] & ub != ub:
                raise ConsistencyError(
                    f"join mismatch at nodes ({a}, {b}): S*(ef)^omega gives "
                    f"{j}, which is not the least upper bound"
                )
            join[a][b] = j

    # |S*e| = #{a : C(e) preceq D(a)}, D(a) the join of C(g) over the
    # generators that fix a
    gen_content = [content[g] for g in m.generators]
    at_descent = Counter()
    for mask, count in Counter(fixed).items():
        d = content[m.identity]
        for i in iter_bits(mask):
            d = join[d][gen_content[i]]
        at_descent[d] += count
    nodes = [
        LatticeNode(node_id=a, witness=witnesses[a], ideal_size=sum(
            at_descent[d] for d in iter_bits(preceq_masks[a])))
        for a in range(k)
    ]
    return Semilattice(
        monoid=m, order=order, nodes=nodes, preceq_masks=preceq_masks,
        join=join, content=content, bottom=content[m.identity],
    )


def _stabilizer_descent(lat: Semilattice, u: int, row_u: list[int]) -> int:
    """D(u) by its definition: the content of a maximal element of the
    stabilizer {s : u*s = u}. Raises ConsistencyError when the maximal
    elements disagree in content or the one taken is not idempotent."""
    m, up, content = lat.monoid, lat.order.up, lat._content
    stab = 0
    for s, us in enumerate(row_u):
        if us == u:
            stab |= 1 << s
    maximal = [s for s in iter_bits(stab) if up[s] & stab == 1 << s]
    if not maximal:
        raise ConsistencyError(f"stabilizer of element {u} has no maximal element")
    node_ids = {content[s] for s in maximal}
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
    return content[e]


def verify_weak_order_axioms(lat: Semilattice) -> Report:
    """Check the four content/descent axioms plus monotonicity of C.

    All pairs (u, v) are scanned:
      1. C(uv) = C(u) v C(v)               (C is a morphism)
      2. C is surjective onto the nodes
      3. uv <= u implies C(v) preceq D(u)
      4. C(v) preceq D(u) implies uv = u
    plus x <= y implies C(x) preceq C(y). Failures land in the report with
    the first counterexample. D(u) from the generator steps must equal the
    content of a maximal element of u's stabilizer; ConsistencyError is
    raised when it does not, or when that definition is ill-defined.
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
        du, by_stabilizer = lat.descent(u), _stabilizer_descent(lat, u, row_u)
        if by_stabilizer != du:
            raise ConsistencyError(
                f"descent of element {u}: generator steps give node {du}, "
                f"a maximal stabilizer element node {by_stabilizer}"
            )
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
