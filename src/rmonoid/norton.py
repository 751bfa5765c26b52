"""
The recursive system of primitive orthogonal idempotents.

For each node J of the support semilattice:

    T_J = (prod of g^omega over generators g with C(g) preceq J)^omega
    B_J = prod of (1 - g^omega) over the remaining generators
    A_J = the stable power of B_J
    z_J = A_J * T_J
    P_J = sum of (k+1) (1-z_J)^k z_J^2 over k < N, N least with (1-z_J)^N z_J^2 = 0
    e_J = P_J * (1 - sum of e_K over K strictly above J)

All products are taken in exactly this written order and generators in
their fixed input order; the monoid is noncommutative and the outputs are
only reproducible with the order pinned. For J-trivial monoids the cheaper
P_J = sum of (1-z_J)^k z_J over k < N, N least with (1-z_J)^N z_J = 0,
yields the same system. Both sums equal the paper's closed forms, which
`verify` recomputes. Construction only computes: `verify_system` checks
that P_J and e_J are idempotent and that z_J, P_J and e_J have unit
leading terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (AlgebraElement, basis, one, power_until_stable,
                      right_multiplier, zero)
from .errors import ConsistencyError
from .lattice import Semilattice
from .order import is_j_trivial
from .reporting import Report

__all__ = [
    "NortonData", "IdempotentSystem", "node_data", "e_system", "verify_system",
]

MODES = ("general", "jtrivial", "auto")


@dataclass
class NortonData:
    node_id: int
    T: int                      # idempotent monoid element with content J
    B: AlgebraElement
    A: AlgebraElement
    z: AlgebraElement
    P: AlgebraElement
    e: AlgebraElement
    N_B: int                    # stabilization exponent of B
    N_z: int                    # exponent used to close off P


@dataclass
class IdempotentSystem:
    data: list[NortonData]          # indexed by node id
    mode_used: str
    verification: Report | None = field(default=None)


def _resolve_mode(lat: Semilattice, mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        return "jtrivial" if is_j_trivial(lat.monoid, lat.order) else "general"
    return mode


def _leading_term_fault(lat: Semilattice, elem: AlgebraElement, T: int,
                        J: int, what: str) -> str | None:
    """Why elem lacks coefficient 1 at T with every other term strictly
    above J, or None when it has them. The lowest-id bad term is named,
    whatever order the product that built elem stored its terms in."""
    if elem.coefficient(T) != 1:
        return f"coefficient of T in {what} at node {J} is {elem.coefficient(T)}"
    for y in elem.support():
        if y != T:
            cy = lat.content(y)
            if cy == J or not lat.preceq(J, cy):
                return (f"term {y} of {what} at node {J} has content {cy}, "
                        f"not strictly above {J}")
    return None


def _vanishing_sum(z: AlgebraElement, tail: AlgebraElement, weighted: bool,
                   cap: int) -> tuple[int, AlgebraElement]:
    """Least N with (1-z)^N * tail = 0, and the sum over k < N of
    c_k (1-z)^k * tail, with c_k = k+1 when weighted and 1 otherwise."""
    w = one(z.monoid) - z
    acc = tail
    total = zero(z.monoid)
    for n in range(cap + 1):
        if acc.is_zero():
            return n, total
        total = total + (acc.scale(n + 1) if weighted else acc)
        acc = w * acc
    raise ConsistencyError(
        f"no exponent <= {cap} makes (1-z)^N * tail vanish; "
        f"the monoid may not satisfy the assumed triviality"
    )


def node_data(lat: Semilattice, J: int, mode: str = "general") -> NortonData:
    """T_J, B_J, A_J, z_J and P_J of one node, in that order.

    mode 'general' works for every R-trivial monoid; 'jtrivial' uses the
    shorter formula for P valid for J-trivial monoids; 'auto' picks by
    testing J-triviality. The e field starts out as P; e_system overwrites
    it. Only the content of T_J, g^omega A_J = 0 and the vanishing cap
    raise here; verify_system's `idempotent` and
    `nonzero_with_unit_leading_term` check P_J and z_J.
    """
    mode = _resolve_mode(lat, mode)
    m = lat.monoid
    cap = (lat.order.chain_length or m.size) + 2
    # generators split by whether C(g) preceq J, input order kept
    inside, outside = [], []
    for g in m.generators:
        go = m.idempotent_power(g)
        if lat.preceq(lat.content(g), J):
            inside.append(go)
        else:
            outside.append((g, go))

    prod = m.identity                   # the empty product gives 1
    for go in inside:
        prod = m.mult(prod, go)
    T = m.idempotent_power(prod)
    if lat.content(T) != J:
        raise ConsistencyError(
            f"content of T at node {J} is {lat.content(T)}, not {J}"
        )

    B = one(m)
    for _, go in outside:
        B = B * (one(m) - basis(m, go))
    A, n_b = power_until_stable(B, cap)
    for g, go in outside:
        if not (basis(m, go) * A).is_zero():
            raise ConsistencyError(
                f"g^omega * A != 0 at node {J} for generator element {g}"
            )

    z = A * basis(m, T)
    if mode == "jtrivial":
        n_z, P = _vanishing_sum(z, z, False, cap)
    else:
        n_z, P = _vanishing_sum(z, z * z, True, cap)
    return NortonData(node_id=J, T=T, B=B, A=A, z=z, P=P,
                      e=P, N_B=n_b, N_z=n_z)


def e_system(lat: Semilattice, mode: str = "auto") -> IdempotentSystem:
    """Compute every e_J, descending the lattice from its maximal nodes.

    The recursion may follow any linear extension that sees all K strictly
    above J before J; nodes sorted by (ideal size, node id) give one, since
    K strictly above J has a strictly smaller ideal. One fixed extension
    keeps output reproducible.
    """
    mode = _resolve_mode(lat, mode)
    m = lat.monoid
    order = sorted(lat.nodes, key=lambda nd: (nd.ideal_size, nd.node_id))
    data: list[NortonData | None] = [None] * lat.n_nodes
    for nd in order:
        J = nd.node_id
        rec = node_data(lat, J, mode=mode)
        rest = one(m)
        for K in lat.strictly_above(J):
            rest = rest - data[K].e
        rec.e = rec.P * rest
        data[J] = rec
    return IdempotentSystem(data=data, mode_used=mode)


def _scan_column(best, left, b, times_rb, skip):
    """One column of a scan for the first (a, b) in row-major order with
    skip(a, b) false and left[a] * right[b] != 0, times_rb being
    a -> a * right[b]: the first such pair in column b above the row of
    `best`, else `best`. Columns come in increasing b, so a column stops
    at the row of the best pair so far.
    """
    for a in range(len(left) if best is None else best[0]):
        if not skip(a, b) and not times_rb(left[a]).is_zero():
            return (a, b)
    return best


def verify_system(lat: Semilattice, sys: IdempotentSystem) -> Report:
    """Full verification of a computed system; results land in a report.

    Checks idempotency of every e_J and P_J, pairwise orthogonality both
    ways, the sum being 1, the unit leading terms of every z_J, P_J and
    e_J, one record per node in node order, and the intermediate
    orthogonality facts for z, P and e*P. A failure names the first
    element and node at fault, the lowest node first and e before P, or
    the first pair in row-major order. The report is also stored on the
    system record. Nothing raises; the CLI turns failures into exit codes.

    Every check that multiplies by e_J, P_J or z_J on the right shares
    one `right_multiplier` of that factor (one sweep of its left
    translates): three per node, only one kept at a time.
    """
    m = lat.monoid
    report = Report()
    data = sys.data[:lat.n_nodes]   # extra records fail count_equals_lattice
    es = [nd.e for nd in data]

    # each orthogonality scan: its right factor, left list, skip, detail
    scans = {
        "orthogonal": ("e", es, lambda J, K: J == K, "e_J * e_K != 0 at {}"),
        "z_orthogonality": ("z", [nd.z for nd in data], lat.preceq,
                            "z_J * z_K != 0 at {} with J not preceq K"),
        "p_orthogonality": ("P", [nd.P for nd in data], lat.preceq,
                            "P_J * P_K != 0 at {} with J not preceq K"),
        "e_p_orthogonality": ("P", es, lat.preceq,
                              "e_K * P_J != 0 at {} with K not preceq J"),
    }
    first = dict.fromkeys(scans)
    idem = None
    for K, nd in enumerate(data):
        for what in "ePz":
            b = getattr(nd, what)
            times_b = right_multiplier(b)
            if what != "z" and idem is None and times_b(b) != b:
                idem = f"{what} at node {K}"
            for name, (right, left, skip, _) in scans.items():
                if right == what:
                    first[name] = _scan_column(first[name], left, K,
                                               times_b, skip)
            del times_b

    def add_scan(name):
        report.add(name, first[name] is None, scans[name][3].format(first[name]))

    report.add("idempotent", idem is None, idem)
    add_scan("orthogonal")

    total = AlgebraElement(m, {})
    for e in es:
        total = total + e
    report.add("sum_to_one", total == one(m), "sum of all e_J is not 1")

    # a zero e fails too: its coefficient of T is 0
    fault = next(filter(None, (
        _leading_term_fault(lat, getattr(nd, what), nd.T, J, what)
        for J, nd in enumerate(data) for what in ("z", "P", "e"))), None)
    report.add("nonzero_with_unit_leading_term", fault is None, fault)

    bad = next((J for J, nd in enumerate(data) if nd.node_id != J), None)
    n_rec = len(sys.data)
    report.add("count_equals_lattice", n_rec == lat.n_nodes and bad is None,
               f"{n_rec} idempotents for {lat.n_nodes} nodes" if bad is None
               else f"record {bad} has node_id {data[bad].node_id}")

    for name in ("z_orthogonality", "p_orthogonality", "e_p_orthogonality"):
        add_scan(name)

    sys.verification = report
    return report
