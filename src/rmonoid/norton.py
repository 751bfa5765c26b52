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
leading terms. It proves most of its products zero without computing
them, by a zero certificate read off the generator steps, and derives
orthogonality of the e_J from idempotency and their sum by a lemma; both
are stated and proved where they are used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (AlgebraElement, RightFactor, basis, one,
                      power_until_stable, zero)
from .errors import ConsistencyError
from .lattice import Semilattice, _fixed
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
        rest = {m.identity: 1}          # 1 - sum of e_K, K strictly above J
        get = rest.get
        for K in lat.strictly_above(J):
            for x, c in data[K].e.coeffs.items():
                rest[x] = get(x, 0) - c
        # P_J*T_J = P_J: every term of P_J's sum ends in z_J = A_J*T_J,
        # and z_J*T_J = z_J as T_J is idempotent. So e_J = P_J*(T_J*R_J)
        # with R_J = rest, and the right factor T_J*R_J has fewer terms
        # than R_J wherever T_J absorbs them.
        rec.e = rec.P * (basis(m, rec.T) * AlgebraElement(m, rest))
        data[J] = rec
    return IdempotentSystem(data=data, mode_used=mode)


def verify_system(lat: Semilattice, sys: IdempotentSystem) -> Report:
    """Full verification of a computed system; results land in a report.

    Checks idempotency of every e_J and P_J, pairwise orthogonality both
    ways, the sum being 1, the unit leading terms of every z_J, P_J and
    e_J, one record per node in node order, and the intermediate
    orthogonality facts for z, P and e*P. A failure names the first
    element and node at fault, the lowest node first and e before P, or
    the first pair in row-major order. The report is also stored on the
    system record. Nothing raises; the CLI turns failures into exit codes.

    Zero certificate: if x*g = x for a generator g with g^omega*b = 0,
    then x*b = 0. Proof: x*g = x gives x*g^j = x for every j >= 1, so
    x*g^omega = x and x*b = x*g^omega*b = 0. So with Fix(x) = {g : x*g = x}
    and Kill(b) = {g : g^omega*b = 0} as masks of generator positions,
    a*b sums a_x*(x*b) only over the x in a's support with
    Fix(x) & Kill(b) = 0, and is 0 when no such x is left. Fix comes from
    the generator steps, Kill(b) from k one-element products per right
    factor, each of which gets one `RightFactor`, one alive at a time.
    Pairs the certificate leaves are multiplied exactly, so every scan
    still names the first nonzero pair.

    `orthogonal` follows from `idempotent` and `sum_to_one` by a lemma:
    over Q, idempotents e_1..e_r with sum 1 are pairwise orthogonal.
    Proof: in the left regular representation of QM (faithful, as M has a
    unit) each e_i is an idempotent operator, so its rank is its trace,
    and the traces sum to trace(1) = n. The images span QM (v is the sum
    of the e_i*v), so their sum is direct. For w = e_j*v in the image of
    e_j, w = sum_i e_i*w then forces e_i*w = 0 for i != j; so e_i*e_j acts
    as 0 and e_i*e_j = 0. When `idempotent` or `sum_to_one` fails, the
    e-scan runs and names the first nonzero pair.
    """
    m = lat.monoid
    report = Report()
    data = sys.data[:lat.n_nodes]   # extra records fail count_equals_lattice
    left = {what: [getattr(nd, what) for nd in data] for what in "ezP"}
    steps = m._gen_step
    fix = dict.fromkeys(x for elems in left.values() for a in elems
                        for x in a.coeffs)
    for x in fix:
        fix[x] = _fixed(steps[x], x)
    masks = {what: [set(map(fix.get, a.coeffs)) for a in elems]
             for what, elems in left.items()}
    killers: dict[int, int] = {}    # g^omega -> positions i with g_i^omega
    for i, g in enumerate(m.generators):
        go = m.idempotent_power(g)
        killers[go] = killers.get(go, 0) | 1 << i

    def factor(b):
        """a -> a*b over a's terms the certificate leaves, and Kill(b)."""
        rf = RightFactor(b)
        kill = sum(bits for go, bits in killers.items()
                   if not rf.translate(go))
        return (lambda a: rf.left_mul(AlgebraElement(m, {
            x: c for x, c in a.coeffs.items() if not fix[x] & kill}))), kill

    # each orthogonality scan: its right factor, left operands, skip, detail
    scans = {
        "orthogonal": ("e", "e", lambda J, K: J == K, "e_J * e_K != 0 at {}"),
        "z_orthogonality": ("z", "z", lat.preceq,
                            "z_J * z_K != 0 at {} with J not preceq K"),
        "p_orthogonality": ("P", "P", lat.preceq,
                            "P_J * P_K != 0 at {} with J not preceq K"),
        "e_p_orthogonality": ("P", "e", lat.preceq,
                              "e_K * P_J != 0 at {} with K not preceq J"),
    }
    first = dict.fromkeys(scans)

    def scan_columns(names, K, what, times_b, kill):
        """Column K of each named scan whose right factor is `what`, with
        times_b multiplying by it and kill its Kill mask. Columns come in
        increasing K, so a column stops at the row of the first pair found
        so far, and a scan ends with its first nonzero pair in row-major
        order. A pair the certificate settles is not multiplied."""
        for name in names:
            right, lw, skip, _ = scans[name]
            if right != what:
                continue
            ops, op_masks, best = left[lw], masks[lw], first[name]
            for a in range(len(ops) if best is None else best[0]):
                if skip(a, K) or all(f & kill for f in op_masks[a]):
                    continue
                if not times_b(ops[a]).is_zero():
                    first[name] = (a, K)
                    break

    sum_ok = sum(left["e"], AlgebraElement(m, {})) == one(m)

    idem = None
    for K, nd in enumerate(data):
        for what in "ePz":
            if what == "e" and idem is not None:
                continue
            b = getattr(nd, what)
            times_b, kill = factor(b)
            if what != "z" and idem is None and times_b(b) != b:
                idem = f"{what} at node {K}"
            scan_columns(("z_orthogonality", "p_orthogonality",
                          "e_p_orthogonality"), K, what, times_b, kill)
            del times_b
    if idem is not None or not sum_ok:
        for K, e in enumerate(left["e"]):
            times_b, kill = factor(e)
            scan_columns(("orthogonal",), K, "e", times_b, kill)
            del times_b

    def add_scan(name):
        report.add(name, first[name] is None, scans[name][3].format(first[name]))

    report.add("idempotent", idem is None, idem)
    add_scan("orthogonal")
    report.add("sum_to_one", sum_ok, "sum of all e_J is not 1")

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
