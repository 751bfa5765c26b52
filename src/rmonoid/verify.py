"""
The complete invariant suite behind the `verify` subcommand.

Runs every theorem-backed check the library knows about against one
monoid: preorder sanity, R-triviality (with an independent brute-force
cross-check on small inputs), the idempotent-power identities, the weak
order axioms, the intermediate facts of the idempotent construction, and
full system verification. Failures are collected in the report rather than
raised, except for a non-R-trivial input, which aborts the suite.
"""

from __future__ import annotations

import random

from .algebra import AlgebraElement, RightFactor, basis, one
from .errors import NotRTrivial
from .lattice import build_semilattice, verify_weak_order_axioms
from .monoid import Monoid, _id_tree
from .norton import e_system, verify_system
from .order import (check_left_absorption, is_j_trivial, iter_bits,
                    weak_preorder)
from .reporting import Report

__all__ = ["run_full_suite", "check_omega_identities"]

# exhaustive pair scans up to this many pairs, seeded sampling beyond
PAIR_LIMIT = 1_000_000
SAMPLE_SEED = 987654321
BRUTE_FORCE_BOUND = 200


def check_omega_identities(m: Monoid):
    """The seven idempotent-power identities over element pairs.

    Only valid for R-trivial monoids. Exhaustive when n^2 stays under the
    pair limit, otherwise a fixed-seed sample of that many pairs.
    """
    n = m.size
    idem, row = m.idempotent_power, m.row
    if n * n <= PAIR_LIMIT:
        pairs = ((x, y) for x in range(n) for y in range(n))
    else:
        rng = random.Random(SAMPLE_SEED)
        pairs = ((rng.randrange(n), rng.randrange(n))
                 for _ in range(PAIR_LIMIT))
    for x, y in pairs:
        xy = row(x)[y]
        xo, yo = idem(x), idem(y)
        w = idem(xy)
        u = idem(row(xo)[yo])
        rw, ru = row(w), row(u)
        checks = (
            rw[x] == w,
            rw[y] == w,
            rw[xo] == w,
            rw[yo] == w,
            ru[xo] == u,
            ru[xy] == u,
            ru[w] == u,
        )
        if not all(checks):
            which = checks.index(False) + 1
            return False, (x, y, which)
    return True, None


def _brute_force_r_trivial(m: Monoid) -> bool:
    ideals = {frozenset(m.row(x)) for x in range(m.size)}
    return len(ideals) == m.size


def _p_closed_form(z: AlgebraElement, n_z: int, mode: str) -> AlgebraElement:
    """The paper's closed form of P, which construction's truncated sum
    must equal: 1 - (1-z)^(N+1) in jtrivial mode, and
    1 - (1 + (N+1) z) (1-z)^(N+1) in general mode."""
    wpow = (one(z.monoid) - z) ** (n_z + 1)
    if mode == "jtrivial":
        return one(z.monoid) - wpow
    return one(z.monoid) - (one(z.monoid) + z.scale(n_z + 1)) * wpow


def run_full_suite(m: Monoid) -> Report:
    """Run everything; raises NotRTrivial for inputs outside scope."""
    report = Report()
    order = weak_preorder(m)
    n = m.size

    refl = all((order.up[x] >> x) & 1 for x in range(n))
    trans = all(
        order.up[x] | order.up[y] == order.up[x]
        for x in range(n) for y in iter_bits(order.up[x])
    )
    report.add("preorder_reflexive", refl, "missing x <= x")
    report.add("preorder_transitive", trans, "upset not closed")

    if not order.is_partial_order:
        raise NotRTrivial(order.witness)
    report.add("r_trivial", True)
    if n <= BRUTE_FORCE_BOUND:
        report.add("r_trivial_matches_right_ideal_count",
                   _brute_force_r_trivial(m),
                   "antisymmetry verdict disagrees with distinct right ideals")

    ok, bad = check_left_absorption(m, order)
    report.add("left_absorption", ok, f"xyz = x but xy != x at {bad}")

    ok, bad = check_omega_identities(m)
    report.add("omega_identities", ok,
               bad and f"identity {bad[2]} fails at pair {bad[:2]}")

    ok = all(m.row(m.idempotent_power(x))[x] == m.idempotent_power(x)
             for x in range(n))
    report.add("omega_absorbs_base", ok, "x^omega * x != x^omega")

    lat = build_semilattice(m, order)
    # the build finds C(x) and |S*e| from generator labels; here S*e is a
    # search of the left Cayley graph from each witness e, and the fixed
    # points {a : a*x = a} are read off the rows, independently of both
    fixed = [0] * n
    for a in range(n):
        for x, ax in enumerate(m.row(a)):
            if ax == a:
                fixed[x] |= 1 << a
    left = m._left_graph()
    ideal = [sum(1 << a for a in _id_tree(nd.witness, left)[0])
             for nd in lat.nodes]
    bad = next((x for x in range(n) if fixed[x] != ideal[lat.content(x)]),
               None)
    bad_size = next((nd.node_id for nd in lat.nodes
                     if ideal[nd.node_id].bit_count() != nd.ideal_size), None)
    report.add("content_characterizations_agree",
               bad is None and bad_size is None,
               f"{{a : a*x = a}} != S*x^omega at element {bad}"
               if bad is not None else
               f"ideal_size != |S*e| at node {bad_size}")
    # the build raises when a join is not the least upper bound
    report.add("join_is_least_upper_bound", True)

    report.extend(verify_weak_order_axioms(lat))

    jtriv = is_j_trivial(m, order)
    if jtriv:
        report.add("j_trivial_implies_r_trivial", order.is_partial_order)

    sys = e_system(lat, "jtrivial" if jtriv else "general")
    bad = next((nd.node_id for nd in sys.data
                if _p_closed_form(nd.z, nd.N_z, sys.mode_used) != nd.P), None)
    report.add("p_closed_form_matches_summation", bad is None,
               f"closed form of P at node {bad} disagrees with the "
               f"truncated summation")

    bad = None
    for nd in sys.data:
        J = nd.node_id
        row_t = m.row(nd.T)
        for x in range(n):
            if lat.preceq(lat.content(x), J) and row_t[x] != nd.T:
                bad = (J, x)
                break
        if bad:
            break
    report.add("t_absorbs_low_content", bad is None,
               bad and f"T * x != T at node {bad[0]}, element {bad[1]}")

    bad = None
    for nd in sys.data:
        J = nd.node_id
        times_b = RightFactor(nd.B).left_mul
        BN = one(m)
        for _ in range(nd.N_B):
            BN = times_b(BN)
        for g in m.generators:
            if lat.preceq(lat.content(g), J):
                continue
            go = basis(m, m.idempotent_power(g))
            if not (go * nd.A).is_zero() or not (go * BN).is_zero():
                bad = (J, g)
                break
        if bad:
            break
    report.add("high_content_generators_kill_A", bad is None,
               bad and f"g^omega * A != 0 at node {bad[0]}, generator {bad[1]}")

    if n <= BRUTE_FORCE_BOUND:
        bad = None
        for nd in sys.data:
            J = nd.node_id
            outside = [m.idempotent_power(g) for g in m.generators
                       if not lat.preceq(lat.content(g), J)]
            bB = RightFactor(nd.B).translate
            for b in range(n):
                row_b = m.row(b)
                if not any(row_b[go] == b for go in outside):
                    continue
                for c in bB(b):
                    if c == b or not order.leq(b, c):
                        bad = (J, b, c)
                        break
                if bad:
                    break
            if bad:
                break
        report.add("b_times_B_strictly_increases", bad is None,
                   bad and f"term {bad[2]} of b*B not above b = {bad[1]} "
                           f"at node {bad[0]}")

    cl = order.chain_length
    bad = next((nd.node_id for nd in sys.data if nd.N_z > cl + 1), None)
    report.add("vanishing_exponent_bounded_by_chain", bad is None,
               f"N_z > chain_length + 1 at node {bad}")

    bad = None
    for nd in sys.data:
        z = nd.z
        times_w = RightFactor(one(m) - z).left_mul
        geom = AlgebraElement(m, {})
        wpow = one(m)
        for _ in range(nd.N_z + 1):
            geom = geom + wpow
            wpow = times_w(wpow)
        if z * geom != one(m) - wpow:
            bad = nd.node_id
            break
    report.add("geometric_series_identity_at_z", bad is None,
               f"x * sum (1-x)^n != 1 - (1-x)^(N+1) at node {bad}")

    report.extend(verify_system(lat, sys))
    return report
