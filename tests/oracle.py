"""Independent dense evaluator for the idempotent construction.

Everything here works on plain integer vectors over a full multiplication
table, recomputes its own idempotent powers, uses the fixed-point
characterization of content (never S*x^omega), and builds P through the
truncated double summation rather than the closed form. It shares no code
path with the production package, so agreement is meaningful evidence.

The order-level structure (upsets, the non-antisymmetry witness, chain
length, J-triviality, the left ideals S*e) is also defined here straight
from the multiplication table, as the reference for the Cayley-graph
component routine. So is the semilattice (`semilattice`): its nodes are
the ideals S*e found by search in the left Cayley graph, content is
S*x^omega and the descent D(u) is the content of a maximal element of the
stabilizer of u, with no use of the generator labels the library builds
them from. The cubic associativity scan is the reference for
`from_table`'s Light's test.

The two reference builders at the end construct the built-in families the
long way, through the generic `close` and `from_table`: 0-Hecke as n-1
transformations of the n! permutations, and the free left regular band as
its full word table. The family builders, which close over permutations
and distinct-letter words directly, must agree with them id for id.

`omega_identities_failure` is the pair scan behind the `omega_identities`
check, one pair at a time over the table. `joined_idempotents` is the
`idempotents` document as a whole string, built from the payload
functions of `rmonoid.output` the way the CLI built it before it wrote
the document record by record; it is the reference the streamed writer
must match byte for byte.
"""

import itertools
import random

from rmonoid import Transformation, close, from_table
from rmonoid.output import system_payload, to_json


def vec_mul(table, u, v):
    n = len(table)
    out = [0] * n
    nonzero = [(j, dj) for j, dj in enumerate(v) if dj]
    for i, ci in enumerate(u):
        if ci:
            row = table[i]
            for j, dj in nonzero:
                out[row[j]] += ci * dj
    return out


def vec_unit(n, identity):
    out = [0] * n
    out[identity] = 1
    return out


def vec_basis(n, x):
    out = [0] * n
    out[x] = 1
    return out


def vec_addmul(u, k, v):
    return [a + k * b for a, b in zip(u, v)]


def idem_power(table, x):
    seen = []
    y = x
    while y not in seen:
        seen.append(y)
        y = table[y][x]
    for q in seen:
        if table[q][q] == q:
            return q
    raise AssertionError(f"no idempotent power of {x}")


def content_set(table, x):
    return frozenset(a for a in range(len(table)) if table[a][x] == a)


def naive_system(table, identity, gens):
    """All e_J by direct expansion; keyed by the content set of the node."""
    n = len(table)
    unit = vec_unit(n, identity)

    node_sets = []
    for e in range(n):
        if table[e][e] == e:
            s = content_set(table, e)
            if s not in node_sets:
                node_sets.append(s)

    def below(c1, c2):     # c1 preceq c2 in reverse inclusion
        return c1 >= c2

    results = {}
    # strictly larger content sets sit lower; process small sets first
    for J in sorted(node_sets, key=len):
        t = identity
        for g in gens:
            if below(content_set(table, g), J):
                t = table[t][idem_power(table, g)]
        t = idem_power(table, t)

        b = unit
        for g in gens:
            if not below(content_set(table, g), J):
                b = vec_mul(table, b, vec_addmul(unit, -1, vec_basis(n, idem_power(table, g))))

        a = b
        for _ in range(n + 2):
            a2 = vec_mul(table, a, b)
            if a2 == a:
                break
            a = a2
        else:
            raise AssertionError("B power did not stabilize")

        z = vec_mul(table, a, vec_basis(n, t))
        one_minus_z = vec_addmul(unit, -1, z)

        total = [0] * n
        term = vec_mul(table, z, z)
        for k in range(n + 2):
            if not any(term):
                break
            total = vec_addmul(total, k + 1, term)
            term = vec_mul(table, one_minus_z, term)
        else:
            raise AssertionError("P summation did not terminate")

        rest = unit
        for K, eK in results.items():
            if below(J, K) and K != J:
                rest = vec_addmul(rest, -1, eK)
        results[J] = vec_mul(table, total, rest)
    return results


def system_check_lines(table, identity, gens, records):
    """The report lines of `verify_system`, by the definitions.

    `records` holds (node_id, T, z, P, e) per record, with z, P and e as
    {element: coefficient} maps. Every product is dense, through
    `vec_mul`, and every scan multiplies each pair it does not skip, in
    row-major order, until the first nonzero one: no zero certificate and
    no orthogonality lemma. Node order and content come from `semilattice`.
    """
    lat = semilattice(table, identity, gens)
    preceq, content = lat["preceq"], lat["content"]
    n, k = len(table), len(lat["ideals"])
    recs = records[:k]
    r = range(len(recs))
    T = [rec[1] for rec in recs]
    Z, P, E = ([[rec[i].get(x, 0) for x in range(n)] for rec in recs]
               for i in (2, 3, 4))
    lines = []

    def add(name, fault, detail):
        lines.append(f"PASS  {name}" if fault is None
                     else f"FAIL  {name}  ({detail.format(fault)})")

    def first_nonzero(left, right, skip):
        return next(((a, b) for a in r for b in r if not skip(a, b)
                     and any(vec_mul(table, left[a], right[b]))), None)

    add("idempotent", next((f"{w} at node {K}" for K in r
                            for w, v in (("e", E[K]), ("P", P[K]))
                            if vec_mul(table, v, v) != v), None), "{}")
    add("orthogonal", first_nonzero(E, E, lambda a, b: a == b),
        "e_J * e_K != 0 at {}")
    total = [sum(col) for col in zip(*E)] if E else [0] * n
    add("sum_to_one", None if total == vec_unit(n, identity) else 1,
        "sum of all e_J is not 1")

    def leading_fault(J, what, v):
        t = T[J]
        if v[t] != 1:
            return f"coefficient of T in {what} at node {J} is {v[t]}"
        for y in range(n):
            c = content[y]
            if y != t and v[y] and (c == J or not preceq[J][c]):
                return (f"term {y} of {what} at node {J} has content {c}, "
                        f"not strictly above {J}")
        return None
    add("nonzero_with_unit_leading_term", next(filter(None, (
        leading_fault(J, what, v) for J in r
        for what, v in (("z", Z[J]), ("P", P[J]), ("e", E[J])))), None), "{}")

    bad = next((J for J in r if recs[J][0] != J), None)
    add("count_equals_lattice",
        None if len(records) == k and bad is None else 1,
        f"{len(records)} idempotents for {k} nodes" if bad is None
        else f"record {bad} has node_id {recs[bad][0]}")

    below = lambda a, b: preceq[a][b]
    add("z_orthogonality", first_nonzero(Z, Z, below),
        "z_J * z_K != 0 at {} with J not preceq K")
    add("p_orthogonality", first_nonzero(P, P, below),
        "P_J * P_K != 0 at {} with J not preceq K")
    add("e_p_orthogonality", first_nonzero(E, P, below),
        "e_K * P_J != 0 at {} with K not preceq J")
    return lines


def omega_identities_failure(table, pair_limit, seed, idem=None):
    """The first (x, y, which) at which identity number `which` of the
    seven idempotent-power identities fails, or None. Pairs run in
    row-major order when n^2 <= pair_limit, and are otherwise pair_limit
    draws (x, then y) from random.Random(seed). `idem` lists x^omega per
    x, found from the table when not given."""
    n = len(table)
    if n * n <= pair_limit:
        pairs = ((x, y) for x in range(n) for y in range(n))
    else:
        rng = random.Random(seed)
        pairs = ((rng.randrange(n), rng.randrange(n))
                 for _ in range(pair_limit))
    if idem is None:
        idem = [idem_power(table, x) for x in range(n)]
    for x, y in pairs:
        xy = table[x][y]
        xo, yo = idem[x], idem[y]
        w = idem[xy]
        u = idem[table[xo][yo]]
        checks = (
            table[w][x] == w,
            table[w][y] == w,
            table[w][xo] == w,
            table[w][yo] == w,
            table[u][xo] == u,
            table[u][xy] == u,
            table[u][w] == u,
        )
        if not all(checks):
            return (x, y, checks.index(False) + 1)
    return None


def joined_idempotents(lat, system, fmt):
    """The stdout of `rmonoid idempotents --format fmt` for a verified
    system, joined whole from `system_payload`."""
    payload = system_payload(lat, system)
    if fmt == "json":
        return to_json(payload) + "\n"
    lines = []
    for entry in payload["idempotents"]:
        terms = " ".join(
            f"{t['coeff']:+d}*[{t['word'] or '1'}]" for t in entry["terms"]
        )
        lines.append(f"e{entry['label']} = {terms}")
    if system.verification is not None:
        lines += system.verification.lines()
    return "".join(line + "\n" for line in lines)


# -- brute-force definitions of the order-level structure --------------------

def upsets(table):
    """u <= v iff u*w = v for some w: the upset of u is its row."""
    return [frozenset(row) for row in table]


def preorder_witness(up):
    """The smallest x lying in a non-trivial class of the preorder, paired
    with the smallest other element of its class; None if there is none."""
    for x in range(len(up)):
        for y in sorted(up[x]):
            if y != x and x in up[y]:
                return (min(x, y), max(x, y))
    return None


def longest_chain(up):
    """Element count of a longest strictly increasing chain, or None when
    the preorder is not antisymmetric."""
    if preorder_witness(up) is not None:
        return None
    # x < y forces up[y] to be a proper subset of up[x]
    height = {}
    for x in sorted(range(len(up)), key=lambda t: len(up[t])):
        height[x] = 1 + max((height[y] for y in up[x] if y != x), default=0)
    return max(height.values())


def left_ideal(table, x):
    """S*x."""
    return frozenset(row[x] for row in table)


def left_ideal_by_search(table, gens, e):
    """S*e: what e reaches in the left Cayley graph y -> g*y."""
    seen = {e}
    queue = [e]
    for y in queue:
        for g in gens:
            z = table[g][y]
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return frozenset(seen)


def semilattice(table, identity, gens):
    """The semilattice of an R-trivial monoid by its definitions.

    Nodes are the distinct S*e over idempotents e, numbered, each with its
    witness, by the first such e in id order; J preceq K when S*e_J
    contains S*e_K; the join is the least upper bound of that order;
    C(x) = S*x^omega; D(u) is the content of a maximal element of
    {s : u*s = u}, reached by climbing the weak order from the identity.
    """
    n = len(table)
    ideal_of = {}                   # idempotent -> S*e
    node_of = {}                    # S*e -> node id
    ideals, witnesses = [], []
    for e in range(n):
        if table[e][e] == e:
            ideal = ideal_of[e] = left_ideal_by_search(table, gens, e)
            if ideal not in node_of:
                node_of[ideal] = len(ideals)
                ideals.append(ideal)
                witnesses.append(e)
    k = len(ideals)
    preceq = [[ideals[a] >= ideals[b] for b in range(k)] for a in range(k)]
    join = [[None] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            ubs = [c for c in range(k) if preceq[a][c] and preceq[b][c]]
            least = [c for c in ubs if all(preceq[c][d] for d in ubs)]
            assert len(least) == 1, f"no least upper bound of {a}, {b}"
            join[a][b] = least[0]
    content = [node_of[ideal_of[idem_power(table, x)]] for x in range(n)]
    descent = []
    for u in range(n):
        stab = {s for s in range(n) if table[u][s] == u}
        s = identity
        while True:
            above = stab.intersection(table[s])
            above.discard(s)
            if not above:
                break
            s = min(above)
        descent.append(content[s])
    return {
        "witnesses": witnesses, "ideals": ideals, "preceq": preceq,
        "join": join, "content": content, "descent": descent,
        "chain_length": longest_chain(upsets(table)),
    }


def associativity_failure(table):
    """The first triple (x, y, z) in lexicographic order with
    (x*y)*z != x*(y*z), or None if the table is associative: all n^3."""
    n = len(table)
    for x in range(n):
        tx = table[x]
        for y in range(n):
            txy = table[tx[y]]
            ty = table[y]
            for z in range(n):
                if txy[z] != tx[ty[z]]:
                    return (x, y, z)
    return None


def is_j_trivial(table):
    """All n principal two-sided ideals S*x*S are distinct."""
    ideals = {frozenset().union(*(table[y] for y in left_ideal(table, x)))
              for x in range(len(table))}
    return len(ideals) == len(table)


# -- reference constructions of the built-in families ------------------------

def hecke_a_by_transformations(n):
    """0-Hecke monoid closed from n-1 transformations of degree n!.

    Points are the permutations in lexicographic one-line order; generator
    i sends w to w*s_i when that adds an inversion and fixes w otherwise.
    """
    perms = list(itertools.permutations(range(n)))
    index = {w: i for i, w in enumerate(perms)}
    gens = []
    for i in range(n - 1):
        images = []
        for w in perms:
            if w[i] < w[i + 1]:
                sw = list(w)
                sw[i], sw[i + 1] = sw[i + 1], sw[i]
                images.append(index[tuple(sw)])
            else:
                images.append(index[w])
        gens.append(Transformation(tuple(images)))
    return close(gens, names=[f"T{i}" for i in range(1, n)])


def free_lrb_by_table(k):
    """Free left regular band on k generators from its full word table."""
    words = [w for r in range(k + 1)
             for w in itertools.permutations(range(k), r)]
    index = {w: i for i, w in enumerate(words)}
    table = []
    for u in words:
        seen = set(u)
        table.append([index[u + tuple(c for c in v if c not in seen)]
                      for v in words])
    return from_table(table, identity=0,
                      generators=[index[(c,)] for c in range(k)],
                      names=[f"g{i}" for i in range(k)])
