import itertools
import math
import random

import pytest

from rmonoid import (StabilizationError, Transformation, basis,
                     build_free_lrb, build_hecke_a, close, from_coeffs,
                     from_table, one, power_until_stable, zero)
from rmonoid.algebra import RightFactor

from conftest import hecke_elt, permuted_table, random_transformation_monoids
from oracle import vec_mul


def test_add_sub_scale_trivials(lrb2):
    m = lrb2
    a = basis(m, 1)
    assert (one(m) - a) + a == one(m)
    assert (one(m) - a).scale(0) == zero(m)
    assert (one(m) - a) - (one(m) - a) == zero(m)
    assert zero(m).support() == []
    assert (one(m) - a).coefficient(m.identity) == 1


def test_int_coercion(lrb2):
    m = lrb2
    a = basis(m, 1)
    assert 1 - a == one(m) - a
    assert (1 - a) * 2 == 2 * (1 - a)
    assert a + 0 == a
    assert a == a + zero(m)


def test_zero_pruning(lrb2):
    e = from_coeffs(lrb2, {0: 0, 1: 3, 2: 0})
    assert e.support() == [1]
    assert len(e) == 1


def test_monoid_mismatch(lrb2, matrix_monoid):
    with pytest.raises(ValueError):
        one(lrb2) + one(matrix_monoid)
    with pytest.raises(ValueError):
        one(lrb2) * one(matrix_monoid)


def test_mul_examples(lrb2, hecke5):
    m = lrb2
    a, b = basis(m, m.generators[0]), basis(m, m.generators[1])
    e = (one(m) - a) * (one(m) - b)
    assert e == from_coeffs(m, {0: 1, 1: -1, 2: -1, 3: 1})   # 1 - a - b + ab
    assert e * e == e
    assert one(m) * a == a

    h = hecke5
    t4 = basis(h, h.generators[3])
    x = basis(h, hecke_elt(h, "123121"))
    prod = (one(h) - t4) * x
    assert prod == from_coeffs(h, {
        hecke_elt(h, "123121"): 1, hecke_elt(h, "4123121"): -1,
    })


def test_pow(lrb2):
    m = lrb2
    a = basis(m, 1)
    assert a ** 0 == one(m)
    assert a ** 1 == a
    w = one(m) - a
    assert w ** 3 == w * w * w


def test_power_until_stable_idempotent(lrb2):
    m = lrb2
    e = basis(m, 3)                      # ab, idempotent
    stable, n = power_until_stable(e, 10)
    assert stable == e and n == 1


def test_power_until_stable_lrb(lrb2):
    m = lrb2
    prod = (one(m) - basis(m, 1)) * (one(m) - basis(m, 2))
    stable, n = power_until_stable(prod, 10)
    assert stable == prod and n == 1     # already idempotent


def test_power_until_stable_limit_properties(lrb2, matrix_monoid, hecke4):
    for m, x in ((lrb2, 1), (matrix_monoid, 2), (hecke4, 5)):
        a = one(m) - basis(m, m.idempotent_power(x))
        p, n = power_until_stable(a, m.size + 2)
        assert p * p == p
        assert p * a == p


def test_power_never_stabilizes_in_group(group2):
    a = one(group2) - basis(group2, 1)
    with pytest.raises(StabilizationError) as err:
        power_until_stable(a, 50)
    assert err.value.cap == 50
    # (1 - x)^k = 2^(k-1) - 2^(k-1) x, exactly, beyond machine word size
    p = a
    for k in range(2, 80):
        p = p * a
        assert p.coefficient(0) == 2 ** (k - 1)
        assert p.coefficient(1) == -(2 ** (k - 1))


def test_ring_axioms_exhaustive_small(group2):
    m = group2
    elems = []
    for r in range(3):
        for support in itertools.combinations(range(2), r):
            for coeffs in itertools.product((1, -1, 2), repeat=r):
                elems.append(from_coeffs(m, dict(zip(support, coeffs))))
    for a in elems:
        for b in elems:
            assert a + b == b + a
            for c in elems:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c


def test_ring_axioms_random(hecke4):
    m = hecke4
    rng = random.Random(424242)

    def rand_elem():
        return from_coeffs(m, {
            rng.randrange(m.size): rng.choice((-2, -1, 1, 3))
            for _ in range(rng.randint(0, 4))
        })

    for _ in range(300):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_binomial_expansion_matches_dense_oracle(lrb2):
    # (1 - z)^N expanded by the sparse product must match sum of
    # binom(N, k) (-1)^k z^k with powers computed densely
    m = lrb2
    table = m.table()
    z = basis(m, 1) - basis(m, 4)        # a - ba
    N = 12
    lhs = (one(m) - z) ** N
    acc = [0] * m.size
    zk = [0] * m.size
    zk[m.identity] = 1
    for k in range(N + 1):
        sign = -1 if k % 2 else 1
        c = sign * math.comb(N, k)
        acc = [u + c * v for u, v in zip(acc, zk)]
        zk = vec_mul(table, zk, [z.coefficient(i) for i in range(m.size)])
    assert lhs == from_coeffs(m, {i: c for i, c in enumerate(acc)})


def test_support_and_terms_sorted(hecke4):
    m = hecke4
    e = from_coeffs(m, {5: -1, 2: 3, 9: 7})
    assert e.support() == [2, 5, 9]
    assert e.terms() == [(2, 3), (5, -1), (9, 7)]


def _kernel_inputs():
    """(monoid, its full table, whether its rows are unbuilt) triples.

    A fresh monoid gets its table from an independent copy, so products
    walk its left Cayley tree and read only the generator rows. The
    permuted-id `from_table` monoid comes twice: fresh like the others,
    then with every row built, so products read x*b off the rows.
    """
    builders = [lambda n=n: build_hecke_a(n) for n in range(2, 6)]
    builders += [lambda k=k: build_free_lrb(k) for k in range(1, 5)]
    builders.append(lambda: close([Transformation((0, 2, 2)),
                                   Transformation((1, 1, 2))]))
    for decreasing in (True, False):
        for seed in range(6):
            builders.append(lambda d=decreasing, s=seed:
                            random_transformation_monoids(1, s, d)[0])
    for build in builders:
        yield build(), build().table(), True
    # a table whose identity is not id 0, with explicit generators
    m = close([Transformation((0, 0, 2, 1)), Transformation((1, 1, 1, 3))])
    table, identity, gens = permuted_table(m, 7)
    for fresh in (True, False):
        tm = from_table(table, identity=identity, generators=gens)
        if not fresh:
            tm.table()
        yield tm, table, fresh


def _dense(m, a):
    return [a.coefficient(x) for x in range(m.size)]


def test_product_kernel_matches_dense_oracle():
    rng = random.Random(8081)
    for m, table, fresh in _kernel_inputs():
        n = m.size
        idem_gens = [basis(m, m.idempotent_power(g)) for g in m.generators]
        for trial in range(6):
            def rand_elem():
                # coefficients that cancel, and factors (1 - g^omega)
                # whose translates by g^omega vanish
                a = from_coeffs(m, {rng.randrange(n): rng.choice((-1, 1, 2))
                                    for _ in range(rng.randint(1, 8))})
                for go in rng.sample(idem_gens, min(2, len(idem_gens))):
                    a = a - a * go if trial % 2 else a - go * a
                return a

            a, b = rand_elem(), rand_elem()
            want = vec_mul(table, _dense(m, a), _dense(m, b))
            rf = RightFactor(b)
            assert rf.left_mul(a).coeffs == {
                z: c for z, c in enumerate(want) if c}
            assert a * b == from_coeffs(m, dict(enumerate(want)))
            for x in range(n):
                xb = vec_mul(table, [int(y == x) for y in range(n)],
                             _dense(m, b))
                want = {z: c for z, c in enumerate(xb) if c}
                assert rf.translate(x) == want
        if fresh:
            # products read the generator rows, never another row
            built = {x for x in range(n) if m._cached_row(x) is not None}
            assert built <= set(m.generators)


def test_left_tree_spans_the_left_cayley_graph():
    for m, table, _ in _kernel_inputs():
        order, parent, step_row = m._left_tree()
        assert sorted(order) == list(range(m.size))
        assert order[0] == m.identity
        position = {x: i for i, x in enumerate(order)}
        assert all(position[parent[x]] < position[x]
                   for x in order if x != m.identity)
        for x in range(m.size):
            depth = 0
            y = x
            while y != m.identity:
                # y = g * parent[y] for the generator whose row is step_row[y]
                g = next(g for g in m.generators if m.row(g) is step_row[y])
                assert table[g][parent[y]] == y
                y = parent[y]
                depth += 1
                assert depth <= m.size
        assert parent[m.identity] is None and step_row[m.identity] is None
