import dataclasses
import random

import pytest

from rmonoid import (CapExceeded, Transformation, basis, build_free_lrb,
                     build_hecke_a, close, from_table, weak_preorder)
from rmonoid.norton import IdempotentSystem


@pytest.fixture(scope="session")
def matrix_monoid():
    """Five-element monoid of two 0/1 row-stochastic matrices on 3 points."""
    return close([Transformation((0, 2, 2)), Transformation((1, 1, 2))],
                 names=["g1", "g2"])


@pytest.fixture(scope="session")
def lrb2():
    return build_free_lrb(2, names=["a", "b"])


@pytest.fixture(scope="session")
def group2():
    """Cyclic group of order 2: the smallest non-R-trivial monoid."""
    return from_table([[0, 1], [1, 0]], identity=0, generators=[1],
                      names=["x"])


@pytest.fixture(scope="session")
def trivial():
    return from_table([[0]], identity=0)


@pytest.fixture(scope="session")
def hecke3():
    return build_hecke_a(3)


@pytest.fixture(scope="session")
def hecke4():
    return build_hecke_a(4)


@pytest.fixture(scope="session")
def hecke5():
    return build_hecke_a(5)


def hecke_elt(m, digits: str) -> int:
    """Evaluate a word of 1-based generator digits, left to right."""
    return m.eval_word([int(c) - 1 for c in digits])


def subset_nodes(lat) -> dict:
    """Map 1-based generator subsets to node ids via generator labels."""
    out = {
        tuple(gi + 1 for gi in lat.generator_label(nd.node_id)): nd.node_id
        for nd in lat.nodes
    }
    assert len(out) == lat.n_nodes, "generator labels collided"
    return out


def random_r_trivial_monoids(count: int, seed: int, points: int = 6,
                             max_size: int = 50):
    """Closures of random order-decreasing maps of a chain, R-trivial only.

    Order-decreasing means f(i) <= i for every point, which already forces
    R-triviality; the explicit filter stays as a guard.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.choice((2, 3))
        gens = [
            Transformation(tuple(rng.randint(0, i) for i in range(points)))
            for _ in range(k)
        ]
        try:
            m = close(gens, cap=max_size)
        except CapExceeded:
            continue
        if weak_preorder(m).is_partial_order:
            out.append(m)
    return out


def random_transformation_monoids(count: int, seed: int, decreasing: bool,
                                  points: int = 5, max_size: int = 40):
    """Closures of 2 or 3 random maps of `points` points, at most
    `max_size` elements each; the maps are order-decreasing (hence the
    monoid R-trivial) when `decreasing`, and arbitrary otherwise."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = [
            Transformation(tuple(rng.randint(0, i if decreasing else points - 1)
                                 for i in range(points)))
            for _ in range(rng.choice((2, 3)))
        ]
        try:
            out.append(close(gens, cap=max_size))
        except CapExceeded:
            continue
    return out


def permuted_table(m, seed):
    """m's table with ids relabelled at random, the identity not at 0."""
    n, t = m.size, m.table()
    perm = random.Random(seed).sample(range(n), n)
    assert perm[m.identity] != 0
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[t[x][y]]
    return table, perm[m.identity], [perm[g] for g in m.generators]


CORRUPTIONS = ("scale", "replace", "copy", "shift", "swap", "drop")


def corrupted(sys_, kind, what, J, K, x, c=2):
    """A copy of sys_ with one edit to its records, J and K indexing them:
    the `what` ('e', 'P' or 'z') of record J scaled by c ('scale'),
    replaced by c*[x] ('replace') or by record K's ('copy'), shifted by
    c*[x] ('shift'), or swapped with record K's ('swap'); or record J
    dropped ('drop')."""
    data = [dataclasses.replace(nd) for nd in sys_.data]
    rec, other = data[J], data[K]
    v = getattr(rec, what)
    cx = basis(v.monoid, x).scale(c)
    if kind == "drop":
        data.pop(J)
    elif kind == "swap":
        setattr(rec, what, getattr(other, what))
        setattr(other, what, v)
    else:
        setattr(rec, what, {"scale": v.scale(c), "replace": cx,
                            "copy": getattr(other, what),
                            "shift": v + cx}[kind])
    return IdempotentSystem(data, sys_.mode_used)
