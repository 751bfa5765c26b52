import math

import pytest

from rmonoid import (CapExceeded, MonoidSpec, SpecError, build_free_lrb,
                     build_hecke_a, load, parse_spec, weak_preorder)
from rmonoid.order import iter_bits

import oracle


def test_free_lrb_sizes():
    assert build_free_lrb(1).size == 2
    assert build_free_lrb(2).size == 5
    assert build_free_lrb(3).size == 16
    for k in range(1, 5):
        expect = sum(math.perm(k, i) for i in range(k + 1))
        assert build_free_lrb(k).size == expect


def test_free_lrb_relations():
    m = build_free_lrb(2)
    a, b = m.generators
    ab = m.mult(a, b)
    ba = m.mult(b, a)
    assert m.mult(ab, a) == ab           # aba = ab
    assert m.mult(ba, b) == ba           # bab = ba
    assert m.size == 5


def test_free_lrb_band_axioms_exhaustive():
    # x^2 = x and xyx = xy for every pair, up to four generators
    for k in range(1, 5):
        m = build_free_lrb(k)
        for x in range(m.size):
            assert m.mult(x, x) == x
            for y in range(m.size):
                xy = m.mult(x, y)
                assert m.mult(xy, x) == xy


def test_free_lrb_validation_and_cap():
    with pytest.raises(SpecError):
        build_free_lrb(0)
    with pytest.raises(CapExceeded):
        build_free_lrb(4, cap=10)


def test_hecke_sizes():
    assert build_hecke_a(2).size == 2
    assert build_hecke_a(3).size == 6
    assert build_hecke_a(5).size == 120


def test_hecke_validation_and_cap():
    with pytest.raises(SpecError):
        build_hecke_a(1)
    with pytest.raises(CapExceeded):
        build_hecke_a(5, cap=100)


def test_hecke_idempotent_and_braid_relations():
    for n in (2, 3, 4):
        m = build_hecke_a(n)
        gens = m.generators
        for i, g in enumerate(gens):
            assert m.mult(g, g) == g
            for j, h in enumerate(gens):
                if abs(i - j) >= 2:
                    assert m.mult(g, h) == m.mult(h, g)
                elif abs(i - j) == 1:
                    ghg = m.mult(m.mult(g, h), g)
                    hgh = m.mult(m.mult(h, g), h)
                    assert ghg == hgh


def test_hecke8_builds_without_rows():
    # 40,320 elements; every relation is read off the generator steps
    m = build_hecke_a(8)
    assert m.size == 40320
    assert max(len(m.word(x)) for x in range(m.size)) == 28
    for i in range(7):
        assert m.eval_word([i, i]) == m.eval_word([i])
        for j in range(7):
            if abs(i - j) >= 2:
                assert m.eval_word([i, j]) == m.eval_word([j, i])
            elif abs(i - j) == 1:
                assert m.eval_word([i, j, i]) == m.eval_word([j, i, j])
    assert m._rows.count(None) == m.size


def test_builders_match_reference_constructions():
    cases = ([(build_hecke_a(n), oracle.hecke_a_by_transformations(n))
              for n in range(2, 7)]
             + [(build_free_lrb(k), oracle.free_lrb_by_table(k))
                for k in range(1, 6)])
    for m, ref in cases:
        assert m.size == ref.size
        assert m.generators == ref.generators
        assert m.gen_names == ref.gen_names
        k = len(m.generators)
        for x in range(m.size):
            assert ([m.gen_step(x, gi) for gi in range(k)]
                    == [ref.gen_step(x, gi) for gi in range(k)])
            assert m.word(x) == ref.word(x)
        assert m.table() == ref.table()


def _perm_of(m, x, n):
    # the permutation x makes of the identity: apply its word letter by
    # letter, s_i swapping positions i and i+1 when that adds an inversion
    w = list(range(n))
    for i in m.word(x):
        if w[i] < w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def _inv_count(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def test_hecke_weak_order_matches_permutation_weak_order():
    # u <= v in the monoid iff inv(u) + inv(u^-1 v) = inv(v)
    for n in (2, 3, 4):
        m = build_hecke_a(n)
        order = weak_preorder(m)
        perms = {x: _perm_of(m, x, n) for x in range(m.size)}
        for x in range(m.size):
            px = perms[x]
            inv_x = {v: i for i, v in enumerate(px)}
            for y in range(m.size):
                py = perms[y]
                quot = tuple(inv_x[py[i]] for i in range(n))   # x^-1 y
                additive = _inv_count(px) + _inv_count(quot) == _inv_count(py)
                assert order.leq(x, y) == additive


def test_hecke_element_bijection_with_permutations():
    for n in (2, 3, 4):
        m = build_hecke_a(n)
        seen = {_perm_of(m, x, n) for x in range(m.size)}
        assert len(seen) == math.factorial(n)
        # word length equals the inversion count of the permutation
        for x in range(m.size):
            assert len(m.word(x)) == _inv_count(_perm_of(m, x, n))


def test_parse_spec_dispatch():
    m = load(parse_spec('{"kind":"hecke_a","n":5}'))
    assert m.size == 120
    m = load(parse_spec(
        '{"kind":"transformations","degree":3,'
        '"generators":[[0,2,2],[1,1,2]],"names":["g1","g2"]}'
    ))
    assert m.size == 5
    assert m.gen_names == ["g1", "g2"]
    m = load(parse_spec('{"kind":"free_lrb","k":1}'))
    assert m.size == 2
    m = load(parse_spec(
        '{"kind":"table","table":[[0,1],[1,0]],"identity":0,"generators":[1]}'
    ))
    assert m.size == 2


def test_parse_spec_errors():
    cases = [
        ('not json', "json"),
        ('[1,2]', "json"),
        ('{"kind":"bogus"}', "kind"),
        ('{"kind":"free_lrb"}', "k"),
        ('{"kind":"free_lrb","k":0}', "k"),
        ('{"kind":"hecke_a","n":1}', "n"),
        ('{"kind":"hecke_a","n":3,"cap":0}', "cap"),
        ('{"kind":"transformations","degree":2,"generators":[[0,2]]}',
         "generators"),
        ('{"kind":"transformations","degree":2,"generators":[]}',
         "generators"),
        ('{"kind":"transformations","degree":2,"generators":[[0,1]],'
         '"names":["a","b"]}', "names"),
        ('{"kind":"table","table":[[0,1],[1,2]]}', "table"),
        ('{"kind":"table","table":[[0,1],[1,0]],"identity":7}', "identity"),
    ]
    for text, field in cases:
        with pytest.raises(SpecError) as err:
            load(parse_spec(text))
        assert err.value.field == field, text


def test_load_checks_a_table_spec_built_without_parse_spec():
    # MonoidSpec is public: load still rejects entries and ids out of range
    for spec, message in [
        (MonoidSpec(kind="table", table=((0, 1), (1, 2)), identity=0),
         "table: entry [1][1] = 2 outside [0, 2)"),
        (MonoidSpec(kind="table", table=((0, 1), (1, 0)), identity=0,
                    generators=(5,)),
         "generators: generator id 5 outside [0, 2)"),
    ]:
        with pytest.raises(SpecError) as err:
            load(spec)
        assert str(err.value) == message


def test_default_generator_names():
    assert build_free_lrb(2).gen_names == ["g0", "g1"]
    assert build_hecke_a(3).gen_names == ["T1", "T2"]


def test_table_defaults_all_non_identity_generators():
    m = load(parse_spec('{"kind":"table","table":[[0,1],[1,0]]}'))
    assert m.generators == [1]


def test_upsets_reasonable_on_families():
    m = build_free_lrb(2)
    order = weak_preorder(m)
    top_elems = [x for x in range(m.size) if order.up[x] == 1 << x]
    assert sorted(top_elems) == [3, 4]   # ab and ba are maximal
    assert all(len(list(iter_bits(order.up[x]))) >= 1 for x in range(m.size))
