"""Property tests. Hypothesis runs derandomized, so every run draws the
same examples."""

import dataclasses
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rmonoid import (CapExceeded, Transformation, build_semilattice, close,
                     e_system, from_coeffs, from_table, verify_system)
from rmonoid.output import write_system

from conftest import CORRUPTIONS, corrupted
from oracle import joined_idempotents, system_check_lines

POINTS = 5


@st.composite
def order_decreasing_monoids(draw):
    """Closures of 2 or 3 order-decreasing maps of a 5-point chain, at
    most 40 elements; every such monoid is R-trivial."""
    maps = draw(st.lists(
        st.tuples(*(st.integers(0, i) for i in range(POINTS))),
        min_size=2, max_size=3))
    try:
        return close([Transformation(images) for images in maps], cap=40)
    except CapExceeded:
        hypothesis.reject()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(m=order_decreasing_monoids(), data=st.data())
def test_verify_system_lines_match_oracle_on_one_corruption(m, data):
    lat = build_semilattice(m)
    sys_ = e_system(lat, "auto")
    k = lat.n_nodes
    bad = corrupted(sys_, data.draw(st.sampled_from(CORRUPTIONS)),
                    data.draw(st.sampled_from("ePz")),
                    data.draw(st.integers(0, k - 1)),
                    data.draw(st.integers(0, k - 1)),
                    data.draw(st.integers(0, m.size - 1)),
                    data.draw(st.sampled_from((-1, 2))))
    want = system_check_lines(
        m.table(), m.identity, list(m.generators),
        [(nd.node_id, nd.T, nd.z.coeffs, nd.P.coeffs, nd.e.coeffs)
         for nd in bad.data])
    assert verify_system(lat, bad).lines() == want


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(m=order_decreasing_monoids(), data=st.data())
def test_bfs_rank_order_is_shortlex_on_permuted_tables(m, data):
    # from_table keeps the table's ids, so rank and id orders differ
    n, t = m.size, m.table()
    perm = data.draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[t[x][y]]
    tm = from_table(table, identity=perm[m.identity],
                    generators=[perm[g] for g in m.generators])
    assert tm._order == sorted(range(n),
                               key=lambda x: (len(tm.word(x)), tm.word(x)))
    # the writer orders an e with every element in its support by rank
    lat = build_semilattice(tm)
    system = e_system(lat)
    system.data[0] = dataclasses.replace(
        system.data[0], e=from_coeffs(tm, {x: x + 1 for x in range(n)}))
    for fmt in ("json", "text"):
        out = io.StringIO()
        write_system(out, lat, system, fmt)
        assert out.getvalue() == joined_idempotents(lat, system, fmt)
