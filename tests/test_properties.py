"""Property tests. Hypothesis runs derandomized, so every run draws the
same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rmonoid import (CapExceeded, Transformation, build_semilattice, close,
                     e_system, verify_system)

from conftest import CORRUPTIONS, corrupted
from oracle import system_check_lines

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
