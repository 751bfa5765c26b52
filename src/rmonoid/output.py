"""
Deterministic JSON payloads and DOT exports.

Words are rendered from generator names: joined bare when every name is a
single character, dash-separated otherwise. All lists are sorted, so equal
inputs produce byte-identical output.
"""

from __future__ import annotations

import json

from .lattice import Semilattice
from .monoid import Monoid
from .norton import IdempotentSystem
from .order import OrderRelation

__all__ = [
    "render_word", "element_terms", "lattice_payload", "system_payload",
    "analyze_payload", "hasse_edges", "dot_hasse", "dot_cayley", "to_json",
]


def render_word(m: Monoid, word: tuple[int, ...]) -> str:
    names = m.gen_names
    parts = [names[gi] for gi in word]
    if all(len(s) == 1 for s in names):
        return "".join(parts)
    return "-".join(parts)


def element_word(m: Monoid, x: int) -> str:
    return render_word(m, m.word(x))


def element_terms(m: Monoid, elem) -> list[dict]:
    """Terms as {word, coeff}, sorted shortlex by the underlying word."""
    items = sorted(
        ((m.word(x), c) for x, c in elem.coeffs.items()),
        key=lambda t: (len(t[0]), t[0]),
    )
    return [{"word": render_word(m, w), "coeff": c} for w, c in items]


def _dot_quote(s: str) -> str:
    """Escape a label for a double-quoted DOT string."""
    return s.replace("\\", "\\\\").replace('"', '\\"')


def node_label(lat: Semilattice, J: int) -> str:
    names = [lat.monoid.gen_names[gi] for gi in lat.generator_label(J)]
    return "{" + ",".join(names) + "}"


def lattice_payload(lat: Semilattice) -> list[dict]:
    return [
        {
            "node_id": nd.node_id,
            "label": node_label(lat, nd.node_id),
            "ideal_size": nd.ideal_size,
            "witness_word": element_word(lat.monoid, nd.witness),
        }
        for nd in lat.nodes
    ]


def monoid_payload(m: Monoid) -> dict:
    return {
        "size": m.size,
        "generators": [
            {"name": m.gen_names[gi], "element_word": element_word(m, g)}
            for gi, g in enumerate(m.generators)
        ],
    }


def system_payload(lat: Semilattice, sys: IdempotentSystem) -> dict:
    m = lat.monoid
    payload = {
        "monoid": monoid_payload(m),
        "mode": sys.mode_used,
        "lattice": lattice_payload(lat),
        "idempotents": [
            {
                "node_id": nd.node_id,
                "label": node_label(lat, nd.node_id),
                "T_word": element_word(m, nd.T),
                "N_B": nd.N_B,
                "N_z": nd.N_z,
                "terms": element_terms(m, nd.e),
            }
            for nd in sys.data
        ],
    }
    if sys.verification is not None:
        payload["verification"] = sys.verification.as_dict()
    return payload


def analyze_payload(m: Monoid, order: OrderRelation,
                    lat: Semilattice | None = None,
                    axiom_report=None, j_trivial: bool | None = None) -> dict:
    payload: dict = {
        "monoid": monoid_payload(m),
        "associativity_verified": True,  # tables pass Light's test
        "r_trivial": order.is_partial_order,
        "chain_length": order.chain_length,
    }
    if order.witness is not None:
        x, y = order.witness
        payload["witness"] = {
            "elements": [x, y],
            "words": [element_word(m, x), element_word(m, y)],
        }
    if j_trivial is not None:
        payload["j_trivial"] = j_trivial
    if lat is not None:
        payload["lattice_size"] = lat.n_nodes
        payload["lattice"] = lattice_payload(lat)
    if axiom_report is not None:
        payload["weak_order_axioms"] = axiom_report.as_dict()
    return payload


def hasse_edges(lat: Semilattice) -> list[tuple[int, int]]:
    """Cover pairs (a, b) with a strictly below b and nothing in between."""
    edges = []
    for a in range(lat.n_nodes):
        above = [b for b in lat.strictly_above(a)]
        for b in above:
            if not any(c != b and lat.preceq(c, b) for c in above):
                edges.append((a, b))
    return edges


def dot_hasse(lat: Semilattice) -> str:
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for nd in lat.nodes:
        label = _dot_quote(node_label(lat, nd.node_id))
        lines.append(f'  n{nd.node_id} [label="{label}"];')
    for a, b in hasse_edges(lat):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_cayley(m: Monoid) -> str:
    """Right Cayley graph on the generators, self-loops omitted."""
    lines = ["digraph cayley {"]
    for x in range(m.size):
        w = element_word(m, x) or "1"
        lines.append(f'  e{x} [label="{_dot_quote(w)}"];')
    for x in range(m.size):
        for gi in range(len(m.generators)):
            y = m.gen_step(x, gi)
            if y != x:
                lines.append(f'  e{x} -> e{y} '
                             f'[label="{_dot_quote(m.gen_names[gi])}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(payload) -> str:
    return json.dumps(payload, indent=2)
