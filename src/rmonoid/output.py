"""
Deterministic JSON payloads, the streamed `idempotents` document, and DOT
exports.

Words are rendered from generator names: joined bare when every name is a
single character, dash-separated otherwise. All lists are sorted, so equal
inputs produce byte-identical output.

`write_system` writes the `idempotents` document record by record, in
either format, rendering each e_J's terms straight from its coefficients.
Its bytes are those of `to_json(system_payload(...))` plus a newline, or
of the text lines built from that payload; the payload functions stay as
the reference it is tested against, and `analyze` and `lattice`, whose
payloads are small, still go through `to_json`.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .lattice import Semilattice
from .monoid import Monoid
from .norton import IdempotentSystem
from .order import OrderRelation

__all__ = [
    "render_word", "element_terms", "lattice_payload", "system_payload",
    "analyze_payload", "hasse_edges", "dot_hasse", "dot_cayley", "to_json",
    "write_system",
]


def _separator(names: list[str]) -> str:
    return "" if all(len(s) == 1 for s in names) else "-"


def render_word(m: Monoid, word: tuple[int, ...]) -> str:
    names = m.gen_names
    return _separator(names).join([names[gi] for gi in word])


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


# one e_J term as `json.dumps(..., indent=2)` lays it out inside a record
_JSON_TERM = '\n        {\n          "word": %s,\n          "coeff": %d\n        }'


def _json_at(obj, pad: str) -> str:
    """`to_json(obj)` with every line after the first indented by pad.
    Encoded JSON strings never hold a raw newline, so only line breaks
    between tokens are touched."""
    return to_json(obj).replace("\n", "\n" + pad)


def write_system(out, lat: Semilattice, system: IdempotentSystem,
                 fmt: str) -> None:
    """Write the `idempotents` document to the stream `out`, one record at
    a time; fmt is 'json' or 'text'.

    The JSON bytes are `to_json(system_payload(lat, system)) + "\n"`: the
    monoid, mode, lattice, each record's header and the verification
    report go through `to_json`, re-indented, and each term is one
    %-format of its coefficient and its ASCII-escaped word, the encoder
    `json.dumps` uses. The text lines are `e<label> = ` followed by the
    terms as `+c*[word]` (`[1]` for the empty word), then the report's
    lines. No term dict and no whole-document string is built.

    Terms come in BFS rank order, the position of each element in
    `Monoid._order`, which is the shortlex order of the stored words that
    `element_terms` sorts by. Proof: the words are the paths of the BFS
    tree, so the words of level d are those of length d, and all of level
    d is ranked before level d+1. Within level d+1, BFS ranks y by (rank
    of its parent p, position of the generator g with y = p*g), and
    word(y) = word(p) + (g,). By induction the parents' ranks order their
    words of length d lexicographically, and these are distinct, so
    (rank of p, g) orders the words of level d+1 lexicographically too.
    Nothing here uses the ids' values, so it holds for `from_table` ids.
    """
    m = lat.monoid
    name, sep = m.gen_names.__getitem__, _separator(m.gen_names)
    root, parent, pgen = m.identity, m._parent, m._parent_gen
    rank = [0] * m.size
    for i, x in enumerate(m._order):
        rank[x] = i
    rendered = {root: ""}       # element -> its word, for this call only

    def terms(e):
        """(rendered word, coefficient) per term of e, in rank order. A
        word is its tree parent's plus one name, so each is built once."""
        c = e.coeffs
        pairs = []
        for x in sorted(c, key=rank.__getitem__):
            w = rendered.get(x)
            if w is None:
                path, y = [], x
                while w is None:
                    path.append(y)
                    y = parent[y]
                    w = rendered.get(y)
                for y in reversed(path):
                    g = name(pgen[y])
                    w = rendered[y] = g if parent[y] == root else w + sep + g
            pairs.append((w, c[x]))
        return pairs

    report = system.verification
    write = out.write
    if fmt == "text":
        for nd in system.data:
            write("e%s = %s\n" % (node_label(lat, nd.node_id), " ".join([
                "%+d*[%s]" % (c, w or "1") for w, c in terms(nd.e)])))
        for line in report.lines() if report is not None else ():
            write(line + "\n")
        return

    write('{\n  "monoid": %s,\n  "mode": %s,\n  "lattice": %s,\n'
          '  "idempotents": %s' % (
              _json_at(monoid_payload(m), "  "), to_json(system.mode_used),
              _json_at(lattice_payload(lat), "  "),
              "[" if system.data else "[]"))
    for i, nd in enumerate(system.data):
        head = {"node_id": nd.node_id, "label": node_label(lat, nd.node_id),
                "T_word": element_word(m, nd.T), "N_B": nd.N_B, "N_z": nd.N_z}
        # the header less its closing "\n}", then the terms
        write('%s\n    %s,\n      "terms": ' % (
            "," if i else "", to_json(head)[:-2].replace("\n", "\n    ")))
        body = ",".join([_JSON_TERM % (encode_basestring_ascii(w), c)
                         for w, c in terms(nd.e)])
        if body:    # written apart: no copy of the largest string
            write("[")
            write(body)
            write("\n      ]\n    }")
        else:
            write("[]\n    }")
    if system.data:
        write("\n  ]")
    if report is not None:
        write(',\n  "verification": ' + _json_at(report.as_dict(), "  "))
    write("\n}\n")
