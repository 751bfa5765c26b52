"""
Spans and counters recorded from outside the rmonoid package.

`Tracer.install()` replaces a fixed set of public functions with wrappers,
in every `rmonoid` module namespace that holds them (the CLI imports names
directly, so patching the defining module alone would miss those calls).
Two methods are wrapped on their classes: `AlgebraElement.__mul__` (a span
plus product counters) and `Monoid.row` (a counter only; it runs far too
often for a span). `Tracer.uninstall()` restores every original and checks
that no wrapper is left behind.

A span records name, start, end, parent span and call id. Spans stay in
memory; self time (span minus its direct child spans) is summed per name as
spans close.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) pairs that get a span; every one is public API.
SPANNED = [
    ("families", "parse_spec"), ("families", "load"),
    ("monoid", "close"), ("monoid", "from_table"),
    ("order", "weak_preorder"), ("order", "is_j_trivial"),
    ("order", "check_left_absorption"),
    ("lattice", "build_semilattice"), ("lattice", "verify_weak_order_axioms"),
    ("norton", "e_system"), ("norton", "verify_system"),
    ("verify", "run_full_suite"), ("verify", "check_omega_identities"),
    ("output", "system_payload"), ("output", "analyze_payload"),
    ("output", "monoid_payload"), ("output", "lattice_payload"),
    ("output", "hasse_edges"), ("output", "to_json"),
    ("cli", "main"),
]

# stages after which the RSS high-water mark is read
RSS_STAGES = ("families.load", "lattice.build_semilattice", "norton.e_system")


def rmonoid_modules() -> list:
    """Every loaded rmonoid module, after importing the ones SPANNED names."""
    for modname, _ in SPANNED:
        importlib.import_module(f"rmonoid.{modname}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "rmonoid" or name.startswith("rmonoid.")]


def rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, call)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.stage_rss: dict[str, float] = {}
        self.call_id = 0
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 0
        self._rows: dict = {}          # monoid -> set of requested rows
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn):
        stack, self_s, total_s = self._stack, self.self_s, self.total_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if parent is not None:
                    parent[1] += dur
                self.spans.append((sid, name, t0, t1,
                                   parent[0] if parent else None,
                                   self.call_id))
            self._returned(name, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _returned(self, name: str, result) -> None:
        """Read the RSS mark and the shape counts off a stage's result."""
        if name in RSS_STAGES:
            self.stage_rss[name] = rss_mb()
        c = self.counts
        if name == "lattice.build_semilattice":
            c["lattice.nodes"] += result.n_nodes
        elif name == "norton.e_system":
            for nd in result.data:
                c["norton.N_B_sum"] += nd.N_B
                c["norton.N_z_sum"] += nd.N_z
                c["norton.e_terms"] += len(nd.e.coeffs)
                bits = max((abs(v).bit_length() for v in nd.e.coeffs.values()),
                           default=0)
                c["norton.max_coeff_bits"] = max(c["norton.max_coeff_bits"],
                                                 bits)

    def end_call(self) -> None:
        """Fold the rows requested during one CLI call into the counter."""
        self.counts["monoid.rows_forced"] += sum(
            len(s) for s in self._rows.values())
        self._rows.clear()

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = rmonoid_modules()
        for modname, attr in SPANNED:
            name = f"{modname}.{attr}"
            orig = getattr(sys.modules[f"rmonoid.{modname}"], attr)
            wrapper = self._span(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)

        elem = importlib.import_module("rmonoid.algebra").AlgebraElement
        mul = elem.__mul__
        counts = self.counts

        def counted_mul(a, b):
            if isinstance(b, elem):
                counts["algebra.products"] += 1
                counts["algebra.mult_adds"] += len(a.coeffs) * len(b.coeffs)
            return mul(a, b)
        self._set(elem, "__mul__", self._span("algebra.mul", counted_mul))

        monoid_cls = importlib.import_module("rmonoid.monoid").Monoid
        row = monoid_cls.row
        rows = self._rows

        @functools.wraps(row)
        def counted_row(m, x):
            try:
                seen = rows[m]
            except KeyError:
                seen = rows[m] = set()
            seen.add(x)
            if len(seen) == m.size:
                # nothing left to count: an instance attribute takes this
                # monoid's millions of remaining calls off the wrapper
                m.row = types.MethodType(row, m)
            return row(m, x)
        counted_row.__perfbench_wrapper__ = True
        self._set(monoid_cls, "row", counted_row)

    def uninstall(self) -> None:
        """Restore every patched attribute; raise if a wrapper survives."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        left = leftover_wrappers()
        if left:
            raise RuntimeError(f"wrappers still installed: {left}")


def leftover_wrappers() -> list[str]:
    """Names of rmonoid attributes that are still benchmark wrappers."""
    owners = [(m.__name__, m) for m in rmonoid_modules()]
    owners += [("AlgebraElement", sys.modules["rmonoid.algebra"].AlgebraElement),
               ("Monoid", sys.modules["rmonoid.monoid"].Monoid)]
    return [f"{n}.{key}" for n, owner in owners
            for key, val in vars(owner).items()
            if getattr(val, "__perfbench_wrapper__", False)]
