"""
Workload inputs and the correctness gate.

Each workload is a list of CLI calls, each with its own expectation. The
checks trust nothing in rmonoid: exit codes and digests are compared with
values recorded in `reference.json`, and the random workload's expected
exit code comes from the benchmark's own closure count.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))

# random order-decreasing transformation monoids, as in acceptance
# criterion 7 but without dropping the ones that exceed the cap
RANDOM_POINTS = 6
RANDOM_CAP = 50


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    kind: str             # which check applies: idempotents, digest, verify
    expect: str | int     # reference digest, or expected exit code


def load_references() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def payload_digest(payload: dict) -> str:
    """Digest of an `idempotents` payload without its verification report.

    The CLI writes `json.dumps(payload, indent=2)`, and key order survives
    a parse, so this is the digest of the exact bytes minus the report.
    """
    rest = {k: v for k, v in payload.items() if k != "verification"}
    return sha256(json.dumps(rest, indent=2))


def closure_size(gens: list[tuple[int, ...]]) -> int:
    """Element count of the monoid the image tuples generate."""
    start = tuple(range(len(gens[0])))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[p] for p in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def random_calls(seed: int, count: int) -> list[Call]:
    rng = random.Random(seed)
    calls = []
    for _ in range(count):
        k = rng.choice((2, 3))
        gens = [tuple(rng.randint(0, i) for i in range(RANDOM_POINTS))
                for _ in range(k)]
        spec = json.dumps({"kind": "transformations",
                           "degree": RANDOM_POINTS,
                           "generators": [list(g) for g in gens],
                           "cap": RANDOM_CAP})
        expect = 4 if closure_size(gens) > RANDOM_CAP else 0
        calls.append(Call(("verify", spec), "verify", expect))
    return calls


def make_calls(workload: str, seed: int) -> list[Call]:
    """The calls of one workload; the fixed-input ones ignore the seed."""
    refs = load_references()
    if workload == "hecke6-idempotents":
        return [Call(("idempotents", '{"kind":"hecke_a","n":6}'),
                     "idempotents", refs[workload])]
    if workload == "hecke7-lattice":
        return [Call(("lattice", '{"kind":"hecke_a","n":7}'),
                     "digest", refs[workload])]
    if workload == "lrb5-idempotents":
        return [Call(("idempotents", '{"kind":"free_lrb","k":5}'),
                     "idempotents", refs[workload])]
    if workload == "random-verify":
        return random_calls(seed, 2000)
    if workload == "selftest":
        return ([Call(("idempotents", '{"kind":"hecke_a","n":4}'),
                      "idempotents", refs["hecke4-idempotents"])]
                + random_calls(seed, 20))
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("hecke6-idempotents", "hecke7-lattice", "lrb5-idempotents",
             "random-verify")


def check(call: Call, rc, out: str) -> str | None:
    """None when the call's exit code and output are right, else why not."""
    if call.kind == "verify":
        if rc != call.expect:
            return f"exit {rc}, expected {call.expect}"
        lines = out.splitlines()
        if rc == 0 and not (lines and all(ln.startswith("PASS") for ln in lines)):
            return "a verify check did not print PASS"
        return None
    if rc != 0:
        return f"exit {rc}, expected 0"
    if call.kind == "digest":
        return None if sha256(out) == call.expect else "stdout digest differs"
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    ver = payload.get("verification", {})
    if not (ver.get("passed") is True and ver.get("checks")
            and all(c.get("passed") is True for c in ver["checks"])):
        return "a verification entry did not pass"
    if payload_digest(payload) != call.expect:
        return "payload digest differs"
    return None
