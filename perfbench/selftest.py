"""
Self-test of the benchmark on tiny inputs; runs in a few seconds.

    python3 perfbench/selftest.py

Asserts that traced and untraced calls print byte-identical output, that
the counters repeat exactly across two traced passes, and that a
corrupted expected digest counts as a failed call; `Tracer.uninstall`
raises if a wrapper is left behind. Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import rmonoid.cli  # noqa: E402,F401  (run_call finds it in sys.modules)
from tracer import Tracer  # noqa: E402
from worker import measure, run_call  # noqa: E402
from workloads import make_calls  # noqa: E402


def outputs(calls, tracer=None) -> list[str]:
    if tracer is not None:
        tracer.install()
    try:
        outs = []
        for call in calls:
            _, out, bad = run_call(call)
            if tracer is not None:
                tracer.end_call()
            if bad:
                raise AssertionError(f"{call.argv[0]} failed its check: {bad}")
            outs.append(out)
        return outs
    finally:
        if tracer is not None:
            tracer.uninstall()


def main() -> int:
    calls = make_calls("selftest", seed=20260809)
    failures = []

    plain = outputs(calls)
    first, second = Tracer(), Tracer()
    if outputs(calls, first) != plain:
        failures.append("traced output differs from untraced output")
    outputs(calls, second)
    if first.counts != second.counts or not first.counts["algebra.products"]:
        failures.append(f"counters did not repeat: {first.counts} != "
                        f"{second.counts}")

    # seconds=0 runs exactly one call through the benchmark's own loop
    corrupt = dataclasses.replace(calls[0], expect="0" * 64)
    for call, want in ((calls[0], 0), (corrupt, 1)):
        res = measure([call], seconds=0.0)
        if res["attempted"] != 1 or len(res["errors"]) != want:
            failures.append(f"error count {len(res['errors'])} != {want} "
                            f"for expected digest {call.expect}")

    for f in failures:
        print(f"FAIL {f}")
    print(f"selftest: {len(calls)} calls, "
          f"{'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
