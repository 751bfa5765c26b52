"""
One workload in one fresh process: import rmonoid, build the inputs, run
CLI calls in-process through `rmonoid.cli.main` with output captured, and
print one JSON object with the measurements.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        [--trace | --setup-only]

`--setup-only` stops after the import and the inputs, so the parent can
time set-up on its own. Run from the root of a checkout: `src/` must hold
the rmonoid package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
from time import perf_counter

from workloads import check, make_calls

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# random-verify: the traced run covers this prefix of the inputs, so its
# counts repeat exactly for a seed whatever the machine's speed
TRACE_CALLS = 200


def run_call(call) -> tuple[float, str, str | None]:
    """Time one CLI call; returns seconds, stdout and the check's verdict.

    `rmonoid.cli.main` is looked up per call, so an installed tracer's
    wrapper is the one that runs.
    """
    main = sys.modules["rmonoid.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(list(call.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:   # a traceback is a wrong answer, not a crash
            rc = f"uncaught {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    text = out.getvalue()
    return dt, text, check(call, rc, text)


def measure(calls, seconds: float) -> dict:
    """Closed loop, one caller: cycle through the calls until time is up.

    The first pass over the calls always completes. After it, a call starts
    only while the mean call so far would still end within `seconds`, so a
    run of slow calls ends near the deadline. Each input's latency is the
    median of its correct calls, which keeps a burst of machine speed-up or
    slow-down that covers a minority of passes out of the result.
    """
    per_input = [[] for _ in calls]
    errors = []
    t_start = perf_counter()
    i = 0
    while True:
        dt, _, bad = run_call(calls[i % len(calls)])
        if bad:
            errors.append(f"call {i + 1}: {bad}")
        else:
            per_input[i % len(calls)].append(dt)
        i += 1
        elapsed = perf_counter() - t_start
        if i >= len(calls) and elapsed + elapsed / i > seconds:
            break
    return {
        "attempted": i,
        "errors": errors,
        "latencies": [statistics.median(ts) for ts in per_input if ts],
        "correct_calls": sum(len(ts) for ts in per_input),
        "busy_s": sum(sum(ts) for ts in per_input),
    }


def traced(calls, seconds: float) -> dict:
    """Traced passes over a fixed call set, then untraced calls to match.

    Traced passes run until half of `seconds` has passed (at least one);
    their counts must agree exactly. The rest of the time measures the same
    calls untraced, for the tracing overhead.
    """
    from tracer import RSS_STAGES, Tracer

    attempted, errors, passes = 0, [], []
    t_start = perf_counter()
    traced_lat = []
    while not passes or perf_counter() - t_start < seconds / 2:
        tr = Tracer()
        tr.install()
        try:
            for call in calls:
                tr.call_id += 1
                dt, _, bad = run_call(call)
                tr.end_call()
                attempted += 1
                traced_lat.append(dt)
                if bad:
                    errors.append(f"traced call {attempted}: {bad}")
        finally:
            tr.uninstall()
        passes.append(tr)
    first = passes[0]
    for tr in passes[1:]:
        if tr.counts != first.counts:
            errors.append("counters differ between traced passes")

    plain = measure(calls, max(seconds - (perf_counter() - t_start), 0))
    attempted += plain["attempted"]
    errors += plain["errors"]

    n = len(calls)

    def per_call(name, self_time=True):
        field = "self_s" if self_time else "total_s"
        return statistics.median(getattr(tr, field).get(name, 0.0) / n
                                 for tr in passes)

    metrics = {
        "families.parse_spec_s": per_call("families.parse_spec"),
        "families.load_self_s": per_call("families.load"),
        "monoid.close_s": per_call("monoid.close"),
        "monoid.from_table_s": per_call("monoid.from_table"),
        "order.weak_preorder_s": per_call("order.weak_preorder"),
        "order.is_j_trivial_s": per_call("order.is_j_trivial"),
        "order.check_left_absorption_s": per_call("order.check_left_absorption"),
        "lattice.build_semilattice_s": per_call("lattice.build_semilattice"),
        "lattice.verify_weak_order_axioms_s":
            per_call("lattice.verify_weak_order_axioms"),
        "algebra.mul_s": per_call("algebra.mul"),
        "norton.e_system_self_s": per_call("norton.e_system"),
        "norton.verify_system_s": per_call("norton.verify_system", False),
        "verify.run_full_suite_self_s": per_call("verify.run_full_suite"),
        "verify.check_omega_identities_s":
            per_call("verify.check_omega_identities"),
        "output.payload_s": statistics.median(
            sum(v for k, v in tr.self_s.items() if k.startswith("output."))
            / n for tr in passes),
        "cli.main_self_s": per_call("cli.main"),
    }
    for name in ("monoid.rows_forced", "algebra.products", "algebra.mult_adds",
                 "lattice.nodes", "norton.N_B_sum", "norton.N_z_sum",
                 "norton.e_terms"):
        metrics[name] = first.counts.get(name, 0) / n
    metrics["norton.max_coeff_bits"] = first.counts.get("norton.max_coeff_bits", 0)
    for stage in RSS_STAGES:
        metrics[f"{stage}.rss_mb"] = first.stage_rss.get(stage, 0.0)
    metrics["trace.overhead_s"] = (statistics.median(traced_lat)
                                   - statistics.median(plain["latencies"] or [0.0]))
    return {
        "attempted": attempted,
        "errors": errors,
        "metrics": metrics,
        "samples": {"traced_calls": len(traced_lat), "traced_passes": len(passes),
                    "untraced_calls": plain["correct_calls"]},
        "spans": [s for tr in passes[:1] for s in tr.spans],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", help="write the first traced pass's spans here")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import rmonoid.cli  # noqa: F401  (part of the set-up being timed)
    calls = make_calls(args.workload, args.seed)
    if args.setup_only:
        return 0

    if args.trace:
        if args.workload == "random-verify":
            calls = calls[:TRACE_CALLS]
        res = traced(calls, args.seconds)
        spans = res.pop("spans")
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent",
                                      "call"], "spans": spans}, fh)
    else:
        res = measure(calls, args.seconds)
    from tracer import rss_mb
    res["peak_rss_mb"] = rss_mb()
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
