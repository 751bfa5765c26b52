"""
The rmonoid benchmark: one workload per invocation, from a checkout's root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--trace 0` times set-up in fresh processes, then runs the workload in one
fresh single-threaded process with no tracing, and reports the end-to-end
metrics. `--trace 1` runs it traced instead and reports the per-layer
metrics; its spans go to `perfbench/out/`. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Exits 2 without a result when the checkout holds no `src/rmonoid`, and 1
when a worker process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def provenance(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an enclosing repo's
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    # the checkout may not be a git repository: fingerprint the sources too
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rmonoid")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "git_sha": sha,
            "src_sha256": h.hexdigest()[:16], "seed": seed}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited {proc.returncode}")
    return proc.stdout


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Interpreter start, `import rmonoid` and input generation, timed whole."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        run_worker(["--workload", workload, "--seed", str(seed),
                    "--setup-only"])
        out.append(perf_counter() - t0)
    return out


def end_to_end(workload: str, seed: int, seconds: int):
    setup = setup_seconds(workload, seed)
    res = json.loads(run_worker(["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds)]).splitlines()[-1])
    # one latency per input (the median of its correct calls); a run with
    # no correct call reports zeros and is marked incorrect by its failures
    lat = res["latencies"] or [0.0]
    n = len(res["latencies"])
    p99 = lat[0] if len(lat) < 2 else statistics.quantiles(
        lat, n=100, method="inclusive")[98]
    calls, busy = res["correct_calls"], res["busy_s"]
    basis = f"{n} inputs, {calls} calls"
    metrics = {
        "latency_s.p50": (statistics.median(lat), "s", basis),
        "latency_s.p99": (p99, "s", basis),
        "throughput_calls_per_s": (calls / busy if calls else 0.0, "1/s",
                                   basis),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "1 process"),
        "setup_s": (statistics.median(setup), "s", f"{len(setup)} processes"),
    }
    return res, metrics


def per_layer(workload: str, seed: int, seconds: int):
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans = os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.json")
    res = json.loads(run_worker(["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace",
                                 "--spans-out", spans]).splitlines()[-1])
    basis = "{traced_passes} traced passes".format(**res["samples"])
    metrics = {}
    for name, value in res["metrics"].items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith("_mb"):
            unit = "MB"
        elif name.endswith("_bits"):
            unit = "bits"
        else:
            unit = "count"
        metrics[name] = (value, unit, basis)
    return res, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "rmonoid", "cli.py")):
        print(f"no rmonoid sources under {ROOT}/src", file=sys.stderr)
        return 2

    prov = provenance(args.seed)
    run = per_layer if args.trace else end_to_end
    try:
        res, metrics = run(args.workload, args.seed, args.seconds)
    except subprocess.TimeoutExpired:
        print(f"worker ran over {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], len(res["errors"])

    print("provenance " + json.dumps(prov))
    for err in res["errors"][:20]:
        print(f"error: {err}")
    print(f"error_rate {failed / attempted:.6g} ({failed}/{attempted} calls)")
    if "samples" in res:
        print("samples " + json.dumps(res["samples"]))
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({n})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
