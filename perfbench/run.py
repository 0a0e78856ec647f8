"""finembed benchmark: one workload, one seed, timed end to end.

    python3 perfbench/run.py --workload large-window --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; finembed is imported from ./src.
The workload's queries are generated from the seed and run in passes
(closed loop, one client, single-threaded) until --seconds of query time
have been measured.  Every answer is checked outside the program (see
oracle.py); for seed 0 the output bytes must also match the digests recorded
in golden_seed0.json.

Timings are normalized to the host's current speed.  On a shared host the
CPU speed seen by one process can drift by tens of percent over seconds as
other tenants load it, which moves raw wall times far more than the changes
this benchmark must resolve.  A fixed pure-Python reference loop runs
between blocks of queries (and
around each set-up spawn); every latency is scaled by REF_NOMINAL_S over the
reference time measured around it, i.e. it is reported in milliseconds on a
host where the reference loop takes exactly 1 ms.  Raw wall-clock figures
and the reference times are printed on the detail line.

The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones (setup_s, queries_per_s,
query_p50_ms, query_tail_ms, peak_rss_mb); with --trace 1 the run alternates
untraced and traced passes and the metrics are the per-layer ones, per
traced pass.  The line before it stamps the run (versions, nproc, seed) and
gives the tail percentile, sample counts, failed_frac and, when traced, the
per-layer self time by query kind and window size.  Traced runs also write
their spans to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden_seed0.json"
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 7
QUERY_BUDGET_S = 60.0   # a query slower than this counts as failed
WALL_LIMIT_S = 150.0    # no new pass starts after this much wall time
REF_NOMINAL_S = 1e-3    # reported times assume the reference loop takes this
REF_BLOCK_S = 0.05      # query time between two reference measurements


def digest(text: str) -> str:
    """Short output digest: 64 bits are plenty to detect a changed output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def bootstrap() -> None:
    """Import finembed from this checkout's src/, never from elsewhere.
    Runs before anything imports numpy, so its thread pools stay single."""
    if not (SRC / "finembed" / "__init__.py").is_file():
        sys.exit(f"error: no finembed sources under {SRC}")
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import finembed
    if Path(finembed.__file__).resolve().parent != (SRC / "finembed").resolve():
        sys.exit(f"error: finembed imported from {finembed.__file__}")


def measure_setup() -> tuple[float, float]:
    """Median seconds from spawning a fresh interpreter until finembed and
    its CLI are imported, normalized and raw.  The child reports the
    (system-wide) monotonic clock once ready; a first spawn warms the
    bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    code = "import time, finembed, finembed.cli; print(time.monotonic())"
    raw, norm = [], []
    for i in range(SETUP_RUNS + 1):
        ref = reference_loop()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        ref = (ref + reference_loop()) / 2
        if i:
            raw.append(float(proc.stdout.strip()) - t0)
            norm.append(raw[-1] * REF_NOMINAL_S / ref)
    return statistics.median(norm), statistics.median(raw)


def stamp(workload: str, seed: int) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


class Runner:
    """Runs passes over a workload's queries and keeps every latency."""

    def __init__(self, workload, golden: dict | None):
        self.workload = workload
        self.golden = golden
        self.verified: dict[tuple[str, str], str | None] = {}
        self.latencies: list[float] = []   # raw seconds
        self.normalized: list[float] = []  # seconds at reference speed
        self.refs: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def _check(self, query, text: str) -> str | None:
        """None if the answer is right, else the reason.  Each distinct
        (query, output) pair is checked once per run."""
        key = (query.qid, text)
        if key not in self.verified:
            reason = None
            try:
                query.check(text)
            except Exception as exc:  # a malformed answer fails its query
                reason = f"check: {type(exc).__name__}: {exc}"
            if reason is None and self.golden is not None:
                if self.golden.get(query.qid) != digest(text):
                    reason = "digest differs from golden_seed0.json"
            self.verified[key] = reason
        return self.verified[key]

    def run_pass(self, tracer=None) -> float:
        """One pass over all queries; returns its query time in seconds.
        Answers are checked after the pass, with tracing uninstalled."""
        results, refs = [], []
        block, ref_before = 0.0, reference_loop()
        if tracer is not None:
            tracer.install()
        try:
            for query in self.workload.queries:
                if tracer is not None:
                    tracer.qid = query.qid
                t0 = time.perf_counter()
                try:
                    text, error = query.run(), None
                except Exception as exc:  # any error is a failed query, not a crash
                    text, error = None, f"error: {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                results.append((query, text, error, dt))
                block += dt
                if block >= REF_BLOCK_S or len(results) == len(self.workload.queries):
                    ref_after = reference_loop()
                    refs += [(ref_before + ref_after) / 2] * (len(results) - len(refs))
                    block, ref_before = 0.0, ref_after
        finally:
            if tracer is not None:
                tracer.qid = None
                tracer.uninstall()
        for (query, text, error, dt), ref in zip(results, refs):
            self.attempted += 1
            self.latencies.append(dt)
            self.normalized.append(dt * REF_NOMINAL_S / ref)
            self.refs.append(ref)
            if error is None and dt > QUERY_BUDGET_S:
                error = f"over budget: {dt:.1f}s"
            if error is None:
                error = self._check(query, text)
            if error is not None:
                self.failures.append(f"{query.qid}: {error}")
        return sum(r[3] for r in results)


def hd_quantile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile: a Beta-weighted mean
    of all order statistics.  Unlike a single order statistic it does not
    jump between neighbouring samples, so it is steadier from run to run.
    The Beta(p(n+1), (1-p)(n+1)) CDF is integrated numerically (midpoint
    rule, which stays finite at the end points)."""
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n, p, grid = len(x), pct / 100, 1 << 17
    t = (np.arange(grid) + 0.5) / grid
    logpdf = (p * (n + 1) - 1) * np.log(t) + ((1 - p) * (n + 1) - 1) * np.log1p(-t)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    edges = np.interp(np.arange(n + 1) / n, np.arange(grid + 1) / grid, cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def latency_figures(runner: Runner, lat: list[float]) -> tuple[float, float, float]:
    """(queries per second, p50 ms, tail ms) from one latency per attempt."""
    queries = runner.workload.queries
    # Each query's time is its median over the passes, so a burst of load
    # during one pass does not move the throughput of the fixed query set.
    per_query = [statistics.median(lat[i::len(queries)]) for i in range(len(queries))]
    completed = 1 - len(runner.failures) / runner.attempted
    return (completed * len(queries) / sum(per_query), hd_quantile(lat, 50) * 1e3,
            hd_quantile(lat, runner.workload.tail_pct) * 1e3)


def end_to_end(runner: Runner, setup: tuple[float, float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    qps, p50, tail = latency_figures(runner, runner.normalized)
    raw_qps, raw_p50, raw_tail = latency_figures(runner, runner.latencies)
    pct = runner.workload.tail_pct
    cut = tail / 1e3
    metrics = {
        "setup_s": (setup[0], "s"),
        "queries_per_s": (qps, "1/s"),
        "query_p50_ms": (p50, "ms"),
        "query_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "tail": {"percentile": pct, "samples": len(runner.normalized),
                 "beyond": sum(1 for x in runner.normalized if x > cut)},
        "raw": {"setup_s": setup[1], "queries_per_s": raw_qps, "query_p50_ms": raw_p50,
                "query_tail_ms": raw_tail},
        "reference_ms": {"median": statistics.median(runner.refs) * 1e3,
                         "min": min(runner.refs) * 1e3, "max": max(runner.refs) * 1e3},
    }
    return metrics, detail


def per_layer(tracer, traced_s: float, untraced_s: float, passes: int,
              kind_of: dict) -> tuple[dict, dict]:
    from tracing import (BUILDERS, CONTAINS, MATERIALIZE, PARSERS, SERIALIZERS)
    selfs = tracer.self_times()

    def own(pred) -> float:
        return sum(s for _q, layer, name, s in selfs if pred(layer, name)) / passes

    def count(name: str) -> float:
        return sum(v for (_q, n), v in tracer.counts.items() if n == name) / passes

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    examined, candidates = count("embed.params_examined"), count("families.candidates")
    shift_evals, nodes = count("density.shift_evals"), count("prsearch.nodes")
    scan_s = own(lambda l, n: n == "upper_density")
    backtrack_s = own(lambda l, n: n in ("find_avoiding_coloring", "strong_pr_probe"))
    embed_scan_s = tracer.embed_scan_seconds() / passes
    m = {
        "carrier.materialize_s": (own(lambda l, n: n in MATERIALIZE), "s"),
        "carrier.materialized_elems": (count("carrier.materialized_elems"), "count"),
        "carrier.contains_calls": (tracer.agg_calls(CONTAINS) / passes, "count"),
        "carrier.contains_s": (own(lambda l, n: n in CONTAINS), "s"),
        "families.enumerate_s": (own(lambda l, n: n == "FamilySpec.enumerate_params"), "s"),
        "families.candidates": (candidates, "count"),
        "families.build_s": (own(lambda l, n: n in BUILDERS), "s"),
        "embed.self_s": (own(lambda l, n: l == "embed"), "s"),
        "embed.params_examined": (examined, "count"),
        "embed.candidate_use": (rate(examined, candidates), "ratio"),
        "embed.params_per_s": (rate(examined, embed_scan_s), "1/s"),
        "rich.ap_s": (own(lambda l, n: n == "longest_ap"), "s"),
        "rich.ps_s": (own(lambda l, n: n == "is_piecewise_syndetic_window"), "s"),
        "rich.thick_s": (own(lambda l, n: n == "is_thick_window"), "s"),
        "density.scan_s": (scan_s, "s"),
        "density.shift_evals": (shift_evals, "count"),
        "density.shift_evals_per_s": (rate(shift_evals, scan_s), "1/s"),
        "prsearch.instances_s": (own(lambda l, n: n == "Pattern.instances"), "s"),
        "prsearch.instances": (count("prsearch.instances"), "count"),
        "prsearch.backtrack_s": (backtrack_s, "s"),
        "prsearch.nodes": (nodes, "count"),
        "prsearch.nodes_per_s": (rate(nodes, backtrack_s), "1/s"),
        "prsearch.threshold_steps": (tracer.threshold_steps() / passes, "count"),
        "jsonio.parse_s": (own(lambda l, n: n in PARSERS), "s"),
        "jsonio.serialize_s": (own(lambda l, n: n in SERIALIZERS), "s"),
        "jsonio.bytes_out": (count("jsonio.bytes_out"), "B"),
        "cli.dispatch_self_s": (own(lambda l, n: n == "dispatch"), "s"),
        "verify.self_s": (own(lambda l, n: n == "run_suite"), "s"),
        "verify.checks": (count("verify.checks"), "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    # Self seconds per traced pass, by layer, query kind and window size.
    breakdown: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for qid, layer, _name, s in selfs:
        kind, size = kind_of.get(qid, ("harness", 0))
        breakdown[layer][kind][str(size)] += s / passes
    detail = {"candidate_use_bases": {"examined": examined, "candidates": candidates},
              "self_s_by_layer_kind_size": breakdown}
    return m, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal input sizes, for checking the result layout")
    args = ap.parse_args()

    bootstrap()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    started = time.monotonic()
    setup = measure_setup() if not args.trace else (0.0, 0.0)

    golden = None
    if args.seed == 0 and not args.smoke:
        golden = json.loads(GOLDEN.read_text()).get(args.workload, {})
    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        runner = Runner(workload, golden)
        info = {"stamp": stamp(args.workload, args.seed),
                "queries_per_pass": len(workload.queries)}
        if args.trace:
            metrics, detail = traced_run(runner, args)
        else:
            measured, passes = 0.0, 0
            while passes < 1 or (
                    (passes < workload.min_passes or measured < args.seconds)
                    and time.monotonic() - started < WALL_LIMIT_S):
                measured += runner.run_pass()
                passes += 1
            # Read before the statistics below allocate anything.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, detail = end_to_end(runner, setup, peak_rss_mb)
            info["measured_s"] = measured
        info.update(detail, passes=len(runner.latencies) // len(workload.queries),
                    failed_frac=len(runner.failures) / runner.attempted,
                    failures=runner.failures[:10])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(runner: Runner, args) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; the first untraced pass also
    warms up and checks every answer before anything is traced."""
    from tracing import Tracer
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    pairs = 0
    started = time.monotonic()
    while pairs < 1 or (untraced_s + traced_s < args.seconds
                        and time.monotonic() - started < WALL_LIMIT_S):
        untraced_s += runner.run_pass()
        traced_s += runner.run_pass(tracer)
        pairs += 1
    kind_of = {q.qid: (q.kind, q.size) for q in runner.workload.queries}
    metrics, detail = per_layer(tracer, traced_s, untraced_s, pairs, kind_of)
    out = HERE / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
    out.parent.mkdir(exist_ok=True)
    with gzip.open(out, "wt") as fh:
        json.dump({"stamp": stamp(args.workload, args.seed), "traced_passes": pairs,
                   "metrics": {k: v for k, (v, _u) in metrics.items()},
                   **detail, **tracer.dump()}, fh)
    detail["trace_file"] = str(out.relative_to(ROOT))
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
