"""pcgroups benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload words-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from src/ of
that checkout.  With --trace 0 the run measures the end-to-end metrics
of the workload with tracing off.  With --trace 1 it is the separate
traced run: one traced pass of every workload (per-layer metrics are
read from the workload that exercises the layer), and for the named
workload pairs of traced and untraced passes on the same inputs in one
worker, for the tracing overhead.  Every output is checked; the last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import calibrate
from tracer import loglog_slope, slope

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
DEFAULT_SEED = 1
SETUP_SPAWNS = 12  # before the timed phase, and as many after it
TRACE_PAIRS = 4
WORKER_TIMEOUT = 150

# -S: no site module, so packages installed beside pcgroups (and .pth
# hooks) do not count towards its set-up time.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import pcgroups; "
              "[pcgroups.load_graph(p) for p in sys.argv[2:]]")


# ---------------------------------------------------------------------------
# running workers


def run_worker(workload, seed, seconds, trace, min_passes=1, max_passes=10_000,
               spans=None):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--min-passes", str(min_passes), "--max-passes", str(max_passes),
           "--trace", str(trace), "--graph-dir", str(WORK / "graphs")]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(graph_files, spawns):
    """Wall times of fresh interpreters that import pcgroups and load the
    workload's graphs: what a CLI call pays before any work.

    The wait blocks in waitpid, and a watchdog thread kills a spawn that
    hangs.  subprocess's wait with a timeout would poll instead, at
    intervals growing to 50 ms, and round each time up to the next poll:
    a spawn of 0.11 s then reads 0.115 or 0.165 s."""
    cmd = [sys.executable, "-S", "-c", SETUP_CODE, str(ROOT / "src")]
    cmd += [str(p) for p in graph_files]
    times = []
    for _ in range(spawns):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT)
        watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        times.append(perf_counter() - t0)
        if returncode:
            raise subprocess.CalledProcessError(returncode, cmd)
    return times


def tail(latencies, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    data = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(data)))
    return data[rank - 1], len(data) - rank


def windowed_tail(passes, key, window, pct):
    """Median over consecutive windows of the tail percentile in each
    window, so one burst of outside load moves one window, not the result.
    The passes are split into as many equal windows as hold at least
    `window` passes each, which leaves ten samples beyond the percentile."""
    k = max(1, len(passes) // window)
    groups = [passes[i * len(passes) // k:(i + 1) * len(passes) // k]
              for i in range(k)]
    tails = [tail([x for p in g for x in p[key]], pct) for g in groups]
    return statistics.median(t for t, _ in tails), min(b for _, b in tails), len(tails)


def slot_medians(passes, key):
    """Each request slot's median latency across passes.  Every pass has
    the same shape, so slot i is the same kind of request in each; a burst
    of outside load that hits one pass does not move these medians."""
    return [statistics.median(lat) for lat in zip(*(p[key] for p in passes))]


def latency_metrics(passes, key, wl):
    slots = slot_medians(passes, key)
    tail_s, beyond, windows = windowed_tail(passes, key, wl.min_passes, wl.tail_pct)
    return {
        "ops_per_s": (statistics.median(len(p[key]) / sum(p[key])
                                        for p in passes), "req/s"),
        "latency_p50_ms": (statistics.median(slots) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "grid_s": (sum(slots), "s"),
    }, beyond, windows


# ---------------------------------------------------------------------------
# end-to-end run


def scaled(p):
    """A pass's request latencies, scaled to the reference machine speed."""
    return [x * calibrate.REFERENCE_S / k for x, k in zip(p["latencies"], p["kernel"])]


def timed_run(wl, seed, seconds):
    if wl.fresh_per_pass:
        results = []
        deadline = perf_counter() + seconds
        while len(results) < wl.min_passes or perf_counter() < deadline:
            results.append(run_worker(wl.name, seed, 0, 0, 1, 1))
    else:
        results = [run_worker(wl.name, seed, seconds, 0, wl.min_passes)]
    passes = [p for r in results for p in r["passes"]]
    for p in passes:
        p["scaled"] = scaled(p)
    metrics, beyond, windows = latency_metrics(passes, "scaled", wl)
    unscaled, _, _ = latency_metrics(passes, "latencies", wl)
    metrics["peak_rss_mb"] = (statistics.median(r["rss_mb"] for r in results), "MB")
    kernel_s = statistics.median(x for r in results for x in r["kernel_s"])
    notes = {"passes": len(passes),
             "samples": sum(len(p["latencies"]) for p in passes),
             "tail_percentile": wl.tail_pct, "tail_beyond": beyond,
             "tail_windows": windows, "kernel_ms": kernel_s * 1e3,
             "unscaled": {k: round(v, 6) for k, (v, _) in unscaled.items()}}
    return results, metrics, notes


# ---------------------------------------------------------------------------
# traced run


def _layer(wname, qual, key):
    return (wname, lambda L, counts: L[qual][key] if qual in L else 0)


def _count(wname, key):
    return (wname, lambda L, counts: counts.get(key, 0))


def _minimal_form_slope(L, counts):
    rec = L.get("words.minimal_form")
    if not rec:
        return 0.0
    pts = [(n, d) for n, d in zip(rec["info"], rec["durations_ms"]) if n >= 16]
    return loglog_slope(*zip(*pts)) if len(pts) >= 2 else 0.0


def _k_growth(L, counts):
    """Growth of enumerate_composed time per step of k on the n=5, d=3 rows
    (k >= 4, where the alpha-vector loop dominates)."""
    rec = L.get("census.enumerate_composed")
    if not rec:
        return 0.0
    pts = [(ndk[2], math.log(d)) for ndk, d in zip(rec["info"], rec["durations_ms"])
           if ndk[:2] == [5, 3] and ndk[2] >= 4]
    return math.exp(slope(*zip(*pts))) if len(pts) >= 2 else 0.0


W, C, J, G = "words-long", "check-short", "conjugacy", "census-grid"

# Per-layer metric -> (unit, source workload, extractor over that
# workload's traced layer summary and counts).
PER_LAYER = {
    "words.minimal_form.calls": ("count", *_layer(W, "words.minimal_form", "calls")),
    "words.minimal_form.self_ms": ("ms", *_layer(W, "words.minimal_form", "self_ms")),
    # letters the rewriting engine (reduce_letters) takes in, from
    # minimal_form and from every other caller in the pass
    "words.minimal_form.letters_in": ("count", *_count(W, "reduce_letters_in")),
    "words.minimal_form.l_slope": ("1", W, _minimal_form_slope),
    "cosets.strip_divisors.calls": ("count", *_layer(W, "cosets.strip_divisors", "calls")),
    "cosets.strip_divisors.self_ms": ("ms", *_layer(W, "cosets.strip_divisors", "self_ms")),
    "cosets.double_coset_rep.calls": ("count", *_layer(W, "cosets.double_coset_rep", "calls")),
    "cosets.in_maln.calls": ("count", *_layer(C, "cosets.in_maln", "calls")),
    "cosets.in_maln.self_ms": ("ms", *_layer(C, "cosets.in_maln", "self_ms")),
    "hnn.hnn_factorize.calls": ("count", *_layer(W, "hnn.hnn_factorize", "calls")),
    "hnn.hnn_factorize.self_ms": ("ms", *_layer(W, "hnn.hnn_factorize", "self_ms")),
    "hnn.sigma.calls": ("count", *_layer(W, "hnn.sigma", "calls")),
    "hnn.sigma.self_ms": ("ms", *_layer(W, "hnn.sigma", "self_ms")),
    "hnn.is_t_thick.calls": ("count", *_layer(C, "hnn.is_t_thick", "calls")),
    "hnn.is_t_thick.self_ms": ("ms", *_layer(C, "hnn.is_t_thick", "self_ms")),
    "hnn.is_t_root.calls": ("count", *_layer(C, "hnn.is_t_root", "calls")),
    "hnn.is_t_root.self_ms": ("ms", *_layer(C, "hnn.is_t_root", "self_ms")),
    "freiheitssatz.magnus_verdict.calls": ("count", *_layer(C, "freiheitssatz.magnus_verdict", "calls")),
    "freiheitssatz.magnus_verdict.busy_ms": ("ms", *_layer(C, "freiheitssatz.magnus_verdict", "busy_ms")),
    "freiheitssatz.magnus_verdict.self_ms": ("ms", *_layer(C, "freiheitssatz.magnus_verdict", "self_ms")),
    "freiheitssatz.check_theorem_main.calls": ("count", *_layer(C, "freiheitssatz.check_theorem_main", "calls")),
    "freiheitssatz.check_theorem_main.self_ms": ("ms", *_layer(C, "freiheitssatz.check_theorem_main", "self_ms")),
    "freiheitssatz.check_amalgam.calls": ("count", *_layer(C, "freiheitssatz.check_amalgam", "calls")),
    "freiheitssatz.check_amalgam.self_ms": ("ms", *_layer(C, "freiheitssatz.check_amalgam", "self_ms")),
    "words.support.calls": ("count", *_layer(C, "words.support", "calls")),
    "words.support.self_ms": ("ms", *_layer(C, "words.support", "self_ms")),
    "words.is_cyclically_minimal.calls": ("count", *_layer(C, "words.is_cyclically_minimal", "calls")),
    "words.is_cyclically_minimal.self_ms": ("ms", *_layer(C, "words.is_cyclically_minimal", "self_ms")),
    "freiheitssatz.minimal_form_per_verdict": ("1", C, lambda L, _: (
        L["words.minimal_form"]["calls"] / L["freiheitssatz.magnus_verdict"]["calls"]
        if "words.minimal_form" in L and L.get("freiheitssatz.magnus_verdict", {}).get("calls")
        else 0.0)),
    "words.conjugate_test.calls": ("count", *_layer(J, "words.conjugate_test", "calls")),
    "words.conjugate_test.self_ms": ("ms", *_layer(J, "words.conjugate_test", "self_ms")),
    "words.cyclic_reduce.calls": ("count", *_layer(J, "words.cyclic_reduce", "calls")),
    "words.cyclic_reduce.self_ms": ("ms", *_layer(J, "words.cyclic_reduce", "self_ms")),
    "census.enumerate_composed.calls": ("count", *_layer(G, "census.enumerate_composed", "calls")),
    "census.enumerate_composed.self_ms": ("ms", *_layer(G, "census.enumerate_composed", "self_ms")),
    # exponent vectors the composed-word engine walks (_alpha_vectors yields)
    "census.enumerate_composed.alpha_vectors": ("count", *_count(G, "alpha_vectors")),
    "census.enumerate_composed.k_growth": ("1", G, _k_growth),
    "census.enumerate_LH.calls": ("count", *_layer(G, "census.enumerate_LH", "calls")),
    "census.enumerate_LH.self_ms": ("ms", *_layer(G, "census.enumerate_LH", "self_ms")),
    # normal forms the census enumerators materialise
    "census.enumerate_LH.forms": ("count", *_count(G, "forms")),
    "census.enumerate_LHU.calls": ("count", *_layer(G, "census.enumerate_LHU", "calls")),
    "census.enumerate_LHU.self_ms": ("ms", *_layer(G, "census.enumerate_LHU", "self_ms")),
    "census.density.calls": ("count", *_layer(G, "census.density", "calls")),
    "census.density.self_ms": ("ms", *_layer(G, "census.density", "self_ms")),
    "census.density.busy_ms": ("ms", *_layer(G, "census.density", "busy_ms")),
    "census.census_row.calls": ("count", *_layer(G, "census.census_row", "calls")),
    "census.census_row.busy_ms": ("ms", *_layer(G, "census.census_row", "busy_ms")),
}


def traced_run(wl, seed, seconds, workloads):
    """One traced pass of every other workload, each in a fresh
    interpreter; then one worker for the named workload that runs pairs of
    traced and untraced passes on the same inputs, at least TRACE_PAIRS
    and more while --seconds last.  The tracing overhead is the median
    over pairs of traced / untraced pass time, both scaled by the
    calibration kernel like the end-to-end latencies."""
    start = perf_counter()
    traced = {}
    for name in workloads:
        if name != wl.name:
            traced[name] = run_worker(name, seed, 0, 1, 1, 1,
                                      spans=WORK / f"spans-{name}-{seed}.jsonl")
    left = max(0.0, seconds - (perf_counter() - start))
    traced[wl.name] = run_worker(wl.name, seed, left, 1, 2 * TRACE_PAIRS,
                                 spans=WORK / f"spans-{wl.name}-{seed}.jsonl")
    pairs = {}
    for p in traced[wl.name]["passes"]:
        pairs.setdefault(p["inputs"], {})[p["traced"]] = sum(scaled(p))
    ratios = [pair[True] / pair[False] for pair in pairs.values()]
    metrics = {}
    for metric, (unit, source, fn) in PER_LAYER.items():
        metrics[metric] = (fn(traced[source]["layers"], traced[source]["counts"]), unit)
    metrics["graphs.load_graph.busy_ms"] = (
        sum(r["layers"].get("graphs.load_graph", {}).get("busy_ms", 0.0)
            for r in traced.values()), "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "1")
    missing = sorted({q for r in traced.values() for q in r["missing"]})
    notes = {"overhead_pairs": len(ratios), "missing": missing}
    return list(traced.values()), metrics, notes


# ---------------------------------------------------------------------------
# main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pcgroups" / "__init__.py").is_file():
        print(f"error: no pcgroups sources under {ROOT / 'src'}; run from the "
              "root of a pcgroups checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports pcgroups from src/

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    (WORK / "graphs").mkdir(parents=True, exist_ok=True)
    for w in WORKLOADS.values():
        for name, text in w.graphs.items():
            (WORK / "graphs" / f"{name}.txt").write_text(text, encoding="utf-8")

    if args.trace:
        results, metrics, notes = traced_run(wl, args.seed, args.seconds,
                                             list(WORKLOADS))
    else:
        # Set-up is timed in spawns before and after the timed phase, so a
        # stretch of faster or slower machine does not set the whole median.
        files = [WORK / "graphs" / f"{n}.txt" for n in wl.graphs]
        setup_times(files, 1)  # warm-up: may compile bytecode
        setup = setup_times(files, SETUP_SPAWNS)
        results, metrics, notes = timed_run(wl, args.seed, args.seconds)
        setup += setup_times(files, SETUP_SPAWNS)
        metrics["setup_s"] = (statistics.median(setup), "s")

    attempted = sum(p["attempted"] for r in results for p in r["passes"])
    failed = sum(p["failed"] for r in results for p in r["passes"])
    errors = [e for r in results for e in r["errors"]]
    problems = []
    # Byte-identical reruns: every pass of a workload on the same inputs
    # (traced or not, in any worker) digests the same, and at the default
    # seed the digest of the first inputs is the recorded one.
    expected = json.loads((BENCH / "expected_digests.json").read_text())
    digests = {}
    for r in results:
        for p in r["passes"]:
            digests.setdefault((r["workload"], p["inputs"]), set()).add(p["digest"])
    for (name, inputs), found in digests.items():
        want = expected.get(name) if args.seed == DEFAULT_SEED and inputs == 0 else None
        if len(found) != 1 or (want and found != {want}):
            problems.append(f"{name}: outputs on inputs {inputs} digest "
                            f"{sorted(found)}, expected {want or 'one digest'}")
    correct = failed == 0 and not errors and not problems

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} 1  ({failed}/{attempted})")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    print(f"# digest: {sorted(digests[wl.name, 0])}")
    for p in errors + problems:
        print(f"# problem: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
