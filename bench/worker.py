"""Run passes of one workload in this (fresh) interpreter; print JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds T \
        --min-passes M --max-passes X --trace 0|1 --graph-dir DIR [--spans FILE]

Closed loop, one client: each request is sent when the previous one has
returned.  Only the requests are timed (a pass's time is the sum of its
request latencies); making a pass's inputs, reading the calibration
kernel and checking outputs happen outside the clock.  The worker keeps
starting passes until --seconds have gone by and at least --min-passes
are done, or until --max-passes.

With --trace 1 the passes come in pairs on the same inputs, one traced
and one untraced (traced first in even pairs), and the pcgroups caches
are emptied before every pass, so both passes of a pair start as cold as
a fresh interpreter; a traced worker stops only after a whole pair (or
at --max-passes 1: one traced pass).  The per-layer summary and the
spans are those of the first traced pass, plus the graph loading before
it.  bench/run.py starts the worker; it is not meant to be called by
hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pcgroups  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

# Between requests (outside their timing) the calibration kernel is read
# at most this often, so its readings spread over the timed phase.
KERNEL_EVERY_S = 0.05


def clear_caches():
    """Empty every functools cache of the loaded pcgroups modules."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name == "pcgroups" or name.startswith("pcgroups."):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_pass(wl, graphs, reqs, label, kernel_s, tracer=None):
    """Send the requests one after another; return outputs and latencies,
    and each request's calibration reading (the mean of the readings just
    before and just after it)."""
    outs, lat, before = [], [], []
    next_kernel = 0.0
    if tracer:
        tracer.active = True
    for i, req in enumerate(reqs):
        if tracer:
            tracer.request = f"{label}.{i}"
        if perf_counter() >= next_kernel:
            kernel_s.append(calibrate.probe())
            next_kernel = perf_counter() + KERNEL_EVERY_S
        before.append(len(kernel_s) - 1)
        t0 = perf_counter()
        try:
            out = wl.run(graphs, req)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        lat.append(perf_counter() - t0)
        outs.append(out)
    if tracer:
        tracer.active = False
    kernel_s.append(calibrate.probe())
    # the reading after request i is the next one taken
    kernel = [(kernel_s[k] + kernel_s[k + 1]) / 2 for k in before]
    return outs, lat, kernel


def check_pass(wl, graphs, reqs, outs, errors):
    """Check every output; return the failed count and the pass digest."""
    failed = 0
    texts = []
    for req, out in zip(reqs, outs):
        if isinstance(out, Exception):
            ok, text = False, f"error: {out!r}"
        else:
            try:
                ok = bool(wl.check(graphs, req, out))
            except Exception as exc:  # a check that cannot run fails
                ok = False
                errors.append(f"check {req!r}: {exc!r}")
            text = wl.render(out)
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(f"failed {req!r}: {text[:200]}")
        texts.append(text)
    return failed, digest(texts)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--max-passes", type=int, default=10_000)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph-dir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    if Path(pcgroups.__file__).resolve().parent != ROOT / "src" / "pcgroups":
        sys.exit(f"pcgroups imported from {pcgroups.__file__}, not from src/")
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.active = True
    graphs = {name: pcgroups.load_graph(args.graph_dir / f"{name}.txt")
              for name in wl.graphs}
    if tracer:
        tracer.active = False

    deadline = perf_counter() + args.seconds
    passes = []
    errors = []
    kernel_s = []
    first_trace = None
    while True:
        k = len(passes)
        if tracer:
            inputs = k // 2
            traced = (k % 2 == 0) == (inputs % 2 == 0)
            if traced:
                tracer.install()
                if first_trace is not None:
                    tracer.reset()
            else:
                tracer.uninstall()
            clear_caches()
        else:
            inputs, traced = k, False
        reqs = wl.make_pass(args.seed, inputs, graphs)
        outs, lat, kernel = run_pass(wl, graphs, reqs, k, kernel_s,
                                     tracer if traced else None)
        if traced and first_trace is None:
            first_trace = {"layers": tracer.summarise(),
                           "counts": dict(tracer.counts)}
            if args.spans:
                tracer.write(args.spans)
        failed, pass_digest = check_pass(wl, graphs, reqs, outs, errors)
        passes.append({"inputs": inputs, "traced": traced, "digest": pass_digest,
                       "seconds": sum(lat), "latencies": lat, "kernel": kernel,
                       "attempted": len(reqs), "failed": failed})
        if len(passes) >= args.max_passes:
            break
        if (len(passes) >= args.min_passes and perf_counter() >= deadline
                and not (tracer and len(passes) % 2)):
            break

    result = {
        "workload": wl.name,
        "passes": passes,
        "errors": errors,
        "kernel_s": kernel_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result.update(first_trace)
        result["missing"] = tracer.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
