"""Self-test of the benchmark's output checks and tracer.

    python3 bench/selftest.py

For a few requests of every workload: the real output must pass the
workload's check, and each deliberately corrupted copy of it must fail
the check and change the pass digest.  The tracer must record a listed
name that the library lacks as missing instead of failing, and its
counters must count the library's work while active and only then.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pcgroups  # noqa: E402

from pcgroups import census  # noqa: E402
from tracer import COUNTERS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def _corrupt_words(graphs, req, out):
    nf, rep, h, s = out
    g = graphs[req[0]]
    longer = pcgroups.NormalForm(pcgroups.Word(g, rep.core.idx + (2,)))
    chunks = (h.chunks[0] + (2,),) + h.chunks[1:]
    yield nf, dataclasses.replace(rep, core=longer), h, s
    yield nf, rep, dataclasses.replace(h, chunks=chunks), s


def _corrupt_check(graphs, req, out):
    data = json.loads(out)
    del data["order_of_s"]
    yield json.dumps(data)
    data = json.loads(out)
    data["conclusions"].append({"subset": [], "status": "MAYBE",
                                "justification": ""})
    yield json.dumps(data)


def _corrupt_conj(graphs, req, out):
    yield not out


def _corrupt_census(graphs, req, out):
    bad = json.loads(json.dumps(out))
    if req[0] == "row":
        if req[1] != 5:
            bad["k"] += 1
        else:
            bad["enumerated"]["l2"] += 1
    else:
        bad["rho_sample"] = 1.5
    yield bad


CORRUPT = {"words-long": _corrupt_words, "check-short": _corrupt_check,
           "conjugacy": _corrupt_conj, "census-grid": _corrupt_census}


def _graphs(wl):
    return {name: pcgroups.parse_graph(text) for name, text in wl.graphs.items()}


def _sample(reqs, name):
    if name == "census-grid":  # the cheap rows, both n = 5 and n >= 6
        return [r for r in reqs if r[0] == "density" or r[3] <= 3]
    if name == "conjugacy":  # skip b = 4, which takes seconds
        return [r for r in reqs if r[0] != "join4"]
    return reqs[::4]


def main():
    failures = []
    cases = 0
    for name, wl in WORKLOADS.items():
        graphs = _graphs(wl)
        for req in _sample(wl.make_pass(1, 0, graphs), name):
            out = wl.run(graphs, req)
            good_digest = digest([wl.render(out)])
            if not wl.check(graphs, req, out):
                failures.append(f"{name}: true output rejected for {req!r}")
            for bad in CORRUPT[name](graphs, req, out):
                cases += 1
                if wl.check(graphs, req, bad):
                    failures.append(f"{name}: corrupted output accepted for {req!r}")
                if digest([wl.render(bad)]) == good_digest:
                    failures.append(f"{name}: corrupted output keeps the digest")

    tracer = Tracer({**TARGETS, "words.no_such_function": None},
                    {**COUNTERS, "census.no_such_helper": ("x", "yields")})
    if tracer.missing != ["words.no_such_function", "census.no_such_helper"]:
        failures.append(f"tracer missing list is {tracer.missing}")
    # enumerate_composed runs its engine four times; each walks the
    # 3^k - 1 signed compositions of 1..k
    tracer.install()
    tracer.active = True
    census.enumerate_composed(5, 1, 3)
    tracer.active = False
    census.enumerate_composed(5, 1, 3)
    tracer.uninstall()
    if tracer.counts["alpha_vectors"] != 4 * (3 ** 3 - 1):
        failures.append(f"tracer counted {tracer.counts['alpha_vectors']} "
                        f"alpha vectors, not {4 * (3 ** 3 - 1)}")
    if hasattr(census._alpha_vectors, "__wrapped__"):
        failures.append("uninstall left a counter wrapper bound")

    for f in failures:
        print("FAIL", f)
    print(f"{cases} corrupted outputs tried, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
