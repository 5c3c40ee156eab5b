"""Command-line front end.

Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage
error (argparse).  ``--json`` switches report-producing commands to
their JSON schemas.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hnn as hnn_mod
from .errors import PcgError
from .freiheitssatz import magnus_verdict
from .graphs import load_graph
from .words import (
    conjugate_test,
    equal,
    minimal_form,
    parse_word,
    support,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pcgroups",
        description="Exact computation in finitely generated partially "
                    "commutative groups: canonical forms, HNN-relative "
                    "factorisation, embedding-theorem verdicts and the "
                    "chorded-cycle census.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, graph=True, word=True):
        p = sub.add_parser(name, help=help_)
        if graph:
            p.add_argument("--graph", required=True, help="graph file path")
        if word:
            p.add_argument("--word", required=True, help="word over the graph")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--out", help="write output to this path")
        return p

    add("normalize", "canonical minimal form of a word")
    p = add("equal", "whether two words represent the same element")
    p.add_argument("--word2", required=True)
    p = add("conjugate", "whether two words are conjugate")
    p.add_argument("--word2", required=True)
    add("support", "generators occurring in the minimal form")
    p = add("hnn", "reduced factorisation relative to a generator")
    p.add_argument("--t", required=True)
    p = add("sigma", "double-coset symbol image of the factorisation")
    p.add_argument("--t", required=True)
    p = add("check", "embedding-theorem report for a relator root")
    p.add_argument("--t", help="candidate generator (default: all of supp)")
    p.add_argument("--n", type=int, required=True, help="relator exponent")

    for name, help_ in (("census", "normal-form census row for one (n,d,k)"),
                        ("density", "density of theorem-ready words")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=int, required=True, help="cycle size >= 5")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--mode", choices=("exhaustive", "sample"),
                       default="exhaustive")
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write output to this path")
    return parser


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (PcgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd in ("census", "density"):
        from . import census as census_mod  # only these commands load it
        if cmd == "census":
            row = census_mod.census_row(args.n, args.d, args.k, mode=args.mode,
                                        samples=args.samples, seed=args.seed)
            _emit(args, row.to_json() if args.json
                  else census_mod.rows_to_csv([row]).rstrip("\n"))
        else:
            res = census_mod.density(args.n, args.d, args.k, mode=args.mode,
                                     samples=args.samples, seed=args.seed)
            with census_mod._AllDigits():
                _emit(args, json.dumps(res, indent=2) if args.json else
                      "\n".join(f"{k}: {v}" for k, v in res.items()))
        return 0

    g = load_graph(args.graph)
    w = parse_word(args.word, g)
    if cmd == "normalize":
        nf = minimal_form(g, w)
        _emit(args, json.dumps({"normal_form": str(nf)}) if args.json else str(nf))
    elif cmd == "equal":
        res = equal(g, w, parse_word(args.word2, g))
        _emit(args, json.dumps({"equal": res}) if args.json
              else ("true" if res else "false"))
    elif cmd == "conjugate":
        res = conjugate_test(g, w, parse_word(args.word2, g))
        _emit(args, json.dumps({"conjugate": res}) if args.json
              else ("true" if res else "false"))
    elif cmd == "support":
        names = support(g, w)
        supp = [v for v in g.vertices if v in names]
        _emit(args, json.dumps({"support": supp}) if args.json
              else " ".join(supp) or "(empty)")
    elif cmd == "hnn":
        h = hnn_mod.hnn_factorize(g, args.t, w)
        if args.json:
            _emit(args, json.dumps({
                "factorisation": str(h),
                "t_length": hnn_mod.t_length(h),
                "cyclically_reduced":
                    hnn_mod.is_cyclically_reduced_hnn(g, args.t, h),
            }, indent=2))
        else:
            _emit(args, f"{h}   (t-length {hnn_mod.t_length(h)})")
    elif cmd == "sigma":
        h = hnn_mod.hnn_factorize(g, args.t, w)
        sw = hnn_mod.sigma(g, args.t, h)
        _emit(args, json.dumps({"sigma": str(sw)}) if args.json else str(sw))
    elif cmd == "check":
        report = magnus_verdict(g, w, args.n, t=args.t)
        _emit(args, report.to_json() if args.json else report.to_text())
    else:  # pragma: no cover
        raise AssertionError(cmd)
    return 0


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
