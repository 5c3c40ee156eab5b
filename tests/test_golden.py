"""Golden outputs: digests of what the library prints over fixed inputs.

Each section renders a fixed, seeded set of results as text lines and
hashes them.  A change that must leave every output byte-identical (a
refactor, a speed-up) keeps all four digests; a change that alters an
output on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in its change notes which outputs changed and why.  Sets are
rendered sorted, since string hashing is salted per process.
"""

import hashlib
import random

from pcgroups import census
from pcgroups.cosets import parabolic, strip_divisors
from pcgroups.errors import PcgError
from pcgroups.freiheitssatz import magnus_verdict
from pcgroups.graphs import (build_graph, complement_components,
                             cycle_with_chord, plain_cycle)
from pcgroups.hnn import hnn_factorize, is_cyclically_reduced_hnn, sigma
from pcgroups.words import (block_decomposition, conjugate_test,
                            cyclic_reduce, minimal_form)
from oracles import catalog, random_graph

GOLDEN = {
    "verdicts": "c6360c12cdfa9aa73988c392d0d66474eaa236e66680d99a6dee692f20043329",
    "words": "ce553c9bad84027774c04d1ed55b4e1b3462b2fbd7a2b5f0ac78ab449c754e29",
    "conjugacy": "2dd0d73b30349a059390b5a5d823a072207b5b6862c699f611846d42316bd818",
    "census": "9cf09a00095508e49924fa8d6973f2e3d3068b2b0279eaa2ae5b357b20439af1",
}


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _cycle(names):
    return [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]


def _centred(g):
    """g with a vertex z adjacent to every vertex: a central generator."""
    return build_graph(list(g.vertices) + ["z"], [tuple(e) for e in g.edges]
                       + [(v, "z") for v in g.vertices])


def _check_short_graphs():
    """The graphs of the check-short benchmark workload."""
    abcd = ["a", "b", "c", "d"]
    return [
        build_graph(abcd, [("a", "b"), ("b", "c"), ("c", "d")]),
        build_graph(abcd, _cycle(abcd)),
        build_graph(abcd, _cycle(abcd) + [("a", "c")]),
        plain_cycle(5),
        cycle_with_chord(5),
        cycle_with_chord(6),
        _centred(cycle_with_chord(5)),
    ]


def _verdict_graphs():
    rng = random.Random(2101)
    graphs = _check_short_graphs() + list(catalog().values())
    graphs += [plain_cycle(6), plain_cycle(7), cycle_with_chord(7),
               _centred(catalog()["P4"]), _centred(plain_cycle(5))]
    randoms = [random_graph(rng, 8) for _ in range(8)]
    return graphs + randoms + [_centred(g) for g in randoms[:3]]


def _random_text(rng, names, lo, hi):
    return " ".join(rng.choice(names) + rng.choice(("", "^-1"))
                    for _ in range(rng.randint(lo, hi))) or "1"


def _sorted_names(g, names):
    return " ".join(sorted(names, key=g.index))


def _try(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PcgError as exc:
        return f"{type(exc).__name__}: {exc}"


def verdict_cases():
    """The (graph, root, n, t) of the verdict corpus: seeded roots, each
    fifth with a given t."""
    rng = random.Random(2102)
    for g in _verdict_graphs():
        names = [v for v in g.vertices if v != "z"]
        for i in range(12):
            root = cyclic_reduce(g, _random_text(rng, names, 1, 10)).core
            if not len(root):
                continue
            n = 1 + i % 4
            t = rng.choice(sorted(root.word.letters))[0] if i % 5 == 0 else None
            yield g, root, n, t


def verdict_lines():
    """magnus_verdict reports as JSON (indented and not) and as text:
    the centre split, the chord advisories of plain cycles and the
    clique corollaries are all reached."""
    lines = []
    for g, root, n, t in verdict_cases():
        lines.append(f"{g!r} {root} n={n} t={t}")
        rep = _try(magnus_verdict, g, root, n, t)
        if isinstance(rep, str):
            lines.append(rep)
            continue
        lines += [rep.to_json(), rep.to_json(indent=None), rep.to_text()]
    return lines


def _word_graphs():
    rng = random.Random(2103)
    return (list(catalog().values()) + [cycle_with_chord(6), plain_cycle(6)]
            + [random_graph(rng, 12) for _ in range(10)])


def word_lines():
    """minimal_form, strip_divisors, hnn_factorize, sigma, cyclic_reduce,
    block_decomposition and complement_components."""
    rng = random.Random(2104)
    lines = []
    for g in _word_graphs():
        names = list(g.vertices)
        for _ in range(10):
            w = _random_text(rng, names, 0, 30)
            ys = [v for v in names if rng.random() < 0.5] or names[:1]
            t = rng.choice(names)
            lines.append(f"{g!r} {w} Y={ys} t={t}")
            lines.append(str(minimal_form(g, w)))
            rep = strip_divisors(parabolic(g, ys), w)
            lines.append(f"{rep.left} | {rep.core} | {rep.right}")
            h = hnn_factorize(g, t, w)
            lines.append(f"{h} ; {sigma(g, t, h)} ; "
                         f"{is_cyclically_reduced_hnn(g, t, h)}")
            cd = cyclic_reduce(g, w)
            lines.append(str(cd))
            lines.append(" . ".join(
                str(b) for b in block_decomposition(g, cd.core)))
            lines.append(" / ".join(_sorted_names(g, c)
                                    for c in complement_components(g, ys)))
            lines.append(str(_try(block_decomposition, g, w)))
    return lines


def _conjugate(rng, names, w):
    """The text u^-1 w u for a random u."""
    u = _random_text(rng, names, 1, 8).split()
    inv = [x[:-3] if x.endswith("^-1") else x + "^-1" for x in reversed(u)]
    return " ".join(inv + [w] + u)


def conjugacy_lines():
    """conjugate_test on conjugate pairs, rotations and random pairs."""
    rng = random.Random(2105)
    lines = []
    for g in _word_graphs():
        names = list(g.vertices)
        for _ in range(10):
            w = _random_text(rng, names, 1, 20)
            toks = w.split()
            cut = rng.randrange(len(toks))
            rotated = " ".join(toks[cut:] + toks[:cut])
            other = _random_text(rng, names, 1, 20)
            lines.append(f"{g!r} {w}")
            lines.append(" ".join(str(conjugate_test(g, w, v)) for v in (
                _conjugate(rng, names, w), rotated, other,
                _conjugate(rng, names, other))))
    return lines


CENSUS_GRID = ([(5, 3, k) for k in range(1, 11)]
               + [(6, d, 2) for d in range(1, 6)]
               + [(7, d, 1) for d in range(1, 5)])


def census_lines():
    """census_row JSON and CSV over the census-grid rows, and a small
    sampled row each at n = 5 and n = 6."""
    rows = [census.census_row(*r) for r in CENSUS_GRID]
    rows += [census.census_row(5, 3, 2, mode="sample", samples=200, seed=1),
             census.census_row(6, 3, 2, mode="sample", samples=200, seed=1)]
    return [r.to_json() for r in rows] + [census.rows_to_csv(rows)]


SECTIONS = {
    "verdicts": verdict_lines,
    "words": word_lines,
    "conjugacy": conjugacy_lines,
    "census": census_lines,
}


def digests():
    return {name: _digest(make()) for name, make in SECTIONS.items()}


def test_golden_outputs_are_unchanged():
    assert digests() == GOLDEN


if __name__ == "__main__":
    for name, value in digests().items():
        print(f'    "{name}": "{value}",')
