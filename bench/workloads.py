"""The four benchmark workloads: seeded inputs, requests and output checks.

A workload is a list of passes.  Every pass of a workload has the same
shape (the same graphs, lengths and parameters in the same order); only
the random content changes with the pass number, so pass times are
comparable and a run's figures do not depend on where the clock stopped.
Inputs are plain strings and integers, made here from the seed before
any request is timed; the library sees nothing else.

Each workload gives:
    graphs      name -> graph-file text, loaded with pcgroups.load_graph
    make_pass   (seed, pass_no, graphs) -> list of requests
    run         (graphs, request) -> output
    check       (graphs, request, output) -> True when the output is right
    render      output -> text, hashed into the pass digest
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import pcgroups
from pcgroups import census

# ---------------------------------------------------------------------------
# graphs


def graph_text(vertices, edges):
    lines = ["vertices " + " ".join(vertices)]
    lines += [f"edge {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _cycle(names):
    return [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]


def _chorded(n):
    """t, a1 .. a_{n-1} in a cycle plus the chord a1 -- a_{n-1}."""
    names = ["t"] + [f"a{i}" for i in range(1, n)]
    return names, _cycle(names) + [("a1", f"a{n - 1}")]


def _random_graph(n, p, seed):
    """G(n, p) on t, b1 .. b_{n-1}, drawn from a fixed seed."""
    rng = random.Random(seed)
    names = ["t"] + [f"b{i}" for i in range(1, n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return names, edges


def _block_join(b):
    """b free pairs x_i, y_i; letters of different pairs commute."""
    names = [f"{c}{i}" for i in range(1, b + 1) for c in "xy"]
    edges = [(names[2 * i + p], names[2 * j + q])
             for i in range(b) for j in range(i + 1, b)
             for p in (0, 1) for q in (0, 1)]
    return names, edges


# One fixed G(12, 0.5): the seed varies the words, not the graph, so runs
# with different seeds measure the same structure.
G12_SEED = 12
C5C = _chorded(5)
G12 = _random_graph(12, 0.5, G12_SEED)
_C5C_NAMES, _C5C_EDGES = C5C
CHECK_GRAPHS = {
    "p4": (["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
    "c4": (["a", "b", "c", "d"], _cycle(["a", "b", "c", "d"])),
    "c4chord": (["a", "b", "c", "d"], _cycle(["a", "b", "c", "d"]) + [("a", "c")]),
    "c5": (_C5C_NAMES, _cycle(_C5C_NAMES)),          # plain: chord advisory
    "c5chord": C5C,
    "c6chord": _chorded(6),
    # z commutes with everything and words avoid it: the centre split
    "c5chord_z": (_C5C_NAMES + ["z"],
                  _C5C_EDGES + [(v, "z") for v in _C5C_NAMES]),
}
CENTRAL = {"c5chord_z": "z"}
BLOCKS = (1, 2, 3, 4)

# ---------------------------------------------------------------------------
# word helpers (plain token lists; inverse letters are written name^-1)


def random_word(rng, names, length):
    return [rng.choice(names) + rng.choice(("", "^-1")) for _ in range(length)]


def invert_token(tok):
    return tok[:-3] if tok.endswith("^-1") else tok + "^-1"


def invert(tokens):
    return [invert_token(t) for t in reversed(tokens)]


def conjugate(tokens, u):
    return invert(u) + tokens + u


def spread(lo, hi, count):
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def _text(tokens):
    return " ".join(tokens) if tokens else "1"


def _pass_rng(workload, seed, pass_no):
    return random.Random(f"{workload}/{seed}/{pass_no}")


# ---------------------------------------------------------------------------
# words-long: minimal_form, strip_divisors, hnn_factorize + sigma


WORDS_LENGTHS = spread(50, 400, 16)


def _words_make(seed, pass_no, graphs):
    rng = _pass_rng("words-long", seed, pass_no)
    reqs = []
    for length in WORDS_LENGTHS:
        for gname in ("c5chord", "g12"):
            names = (C5C if gname == "c5chord" else G12)[0]
            reqs.append((gname, _text(random_word(rng, names, length))))
    return reqs


def _words_run(graphs, req):
    g = graphs[req[0]]
    w = req[1]
    nf = pcgroups.minimal_form(g, w)
    rep = pcgroups.strip_divisors(pcgroups.parabolic(g, g.neighbours("t")), w)
    h = pcgroups.hnn_factorize(g, "t", w)
    return nf, rep, h, pcgroups.sigma(g, "t", h)


def _words_check(graphs, req, out):
    g = graphs[req[0]]
    nf, rep, h, _ = out
    joined = rep.left.idx + rep.core.idx + rep.right.idx
    return (pcgroups.minimal_form(g, pcgroups.Word(g, joined)).idx == nf.idx
            and pcgroups.minimal_form(g, h.to_word()).idx == nf.idx)


def _words_render(out):
    nf, rep, h, s = out
    return f"{nf}|{rep.left}|{rep.core}|{rep.right}|{h}|{s}"


# ---------------------------------------------------------------------------
# check-short: magnus_verdict + to_json on short relator roots


CHECK_LENGTHS = spread(4, 24, 9)
REPORT_KEYS = {"s", "n", "per_t", "amalgam", "conclusions", "order_of_s",
               "word_problem", "conjugacy_problem"}
STATUSES = {"EMBEDS", "DOES_NOT_EMBED", "UNKNOWN", "RESTRICTED_EMBEDS"}


def _check_make(seed, pass_no, graphs):
    """Relator roots: the nonempty cyclic core of a random word.  The core
    is taken with the library here, outside any timed request."""
    rng = _pass_rng("check-short", seed, pass_no)
    reqs = []
    i = 0
    for gname, (names, _) in CHECK_GRAPHS.items():
        g = graphs[gname]
        letters = [v for v in names if v != CENTRAL.get(gname)]
        for length in CHECK_LENGTHS:
            core = ""
            while not core:
                w = _text(random_word(rng, letters, length))
                core = str(pcgroups.cyclic_reduce(g, w).core)
                core = "" if core == "1" else core
            reqs.append((gname, core, (2, 3, 4)[i % 3]))
            i += 1
    return reqs


def _check_run(graphs, req):
    gname, s, n = req
    return pcgroups.magnus_verdict(graphs[gname], s, n).to_json()


def _check_check(graphs, req, out):
    data = json.loads(out)
    return (isinstance(data, dict) and set(data) == REPORT_KEYS
            and data["n"] == req[2]
            and all(c["status"] in STATUSES for c in data["conclusions"]))


# ---------------------------------------------------------------------------
# conjugacy: conjugate_test with the answer known from construction


# Per pass, 18 requests: on G(12, 0.5) two positives and two negatives;
# on the block joins one positive and one negative for b = 1, 3, 4 and
# four of each for b = 2.  The cost of a G(12, 0.5) request spans orders
# of magnitude with its random core, while a b-block request always walks
# 6^b forms.  So the shape is chosen for the percentiles: the two b=4
# requests are 1/9 of a pass, over the 8% beyond the p92 tail, so the tail
# always falls on them, and the median always falls among the b=2
# requests, wherever the four G(12, 0.5) requests land.
CONJ_POSITIVE_LENGTHS = (20, 47)
CONJ_NEGATIVE_LENGTHS = (33, 60)
CONJ_BLOCK_PAIRS = {1: 1, 2: 4, 3: 1, 4: 1}


def _flip_run(block, start):
    """Invert the maximal cyclic run of equal letters that begins at
    `start` in a cyclically reduced free-group word.  Its neighbours are
    letters of the other generator, so the result stays cyclically reduced
    with the same length and support, while the exponent sum of that
    generator changes."""
    n = len(block)
    end = start
    while block[(end + 1) % n] == block[start]:
        end += 1
    out = list(block)
    for j in range(start, end + 1):
        out[j % n] = invert_token(block[j % n])
    return out


def _primitive(w):
    return len({tuple(w[r:] + w[:r]) for r in range(len(w))}) == len(w)


def _free_block(rng, i):
    """A cyclically reduced word of length 6 in x_i, y_i using both letters,
    with a run flip (the start of a run, returned too) that keeps it
    primitive: both words have 6 distinct rotations, so every closure of a
    b-block core has exactly 6^b forms."""
    letters = [f"x{i}", f"x{i}^-1", f"y{i}", f"y{i}^-1"]
    while True:
        w = [rng.choice(letters) for _ in range(6)]
        if any(w[j] == invert_token(w[j - 1]) for j in range(6)):
            continue
        if len({t[0] for t in w}) < 2 or not _primitive(w):
            continue
        starts = [j for j in range(6) if w[j] != w[j - 1]
                  and _primitive(_flip_run(w, j))]
        if starts:
            return w, rng.choice(starts)


def _core_shape(g, tokens):
    core = pcgroups.cyclic_reduce(g, _text(tokens)).core
    return len(core), pcgroups.support(g, core)


def _conj_make(seed, pass_no, graphs):
    """Positives: w' = u^-1 w u.  Negatives: w' = u^-1 w* u where w* has the
    same cyclic-core length and support as w but another exponent-sum
    vector (an invariant of conjugacy), so the answer is False and the
    whole rotation closure is walked."""
    rng = _pass_rng("conjugacy", seed, pass_no)
    g = graphs["g12"]
    names = G12[0]
    reqs = []
    for length in CONJ_POSITIVE_LENGTHS:
        w = random_word(rng, names, length)
        reqs.append(("g12", _text(w),
                     _text(conjugate(w, random_word(rng, names, 6))), True))
    for length in CONJ_NEGATIVE_LENGTHS:
        w = random_word(rng, names, length)
        core = [g.name(abs(x)) + ("" if x > 0 else "^-1")
                for x in pcgroups.cyclic_reduce(g, _text(w)).core.idx]
        shape = (len(core), pcgroups.support(g, _text(core)))
        positions = list(range(len(core)))
        rng.shuffle(positions)
        other = None
        for p in positions:
            cand = core[:p] + [invert_token(core[p])] + core[p + 1:]
            if _core_shape(g, cand) == shape:
                other = cand
                break
        if other is None:  # every flip shortens the core; still a negative
            other = core[:-1] + [invert_token(core[-1])]
        reqs.append(("g12", _text(w),
                     _text(conjugate(other, random_word(rng, names, 6))),
                     False))
    for b in BLOCKS:
        for _ in range(CONJ_BLOCK_PAIRS[b]):
            reqs += _block_pair(rng, b)
    return reqs


def _block_pair(rng, b):
    """A positive and a negative on the b-block join."""
    gname = f"join{b}"
    jnames = _block_join(b)[0]
    blocks = [_free_block(rng, i) for i in range(1, b + 1)]
    w = [t for blk, _ in blocks for t in blk]
    turned = []
    for blk, _ in blocks:
        r = rng.randrange(6)
        turned += blk[r:] + blk[:r]
    positive = (gname, _text(w),
                _text(conjugate(turned, random_word(rng, jnames, 4))), True)
    k = rng.randrange(b)
    flipped = [t for i, (blk, start) in enumerate(blocks)
               for t in (_flip_run(blk, start) if i == k else blk)]
    negative = (gname, _text(w),
                _text(conjugate(flipped, random_word(rng, jnames, 4))), False)
    return [positive, negative]


def _conj_run(graphs, req):
    return pcgroups.conjugate_test(graphs[req[0]], req[1], req[2])


def _conj_check(graphs, req, out):
    return out is req[3]


# ---------------------------------------------------------------------------
# census-grid: a fixed grid of census rows and one sampled density


DENSITY_SAMPLES = 2000
N5_FORMULA_KEYS = ("l_H", "l_HU", "e", "e_prime", "l2", "z2")


def _census_make(seed, pass_no, graphs):
    reqs = [("row", 5, 3, k) for k in range(1, 11)]
    reqs += [("row", 6, d, 2) for d in range(1, 6)]
    reqs += [("row", 7, d, 1) for d in range(1, 5)]
    reqs.append(("density", 5, 3, 7, seed))
    return reqs


def _census_run(graphs, req):
    if req[0] == "row":
        return census.census_row(*req[1:]).to_json_dict()
    _, n, d, k, seed = req
    return census.density(n, d, k, mode="sample", samples=DENSITY_SAMPLES,
                          seed=seed)


def _census_check(graphs, req, out):
    if req[0] == "row":
        if (out["n"], out["d"], out["k"]) != req[1:]:
            return False
        if req[1] != 5:
            return True
        enum, form = out["enumerated"], out["formula"]
        return all(enum[key] == form[key] for key in N5_FORMULA_KEYS)
    _, n, d, k, seed = req
    return (out["seed"] == seed and out["samples"] == DENSITY_SAMPLES
            and 0.0 <= out["rho_sample"] <= 1.0
            and out["l_dk"] == census.census_row(n, d, k).enumerated["l_dk"])


def _census_render(out):
    return json.dumps(out, sort_keys=True)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: dict
    make_pass: Callable
    run: Callable
    check: Callable
    render: Callable
    # Passes a run completes even past --seconds.  tail_pct is the highest
    # percentile that leaves at least ten samples beyond it in that many
    # passes.
    min_passes: int
    tail_pct: float
    # census-grid runs each pass in a fresh interpreter, so the census
    # lru_caches start cold every time, as they do for each CLI call.
    fresh_per_pass: bool = False


def _graphs(names):
    table = {"c5chord": C5C, "g12": G12, **CHECK_GRAPHS}
    table.update({f"join{b}": _block_join(b) for b in BLOCKS})
    return {n: graph_text(*table[n]) for n in names}


WORKLOADS = {
    w.name: w for w in (
        Workload("words-long", _graphs(["c5chord", "g12"]),
                 _words_make, _words_run, _words_check, _words_render,
                 min_passes=7, tail_pct=95),
        Workload("check-short", _graphs(list(CHECK_GRAPHS)),
                 _check_make, _check_run, _check_check, str,
                 min_passes=16, tail_pct=99),
        Workload("conjugacy",
                 _graphs(["g12"] + [f"join{b}" for b in BLOCKS]),
                 _conj_make, _conj_run, _conj_check, repr,
                 min_passes=7, tail_pct=92),
        Workload("census-grid", {},
                 _census_make, _census_run, _census_check, _census_render,
                 min_passes=4, tail_pct=87.5, fresh_per_pass=True),
    )
}


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
