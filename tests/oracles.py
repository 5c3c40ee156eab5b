"""Brute-force oracles, independent of the production rewriting paths.

The element oracle explores the full closure of a word under adjacent
moves (swap a commuting pair, cancel an adjacent inverse pair), restarting
from any shorter word found; the shortest stratum of the closure is the
geodesic class and its lexicographic minimum is the oracle's canonical
form.  Cayley-graph distances come from breadth-first search keyed by
those canonical forms.  The census reference walks every signed exponent
vector one by one, where the library counts them in closed form.
"""

import math
import random
from itertools import product

from pcgroups import census
from pcgroups.graphs import (
    CommutationGraph,
    build_graph,
    cycle_with_chord,
    plain_cycle,
)


def _key(w):
    return tuple((abs(x), x < 0) for x in w)


def closure_canonical(adj, word):
    """Lex-least geodesic via exhaustive move closure."""
    w = tuple(word)
    while True:
        seen = {w}
        stack = [w]
        shorter = None
        while stack and shorter is None:
            cur = stack.pop()
            for i in range(len(cur) - 1):
                x, y = cur[i], cur[i + 1]
                if x == -y:
                    shorter = cur[:i] + cur[i + 2:]
                    break
                if x != y and abs(x) != abs(y) and abs(y) in adj[abs(x)]:
                    nxt = cur[:i] + (y, x) + cur[i + 2:]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        if shorter is None:
            return min(seen, key=_key)
        w = shorter


class CayleyOracle:
    """BFS distances over the ball of a given radius, nodes keyed by the
    closure canonical form; transitions are memoised."""

    def __init__(self, graph: CommutationGraph, radius: int):
        self.graph = graph
        self.adj = graph._adj_idx
        self.radius = radius
        self.letters = [s * i for i in range(1, len(graph) + 1)
                        for s in (1, -1)]
        self._memo = {}
        self.dist = {(): 0}
        frontier = [()]
        for layer in range(radius):
            nxt = []
            for node in frontier:
                for x in self.letters:
                    child = self.step(node, x)
                    if child not in self.dist:
                        self.dist[child] = layer + 1
                        nxt.append(child)
            frontier = nxt

    def step(self, node, letter):
        key = (node, letter)
        got = self._memo.get(key)
        if got is None:
            got = closure_canonical(self.adj, node + (letter,))
            self._memo[key] = got
        return got

    def geodesic_length(self, word):
        node = ()
        for x in word:
            node = self.step(node, x)
        return self.dist[node]

    def element_key(self, word):
        node = ()
        for x in word:
            node = self.step(node, x)
        return node


def all_words(n_gens, length):
    letters = [s * i for i in range(1, n_gens + 1) for s in (1, -1)]
    return product(letters, repeat=length)


def random_graph(rng, max_vertices=12):
    """Seeded random graph on 2..max_vertices vertices v0, v1, ... with an
    edge density drawn from 0.2, 0.5 and 0.8."""
    n = rng.randrange(2, max_vertices + 1)
    names = [f"v{i}" for i in range(n)]
    p = rng.choice((0.2, 0.5, 0.8))
    return build_graph(names, [(names[i], names[j]) for i in range(n)
                               for j in range(i + 1, n) if rng.random() < p])


def random_letters(rng, n_gens, length):
    return tuple(rng.randrange(1, n_gens + 1) * rng.choice((1, -1))
                 for _ in range(length))


def conjugacy_partition(graph, max_len):
    """Partition the ball of radius max_len into conjugacy classes by BFS
    over single-generator conjugations, never leaving the ball.

    Conjugate elements of the ball are always connected inside it: any
    element descends to its cyclically minimal core by single-letter
    conjugations through shorter elements, and cores of one class are
    linked by rotations at constant length.
    """
    oracle = CayleyOracle(graph, max_len)
    adj = graph._adj_idx
    letters = oracle.letters
    class_of = {}
    classes = []
    for node in sorted(oracle.dist, key=lambda w: (len(w), _key(w))):
        if node in class_of:
            continue
        cls = {node}
        stack = [node]
        while stack:
            cur = stack.pop()
            for x in letters:
                conj = closure_canonical(adj, (-x,) + cur + (x,))
                if len(conj) <= max_len and conj not in cls:
                    cls.add(conj)
                    stack.append(conj)
        cid = len(classes)
        classes.append(cls)
        for member in cls:
            class_of[member] = cid
    return oracle, class_of


# ---------------------------------------------------------------------------
# census: the type (ii) tallies and the sampler by walking every exponent
# vector, the reference for the closed-form block counts


def _divisor_periods(alpha):
    """Proper divisors p of len(alpha) on which alpha is p-periodic."""
    r = len(alpha)
    out = []
    for p in range(1, r):
        if r % p == 0 and all(alpha[i] == alpha[i % p] for i in range(r)):
            out.append(p)
    return out


def _formal_power_count(alpha, first, mid):
    """Tuples whose formal sigma pattern is a proper power, for one
    exponent vector.

    Pattern = the cyclic sequence of (slot symbol, exponent) pairs; it is
    a proper power iff it has a period on a proper divisor.  All-trivial
    symbol patterns collapse to a pure t-power, which is a proper power
    iff the total exponent has absolute value at least 2.
    """
    r = len(alpha)
    trivial = first.get(census.SYM_ID, 0) * mid.get(census.SYM_ID, 0) ** (r - 1)
    periods = _divisor_periods(alpha)
    count = 0
    if periods:
        maximal = [p for p in periods
                   if not any(p != q and q % p == 0 for q in periods)]
        for mask in range(1, 1 << len(maximal)):
            chosen = [maximal[i] for i in range(len(maximal)) if mask >> i & 1]
            g = chosen[0]
            for p in chosen[1:]:
                g = math.gcd(g, p)
            sign = -1 if bin(mask).count("1") % 2 == 0 else 1
            count += sign * census._pattern_period_count(first, mid, g, r // g)
    pure_t_power = abs(sum(alpha)) >= 2
    count += (int(pure_t_power) - int(bool(periods))) * trivial
    return count


def alpha_walk_engine(first, mid, k):
    """census._composed_engine by walking all 2*3^(l-1) vectors per l."""
    tot_f = sum(first.values())
    tot_m = sum(mid.values())
    total = powers = 0
    for l in range(1, k + 1):
        for r in range(1, l + 1):
            for alpha in census._alpha_vectors(l, r):
                total += tot_f * tot_m ** (r - 1)
                powers += _formal_power_count(alpha, first, mid)
    return total, powers


def alpha_walk_sample_zy(n, d, k, samples, seed):
    """census._sample_zy with one stratum per exponent vector."""
    slot = census._hdata(n, max(d, 1)).slot(d)
    rng = random.Random(seed)
    firsts = [(s, th) for s, th in zip(slot.first_sym, slot.first_thick)
              if s != census.SYM_ID]
    mids = [(s, th) for s, th in zip(slot.mid_sym, slot.mid_thick)
            if s != census.SYM_ID]
    strata = [("L0", None, slot.cyc_min_count),
              ("L1", None, 2 * k * census.enumerate_LU(d))]
    for l in range(1, k + 1):
        for r in range(1, l + 1):
            for alpha in census._alpha_vectors(l, r):
                strata.append(("L2", alpha, len(firsts) * len(mids) ** (r - 1)))
    total = sum(w for (_, _, w) in strata)
    hits = 0
    for _ in range(samples):
        x = rng.randrange(total)
        for (kind, alpha, w) in strata:
            if x < w:
                break
            x -= w
        if kind != "L2":
            continue
        syms = [rng.choice(firsts)]
        syms += [rng.choice(mids) for _ in range(len(alpha) - 1)]
        if not all(th for (_, th) in syms):
            continue
        pairs = tuple((s, a) for (s, _), a in zip(syms, alpha))
        r = len(pairs)
        hits += not any(r % p == 0 and all(pairs[i] == pairs[i % p]
                                           for i in range(r))
                        for p in range(1, r))
    return hits


def catalog():
    """Fixed catalog of twelve graphs on at most five vertices."""
    return {
        "K1": build_graph(["a"], []),
        "N2": build_graph(["a", "b"], []),
        "K2": build_graph(["a", "b"], [("a", "b")]),
        "P3": build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
        "K3": build_graph(["a", "b", "c"],
                          [("a", "b"), ("b", "c"), ("a", "c")]),
        "P4": build_graph(["a", "b", "c", "t"],
                          [("t", "a"), ("a", "b"), ("b", "c")]),
        "C4": build_graph(["a", "b", "c", "d"],
                          [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        "C4'": build_graph(["a", "b", "c", "d"],
                           [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                            ("a", "c")]),
        "K4": build_graph(["a", "b", "c", "d"],
                          [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                           ("b", "d"), ("c", "d")]),
        "N4": build_graph(["a", "b", "c", "d"], []),
        "C5": plain_cycle(5),
        "C'5": cycle_with_chord(5),
    }
