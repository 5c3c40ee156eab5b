"""Brute-force oracles, independent of the production rewriting paths.

The element oracle explores the full closure of a word under adjacent
moves (swap a commuting pair, cancel an adjacent inverse pair), restarting
from any shorter word found; the shortest stratum of the closure is the
geodesic class and its lexicographic minimum is the oracle's canonical
form.  Cayley-graph distances come from breadth-first search keyed by
those canonical forms.  The word-parser reference reads every token
through the token regex, where the library reads `name` and `name^-1`
from the graph's letter table.  The census reference builds every normal form
and walks every signed exponent vector one by one, or sums over every
(t-length, block count) block, where the library counts both in closed
form or over the normal-form automaton; its sampler reference calls
randrange for every draw and bisects for the t-length, randbelow is the
draw the sampler makes inline, and its
unranking references scan each state's successors letter by letter and
walk every length p of the square system's first part.  The reference
automaton keeps every component of the census state as the letters
left it, and counts, enumerates and unranks over those states; its
Moore minimum bounds how many states the working automaton may keep.
The letter-engine references keep their own letter routines and call
no canonical form of the library: they canonicalise in two passes
(reduce by a back-scan, then linearise by a heap walk that never
cancels), split a double coset by two peels and linearise every part
again, peel divisors
by testing every letter against every kept generator, orient a
double-coset symbol by comparing whole sort keys, test cyclic minimality
and cyclically reduce a canonical form by recomputing both divisor-letter
sets for every pair they peel, and test conjugacy over canonical forms
of the words, cores and blocks.  The cancellation-pass reference reads
every generator seen for each candidate letter, and the heap-walk
reference links each letter to the last letter of every generator seen,
after the library's own cancellation pass.  The conjugacy
reference decides each pair of blocks by its dependent-pair projections
(Cori-Perrin 1985) and a search over count vectors, where the library
cuts each block into slices, and the dependent-pair reference
builds each projection one letter at a time as a string.  The
symbol-map reference orients every chunk before one plain free
reduction, and the t-root reference always builds it, strips its
inverse end pairs one slice at a time and tests every rotation.
"""

import math
import random
import re
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product

from pcgroups import census, census_slots
from pcgroups.cosets import maln_support, oriented_symbol
from pcgroups.errors import (
    BudgetExceeded,
    UnknownGenerator,
    WordSyntaxError,
    ZeroExponent,
)
from pcgroups.graphs import (
    CommutationGraph,
    build_graph,
    complement_components,
    cycle_with_chord,
    plain_cycle,
)
from pcgroups.words import (
    MAX_WORD_LETTERS,
    as_word,
    bounded_int,
    invert_letters,
    reduce_letters,
)


# The token grammar as regular expressions: a vertex name, and a word
# token (a name, then optionally ^, one optional - and a run of \d, any
# Unicode decimal digit).  graphs and words parse both by hand.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")


def parse_word_reference(text, g):
    """Signed letters of a word, every token read through TOKEN_RE: the
    regex-only parser that words.parse_word must agree with, error class
    and message included."""
    tokens = text.split()
    if tokens == ["1"]:
        return ()
    idx = []
    for tok in tokens:
        if tok == "1":
            raise WordSyntaxError("'1' must appear alone")
        m = TOKEN_RE.match(tok)
        if not m:
            raise WordSyntaxError(f"bad token {tok!r}")
        name, exp = m.group(1), m.group(2)
        if name not in g:
            raise UnknownGenerator(f"unknown generator {name!r}")
        k = 1 if exp is None else bounded_int(exp, MAX_WORD_LETTERS)
        if k is None:
            raise BudgetExceeded(
                f"exponent in {tok[:40]!r} exceeds {MAX_WORD_LETTERS} letters")
        if k == 0:
            raise ZeroExponent(f"zero exponent in {tok[:40]!r}")
        i = g.index(name)
        letter = i if k > 0 else -i
        if len(idx) + abs(k) > MAX_WORD_LETTERS:
            raise BudgetExceeded(
                f"word longer than {MAX_WORD_LETTERS} letters")
        idx.extend([letter] * abs(k))
    return tuple(idx)


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


def peel_reference(adj, w, yidx):
    """(side, kept, hole) as words._peel gives them, with no early exit:
    a letter over yidx joins the side when every generator kept before
    it commutes with it, and hole tells whether a side letter follows a
    kept letter."""
    side, kept, kept_gens = [], [], set()
    hole = False
    for x in w:
        if abs(x) in yidx and kept_gens <= adj[abs(x)]:
            hole = hole or bool(kept)
            side.append(x)
        else:
            kept.append(x)
            kept_gens.add(abs(x))
    return side, kept, hole


def lexmin_reference(adj, w):
    """Lex-least word commutation-equivalent to w, reduced or not, by a
    heap walk that never cancels: each position depends on the last
    earlier occurrence of every generator that equals its own or does
    not commute with it, and popping the least ready letter linearises
    this partial order greedily.  On a geodesic this is the canonical
    form."""
    last = {}
    succ = [[] for _ in w]
    npred = [0] * len(w)
    for q, x in enumerate(w):
        for gen, p in last.items():
            if gen not in adj[abs(x)]:
                succ[p].append(q)
                npred[q] += 1
        last[abs(x)] = q
    heap = [(abs(w[q]), w[q] < 0, q) for q in range(len(w)) if not npred[q]]
    heapify(heap)
    out = []
    while heap:
        p = heappop(heap)[2]
        out.append(w[p])
        for q in succ[p]:
            npred[q] -= 1
            if not npred[q]:
                heappush(heap, (abs(w[q]), w[q] < 0, q))
    return tuple(out)


def reduce_reference(adj, w):
    """Geodesic of w by a scan: each letter x looks back to the last kept
    letter it does not commute with (a letter of the same generator
    counts as not commuting); if that letter is x^-1 the two cancel,
    otherwise x is kept.  Quadratic where letters cancel across a long
    block they commute with."""
    out = []
    for x in w:
        nbrs = adj[abs(x)]
        j = len(out) - 1
        while j >= 0 and abs(out[j]) in nbrs:
            j -= 1
        if j >= 0 and out[j] == -x:
            del out[j]
        else:
            out.append(x)
    return tuple(out)


def cancel_reference(adj, w):
    """words._cancel with no last-blocker hint: a candidate letter reads the
    generators seen, in first-seen order, until one that does not
    commute with it has its last live letter after the candidate's
    partner.  The letters of w after the pass, each cancelled one 0."""
    last = [-1] * len(adj)
    below = [-1] * len(w)
    out = list(w)
    seen = []
    for q, x in enumerate(w):
        gen = abs(x)
        p = last[gen]
        if p < 0:
            if gen not in seen:
                seen.append(gen)
        elif out[p] != x:
            nbrs = adj[gen]
            for k in seen:
                if last[k] > p and k not in nbrs:
                    break
            else:
                out[p] = out[q] = 0
                last[gen] = below[p]
                continue
        below[q] = p
        last[gen] = q
    return out


def pair_rules(adj, u, v):
    """For each generator a of the block u, the rules (b, A, B, P_a, P_b)
    of the dependent pairs {a, b} (b = a included), or None when some
    projection of v is no rotation of u's.  supp(v) lies in supp(u).

    A cut c of the periodic heap u^Z is fixed by its count vector (n_a),
    and the {a, b} projection of c^-1 u c is pi_ab(u) rotated by
    n_a + n_b.  With P the primitive root of pi_ab(u) and r the one
    rotation of P that gives pi_ab(v), the pair allows exactly
    n_a = A + j P_a and n_b = B + j P_b over the integers j, where P_a
    and P_b count a and b in P, and A and B count them in P[:r].

    u and v are encoded once, one code per letter (code[a] = twice a's
    rank among the generators of u, code[-a] one more): bytes for a
    block of up to 128 generators, one str character each above that.
    A projection is one translate that deletes every other code, find
    gives r and P, and count gives A and P_a (B = r - A and
    P_b = |P| - P_a when b != a, as P holds only a and b).
    """
    gens = sorted({abs(x) for x in u})
    code = {e * a: 2 * i + (e < 0)
            for i, a in enumerate(gens) for e in (1, -1)}
    pack = bytes if len(gens) <= 128 else (lambda c: "".join(map(chr, c)))
    su, sv = (pack(map(code.__getitem__, w)) for w in (u, v))
    n = 2 * len(gens)
    if pack is bytes:
        def project(i, j):
            drop = every.translate(None, bytes((i, i + 1, j, j + 1)))
            return su.translate(None, drop), sv.translate(None, drop)
    else:
        def project(i, j):
            keep = [None] * n  # str.translate deletes a code mapped to None
            keep[i], keep[i + 1], keep[j], keep[j + 1] = i, i + 1, j, j + 1
            return su.translate(keep), sv.translate(keep)

    every = pack(range(n))
    rules = {a: [] for a in gens}
    for k, a in enumerate(gens):
        i = 2 * k
        plus, minus = every[i:i + 1], every[i + 1:i + 2]
        nbrs = adj[a]
        for b in gens[k:]:
            if b in nbrs:
                continue
            p, q = project(i, code[b])
            pp = p + p
            r = pp.find(q) if len(p) == len(q) else -1
            if r < 0:
                return None
            root = p[:pp.find(p, 1)]
            ra = root.count(plus, 0, r) + root.count(minus, 0, r)
            pa = root.count(plus) + root.count(minus)
            if b == a:
                rules[a].append((a, ra, ra, pa, pa))
            else:
                rb, pb = r - ra, len(root) - pa
                rules[a].append((b, ra, rb, pa, pb))
                rules[b].append((a, rb, ra, pb, pa))
    return rules


def meets_rules(rules, a0, n0):
    """Whether n_a0 = n0 extends, breadth first along dependent pairs, to
    a count vector that meets every rule.  Each rule is read from both of
    its ends (a self rule from its one end onto itself), so a count off
    the rule's lattice comes back changed and fails the equality test."""
    n = {a0: n0}
    queue = [a0]
    for a in queue:
        for b, ra, rb, pa, pb in rules[a]:
            nb = rb + (n[a] - ra) // pa * pb
            if b not in n:
                n[b] = nb
                queue.append(b)
            elif n[b] != nb:
                return False
    return True


def dependent_pairs(adj, supp):
    """Dependent pairs {a, b} over the generator set supp, a = b
    included: every pair less the commuting ones, which one set
    intersection per generator counts.  The projections build one rule
    per pair, each a translate of the whole block."""
    n = len(supp)
    return n * (n + 1) // 2 - sum(len(adj[a] & supp) for a in supp) // 2


def block_conjugate_reference(adj, u, v):
    """Whether the block v is c^-1 u c for a cut c of the heap u^Z, that
    is, lies in the rotation closure of u, by dependent-pair projections.
    u and v are geodesics, canonical or not, cyclically minimal, of one
    length and one support S, and the complement graph on S is
    connected.

    Two reduced words are equal iff their projections onto every
    dependent pair {a, b} (a = b included) are equal (Cori-Perrin 1985).
    So v is in the closure iff one count vector meets every rule of
    pair_rules.  Counts are read modulo u's own count vector, so the
    rarest generator a0 tries each n in [0, |u|_a0).
    Cost: O(|S|^2 L) for the rules, the factor L inside translate, find
    and count, and O(|S| L) for the search.
    """
    rules = pair_rules(adj, u, v)
    if rules is None:
        return False
    counts = Counter(abs(x) for x in u)
    a0 = min(counts, key=lambda a: (counts[a], a))
    return any(meets_rules(rules, a0, n0) for n0 in range(counts[a0]))


def pair_rules_reference(adj, u, v):
    """pair_rules with every projection built one letter at a
    time: one character per letter (twice its generator's rank, plus one
    for an inverse), so a projection is a string and str.find gives the
    rotation and the primitive root."""
    gens = sorted({abs(x) for x in u})
    code = {x: chr(2 * gens.index(abs(x)) + (x < 0)) for x in {*u, *v}}
    rules = {a: [] for a in gens}
    for i, a in enumerate(gens):
        for b in gens[i:]:
            if b in adj[a]:
                continue
            p, q = ("".join(code[x] for x in w if abs(x) in (a, b))
                    for w in (u, v))
            r = (p + p).find(q) if len(p) == len(q) else -1
            if r < 0:
                return None
            root = [gens[ord(c) >> 1] for c in p[:(p + p).find(p, 1)]]
            ra, rb = root[:r].count(a), root[:r].count(b)
            pa, pb = root.count(a), root.count(b)
            rules[a].append((b, ra, rb, pa, pb))
            if b != a:
                rules[b].append((a, rb, ra, pb, pa))
    return rules


def canon_heap_reference(adj, w):
    """words._canon_heap as it read every generator seen for each letter:
    the geodesic reduce_letters gives, and each letter linked to the
    last earlier letter of every generator seen that equals its own or
    does not commute with it, then the same greedy heap walk."""
    w = reduce_letters(adj, w)
    last = {}  # generator -> its last position so far
    succ = [[] for _ in w]
    npred = [0] * len(w)
    for q, x in enumerate(w):
        nbrs = adj[abs(x)]
        deps = [p for k, p in last.items() if k not in nbrs]
        for p in deps:
            succ[p].append(q)
        npred[q] = len(deps)
        last[abs(x)] = q
    heap = [(abs(x), x < 0, q) for q, x in enumerate(w) if not npred[q]]
    heapify(heap)
    out = []
    while heap:
        p = heappop(heap)[2]
        out.append(w[p])
        for q in succ[p]:
            npred[q] -= 1
            if not npred[q]:
                heappush(heap, (abs(w[q]), w[q] < 0, q))
    return tuple(out)


def canon_reference(adj, w):
    """words.canon_letters in two passes: reduce_reference, then
    lexmin_reference."""
    return lexmin_reference(adj, reduce_reference(adj, w))


def split_reference(adj, w, yidx):
    """Split a geodesic w as left . core . right by two peels: left the
    maximal left divisor over yidx, right the maximal right divisor over
    yidx of what remains; the parts as subsequences of w, not
    linearised."""
    left, rest, _ = peel_reference(adj, w, yidx)
    right, core, _ = peel_reference(adj, rest[::-1], yidx)
    return tuple(left), tuple(core[::-1]), tuple(right[::-1])


def left_divisor_reference(adj, w):
    """Single letters x with w = x . w' length-additively (w geodesic):
    the letters that commute with every letter before them."""
    out, seen = set(), set()
    for x in w:
        if seen <= adj[abs(x)]:
            out.add(x)
        seen.add(abs(x))
    return out


def right_divisor_reference(adj, w):
    return {-x for x in left_divisor_reference(adj, invert_letters(w))}


def is_cyclically_minimal_reference(adj, w):
    """words.is_cyclically_minimal on a geodesic w: no left-divisor
    letter y whose inverse is a right-divisor letter."""
    rds = right_divisor_reference(adj, w)
    return not any(-y in rds for y in left_divisor_reference(adj, w))


def coset_symbol_reference(adj, u_idx, chunk):
    """Signed double-coset symbol of a canonical chunk, None for a chunk
    in U (generator indices u_idx): cosets.oriented_symbol of the core
    words.canonical_split peels, with the U-core linearised again and
    oriented by comparing whole sort keys."""
    core = lexmin_reference(adj, split_reference(adj, chunk, u_idx)[1])
    return oriented_symbol_reference(adj, core) if core else None


def strip_divisors_reference(ctx, w):
    """cosets.strip_divisors as (left, core, right) letter tuples: the
    canonical form of w split, and every part linearised again."""
    g = ctx.graph
    adj = g._adj_idx
    c = canon_reference(adj, as_word(g, w).idx)
    return tuple(lexmin_reference(adj, part)
                 for part in split_reference(adj, c, ctx.subset_idx))


def oriented_symbol_reference(adj, core):
    """cosets.oriented_symbol by comparing the sort keys of the core and
    of its canonical inverse whole."""
    inv = lexmin_reference(adj, invert_letters(core))
    if _key(core) <= _key(inv):
        return (core, 1)
    return (inv, -1)


def cyclically_reduce_units_reference(units):
    """hnn.cyclically_reduce_units, one slice per inverse end pair."""
    units = tuple(units)
    while len(units) >= 2 and units[0][0] == units[-1][0] \
            and units[0][1] == -units[-1][1]:
        units = units[1:-1]
    return units


def sigma_reference(g, t, h):
    """hnn.sigma(g, t, h).units from the symbols alone: each chunk through
    coset_symbol_reference, each t-letter as (None, e), then free
    reduction on a plain stack."""
    adj = g._adj_idx
    u_idx = frozenset(adj[g.index(t)])
    units = []
    for e, chunk in zip((0,) + h.exps, h.chunks):
        if e:
            units.append((None, e))
        sym = coset_symbol_reference(adj, u_idx, chunk)
        if sym is not None:
            units.append(sym)
    out = []
    for sym, sign in units:
        if out and out[-1] == (sym, -sign):
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def is_t_root_reference(g, t, h):
    """hnn.is_t_root from the symbols alone: sigma_reference(h),
    cyclically reduced, is not a proper power."""
    units = cyclically_reduce_units_reference(sigma_reference(g, t, h))
    n = len(units)
    return not any(n % p == 0 and units == units[p:] + units[:p]
                   for p in range(1, n))


def conjugacy_class_closure(adj, core):
    """All canonical forms related to the cyclically minimal `core` by
    chains of rotations g = y . v -> v . y.  Single-letter rotations
    generate every split because u can be peeled one letter at a time.
    The reference for conjugate_test, which decides a free block by one
    substring test and every other block by its dependent-pair
    projections instead."""
    start = lexmin_reference(adj, core)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for y in left_divisor_reference(adj, cur):
            p = cur.index(y)
            nxt = lexmin_reference(adj, cur[:p] + cur[p + 1:] + (y,))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def cyclic_core_reference(adj, w):
    """words.cyclic_core_letters by peeling, on a canonical w: each step
    recomputes both divisor sets over the whole word and drops the least
    y that is a left divisor while y^-1 is a right divisor.  Returns
    (u, v), both canonical."""
    cur, ys = w, []
    while True:
        rds = right_divisor_reference(adj, cur)
        y = min((y for y in left_divisor_reference(adj, cur) if -y in rds),
                key=lambda y: (abs(y), y < 0), default=None)
        if y is None:
            break
        p = cur.index(y)
        q = len(cur) - 1 - cur[::-1].index(-y)
        cur = cur[:p] + cur[p + 1:q] + cur[q + 1:]
        ys.append(y)
    u = lexmin_reference(adj, tuple(-y for y in reversed(ys)))
    v = lexmin_reference(adj, cur)
    return u, v


def conjugate_test_reference(g, w1, w2):
    """words.conjugate_test over canonical forms: the canonical form of
    each word, its core by cyclic_core_reference, the blocks by
    complement_components, each block canonical, then a pairing by
    (support, length), which equal letter counts imply, and
    block_conjugate_reference on each pair, free blocks included: the
    dependent-pair projections, which share no code with
    conjugate_test's rotation tests."""
    adj = g._adj_idx
    found = []
    for w in (w1, w2):
        canonical = canon_reference(adj, as_word(g, w).idx)
        core = cyclic_core_reference(adj, canonical)[1]
        found.append([lexmin_reference(adj, tuple(
            x for x in core if g.name(abs(x)) in comp))
            for comp in complement_components(
                g, {g.name(abs(x)) for x in core})])
    b1, b2 = found
    if ([({abs(x) for x in b}, len(b)) for b in b1]
            != [({abs(x) for x in b}, len(b)) for b in b2]):
        return False
    return all(x == y or block_conjugate_reference(adj, x, y)
               for x, y in zip(b1, b2))


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
# census: the normal-form enumerator and the walk over every exponent
# vector, the reference for the automaton counts and the closed-form
# block counts of pcgroups.census

SYM_ID = ((), 1)  # coset symbol of the identity

FORM_BUDGET = 3_000_000


def wrap(n, i):
    """The cycle index of a_i over a1..a_{n-1}, i taken mod n - 1."""
    return (i - 1) % (n - 1) + 1


def iter_general_forms(n, dmax):
    """All prohibited-subword normal forms of length <= dmax, by length.

    Prefixes of normal forms are normal (the pattern is contiguous), so
    depth-first extension with suffix checks is exhaustive.
    """
    m = n - 1
    levels = [[()]]
    letters = [s * i for i in range(1, m + 1) for s in (1, -1)]
    total = 1
    for _ in range(dmax):
        nxt = []
        for w in levels[-1]:
            last = w[-1] if w else 0
            for y in letters:
                if last == -y:
                    continue
                j = abs(y)
                below = wrap(n, j - 1)
                above = wrap(n, j + 1)
                p = len(w) - 1
                while p >= 0 and abs(w[p]) == below:
                    p -= 1
                if p >= 0 and abs(w[p]) == above:
                    continue
                nxt.append(w + (y,))
        total += len(nxt)
        if total > FORM_BUDGET:
            raise BudgetExceeded(f"more than {FORM_BUDGET} normal forms")
        levels.append(nxt)
    return levels


def _iter_free_words(gens, dmax):
    levels = [[()]]
    letters = [s * i for i in gens for s in (1, -1)]
    for _ in range(dmax):
        nxt = []
        for w in levels[-1]:
            last = w[-1] if w else 0
            nxt.extend(w + (y,) for y in letters if last != -y)
        levels.append(nxt)
    return levels


def iter_square_forms(dmax):
    """Square normal forms over the 4-cycle, by length (n = 5 only)."""
    if dmax > 0 and 1 + 8 * dmax * 3 ** (dmax - 1) > FORM_BUDGET:
        raise BudgetExceeded(f"more than {FORM_BUDGET} normal forms")
    first = _iter_free_words((2, 4), dmax)
    second = _iter_free_words((1, 3), dmax)
    levels = [[] for _ in range(dmax + 1)]
    for p in range(dmax + 1):
        for w1 in first[p]:
            for q in range(dmax + 1 - p):
                for w2 in second[q]:
                    levels[p + q].append(w1 + w2)
    return levels


class HData:
    """Enumerated slot data for one (n, dmax).

    forms_by_len holds the working normal-form system (square for n = 5,
    general otherwise); per-element thickness, coset symbols and
    derived subsets are computed lazily per length bound.
    """

    def __init__(self, n, dmax):
        census_slots.check_n(n)
        self.n = n
        self.dmax = dmax
        self.adj = census_slots.h_adj(n)
        if n == 5:
            self.forms_by_len = iter_square_forms(dmax)
        else:
            self.forms_by_len = iter_general_forms(n, dmax)
        self._slots = {}

    def forms(self, d):
        out = []
        for lev in self.forms_by_len[:d + 1]:
            out.extend(lev)
        return out

    def slot(self, d):
        if d not in self._slots:
            self._slots[d] = SlotData(self, d)
        return self._slots[d]


class SlotData:
    """Per-d slot populations with symbols and thickness flags."""

    def __init__(self, hdata, d):
        adj = hdata.adj
        u_idx = frozenset((1, hdata.n - 1))  # U: the chord ends a1, a_{n-1}
        self.first_list, self.first_sym, self.first_thick = [], [], []
        self.mid_list, self.mid_sym, self.mid_thick = [], [], []
        self.cyc_min_count = 0
        for w in hdata.forms(d):
            left, core, _ = split_reference(adj, w, u_idx)
            sym = oriented_symbol(adj, lexmin_reference(adj, core))
            supp = {abs(x) for x in w}
            in_u = supp <= u_idx
            thick = in_u or maln_support(adj, supp, u_idx)
            self.first_list.append(w)
            self.first_sym.append(sym)
            self.first_thick.append(thick)
            if not left:
                self.mid_list.append(w)
                self.mid_sym.append(sym)
                self.mid_thick.append(thick)
            if is_cyclically_minimal_reference(adj, w):
                self.cyc_min_count += 1

    def tallies(self, *, thick_only, strict):
        """Symbol -> count maps for the first and the later slots."""
        first, mid = {}, {}
        for w, s, th in zip(self.first_list, self.first_sym, self.first_thick):
            if thick_only and not th:
                continue
            if strict and s == SYM_ID:
                continue
            first[s] = first.get(s, 0) + 1
        for w, s, th in zip(self.mid_list, self.mid_sym, self.mid_thick):
            if thick_only and not th:
                continue
            if strict and s == SYM_ID:
                continue
            mid[s] = mid.get(s, 0) + 1
        return first, mid


@lru_cache(maxsize=32)
def hdata(n, dmax):
    return HData(n, dmax)


def iter_strict_composed(n, d, k, limit=200_000):
    """Materialise the strict composed set as letter tuples over the
    chorded-cycle graph (vertex 1 is t; a_i maps to index i+1), with the
    stratum label."""
    hd = hdata(n, max(d, 1))
    slot = hd.slot(d)
    count = 0

    def lift(w):
        return tuple((abs(x) + 1) * (1 if x > 0 else -1) for x in w)

    for w in slot.first_list:
        if is_cyclically_minimal_reference(hd.adj, w):
            count += 1
            yield ("L0", lift(w))
    m = n - 1
    u_list = [w for w in slot.first_list if {abs(x) for x in w} <= {1, m}]
    for l in range(1, k + 1):
        for sign in (1, -1):
            for u in u_list:
                count += 1
                yield ("L1", lift(u) + (sign,) * l)
    firsts = [w for w, s in zip(slot.first_list, slot.first_sym) if s != SYM_ID]
    mids = [w for w, s in zip(slot.mid_list, slot.mid_sym) if s != SYM_ID]
    for l in range(1, k + 1):
        for r in range(1, l + 1):
            for alpha in census._alpha_vectors(l, r):
                for combo in product(firsts, *([mids] * (r - 1))):
                    letters = []
                    for chunk, e in zip(combo, alpha):
                        letters.extend(lift(chunk))
                        letters.extend((1 if e > 0 else -1,) * abs(e))
                    count += 1
                    if count > limit:
                        raise BudgetExceeded(f"materialisation over {limit}")
                    yield ("L2", tuple(letters))


def _divisor_periods(alpha):
    """Proper divisors p of len(alpha) on which alpha is p-periodic."""
    r = len(alpha)
    out = []
    for p in range(1, r):
        if r % p == 0 and all(alpha[i] == alpha[i % p] for i in range(r)):
            out.append(p)
    return out


def _pattern_period_count(first, mid, p, q):
    """Symbol patterns of length p*q with period p over symbol -> count
    maps: the first slot and its repeats share a symbol."""
    m1 = sum(c * mid.get(s, 0) ** (q - 1) for s, c in first.items())
    m2 = sum(c ** q for c in mid.values())
    return m1 * m2 ** (p - 1)


def _formal_power_count(alpha, first, mid):
    """Tuples whose formal sigma pattern is a proper power, for one
    exponent vector.

    Pattern = the cyclic sequence of (slot symbol, exponent) pairs; it is
    a proper power iff it has a period on a proper divisor.  All-trivial
    symbol patterns collapse to a pure t-power, which is a proper power
    iff the total exponent has absolute value at least 2.
    """
    r = len(alpha)
    trivial = first.get(SYM_ID, 0) * mid.get(SYM_ID, 0) ** (r - 1)
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
            count += sign * _pattern_period_count(first, mid, g, r // g)
    pure_t_power = abs(sum(alpha)) >= 2
    count += (int(pure_t_power) - int(bool(periods))) * trivial
    return count


def alpha_walk_engine(first, mid, k):
    """census._composed_engine by walking all 2*3^(l-1) vectors per l,
    over symbol -> count maps."""
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
    """census._sample_zy over the enumerated slot lists, with one stratum
    per exponent vector."""
    slot = hdata(n, max(d, 1)).slot(d)
    rng = random.Random(seed)
    firsts = [(s, th) for s, th in zip(slot.first_sym, slot.first_thick)
              if s != SYM_ID]
    mids = [(s, th) for s, th in zip(slot.mid_sym, slot.mid_thick)
            if s != SYM_ID]
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


def vector_count(l, r):
    """Signed exponent vectors of t-length l with r blocks."""
    return census._composition_count(l, r) << r


def _balanced_count(l, r):
    """Signed exponent vectors of t-length l with r blocks whose sum is
    -1, 0 or 1: j negative blocks summing to s, the rest to l - s."""
    return sum(math.comb(r, j) * census._composition_count(s, j)
               * census._composition_count(l - s, r - j)
               for s in {l // 2, (l + 1) // 2} for j in range(r + 1))


def _group_period_count(groups, p, q):
    """Symbol patterns of length p*q with period p over (N, first, mid)
    groups: the first slot and its repeats share a symbol."""
    m1 = sum(count * first * mid ** (q - 1) for count, first, mid in groups)
    m2 = sum(count * mid ** q for count, _, mid in groups)
    return m1 * m2 ** (p - 1)


def block_engine(groups, trivial, k):
    """census._composed_engine one (l, r) block at a time: per block, J(q)
    counts the patterns with period q | r (q-periodic exponent vectors
    times q-periodic symbol patterns), and Mobius inversion over the
    divisors of r gives the primitive ones.  The identity symbol's
    (first, mid) is `trivial`; its all-trivial patterns are pure
    t-powers, proper powers iff |sum(alpha)| >= 2, so they are recounted
    by that rule and the power count is exact under every convention."""
    total = powers = 0
    for r in range(1, k + 1):
        all_trivial = trivial[0] * trivial[1] ** (r - 1)
        periods = {q: (census._mobius(r // q),
                       _group_period_count(groups, q, r // q))
                   for q in range(1, r + 1) if r % q == 0}
        for l in range(r, k + 1):
            block = vector_count(l, r) * periods[r][1]
            primitive_alpha = primitive = 0
            for q, (mu, patterns) in periods.items():
                if mu and l % (r // q) == 0:
                    vectors = mu * vector_count(l * q // r, q)
                    primitive_alpha += vectors
                    primitive += vectors * patterns
            total += block
            powers += block - primitive + all_trivial * (
                primitive_alpha - _balanced_count(l, r))
    return total, powers


def block_sample_zy(n, d, k, samples, seed):
    """census._sample_zy over a flat table of every (l, r) block."""
    counts = census_slots.counts(n, d)
    rng = random.Random(seed)
    l_u = census.enumerate_LU(d)
    firsts = range(sum(counts.l_hs) - l_u)
    mids = range(sum(counts.l_hu_s) - 1)
    off_l2 = counts.cyc_min + 2 * k * l_u
    blocks, ends, end = [], [], 0
    for l in range(1, k + 1):
        for r in range(1, l + 1):
            per_vector = len(firsts) * len(mids) ** (r - 1)
            blocks.append((l, r, per_vector, end))
            end += vector_count(l, r) * per_vector
            ends.append(end)
    total = off_l2 + end
    form, symbol, choice = census_slots.form, census_slots.symbol, rng.choice
    hits = 0
    for _ in range(samples):
        x = rng.randrange(total) - off_l2
        if x < 0:
            continue
        l, r, per_vector, start = blocks[bisect_right(ends, x)]
        alpha = census._unrank_alpha(l, r, (x - start) // per_vector)
        drawn = [form(n, 0, choice(firsts))]
        drawn += [form(n, 1, choice(mids)) for _ in range(r - 1)]
        if not all(thick for (_, thick) in drawn):
            continue
        pairs = tuple((symbol(n, w), a) for (w, _), a in zip(drawn, alpha))
        hits += census.smallest_period(pairs) == r
    return hits


def randrange_sample_zy(n, d, k, samples, seed):
    """census._sample_zy with a randrange call per draw, the t-length by
    bisection over the levels' closed-form sizes, and every symbol read
    for every all-thick tuple."""
    counts = census_slots.counts(n, d)
    rng = random.Random(seed)
    l_u = census.enumerate_LU(d)
    f = sum(counts.l_hs) - l_u
    m = sum(counts.l_hu_s) - 1
    off_l2 = counts.cyc_min + 2 * k * l_u
    total = off_l2 + f * census._vector_sum(m, k)
    block_ends = {}  # t-length -> cumulative r-block sizes, on first use
    form, symbol, below = census_slots.form, census_slots.symbol, rng.randrange
    hits = 0
    for _ in range(samples):
        x = rng.randrange(total) - off_l2
        if x < 0:
            continue
        l = bisect_t_level(x, f, m, k)
        x -= f * census._vector_sum(m, l - 1)
        if l not in block_ends:
            ends = block_ends[l] = [0]
            size = 2 * f
            for r in range(1, l + 1):
                ends.append(ends[-1] + size)
                size = size * 2 * m * (l - r) // r
        r = bisect_right(block_ends[l], x)
        x -= block_ends[l][r - 1]
        drawn = [form(n, 0, below(f))]
        drawn += [form(n, 1, below(m)) for _ in range(r - 1)]
        if not all(thick for (_, thick) in drawn):
            continue
        alpha = census._unrank_alpha(l, r, x // (f * m ** (r - 1)))
        pairs = tuple((symbol(n, w), a) for (w, _), a in zip(drawn, alpha))
        if census.smallest_period(pairs) == r:
            hits += 1
    return hits


def bisect_t_level(x, f, m, k):
    """The first t-length l <= k whose levels up to l hold more than x
    type (ii) tuples, by bisection over f _vector_sum(m, j)."""
    return bisect_right(range(k), x,
                        key=lambda j: f * census._vector_sum(m, j))


def randbelow(getrandbits, n):
    """The index random.Random.randrange(n) draws on CPython 3.10 to
    3.13: n.bit_length() random bits, drawn again while they reach n.
    census._sample_zy makes this draw inline.  As in randrange, n <= 0
    raises ValueError: getrandbits(0) is 0, so the loop would never
    end."""
    if n <= 0:
        raise ValueError(f"empty range for randrange({n})")
    bits = n.bit_length()
    x = getrandbits(bits)
    while x >= n:
        x = getrandbits(bits)
    return x


def square_unrank_reference(kind, ell, index):
    """census_slots._square_unrank walking p = 0..ell and building the
    set of excluded pairs at every p; each part unranked by repeated
    divmod against a fresh power of 3."""
    for p in range(ell + 1):
        n1, n2 = (4 * 3 ** (x - 1) if x else 1 for x in (p, ell - p))
        if kind:
            skip = n2 // 2
            size = (n1 + 1) // 2 * (n2 - skip)
        else:
            excluded = sorted({x * n2 + y for x in (3 ** p - 1, n1 - 1)
                               for y in (0, n2 // 4)})
            size = n1 * n2 - len(excluded)
        if index < size:
            break
        index -= size
    if kind:
        r1, r2 = divmod(index, n2 - skip)
        r2 += skip
    else:
        for x in excluded:
            index += x <= index
        r1, r2 = divmod(index, n2)

    def free_word(letters, length, rank):
        out = []
        for pos in range(length):
            q, rank = divmod(rank, 3 ** (length - 1 - pos))
            out.append([y for y in letters if not out or y != -out[-1]][q])
        return tuple(out)

    return (free_word((2, -2, 4, -4), p, r1)
            + free_word((1, -1, 3, -3), ell - p, r2))


def linear_unrank(auto, kind, ell, index):
    """census_slots._Automaton.unrank by scanning each state's successors
    letter by letter, over the path counts unrank built: (form, state)."""
    auto.unrank(kind, ell, 0)  # build the path counts of length ell
    paths = auto.paths[kind]
    s, word = 0, []
    for j in range(ell - 1, -1, -1):
        for y, t in auto.succ[s]:
            if index < paths[t, j]:
                break
            index -= paths[t, j]
        word.append(y)
        s = t
    return tuple(word), s


START_REFERENCE = (0, False, 0, 0, 0, 0, 0, 3)


def step_reference(n, square, state, y):
    """census_slots.step with every state component kept as the letters
    left it, and the facts of y worked out at each call."""
    last, flag, l1, lm, r1, rm, fl, cls = state
    m, j, g = n - 1, abs(y), abs(last)
    if last == -y or (square and g in (1, 3) and j in (2, 4)):
        return None
    if last and not square:
        if g == wrap(n, j + 1) or (flag and g == wrap(n, j - 1)):
            return None
        flag = flag if j == g else g == wrap(n, j + 2)
    sign = 1 if y > 0 else -1
    near_1, near_m = j in (2, m), j in (m - 1, 1)
    if l1 == 0:
        l1 = sign if j == 1 else 0 if near_1 else 2
    if lm == 0:
        lm = sign if j == m else 0 if near_m else 2
    r1 = sign if j == 1 else r1 if near_1 else 0
    rm = sign if j == m else rm if near_m else 0
    inner = 2 < j < m - 1
    fl = 4 if inner or fl == 4 else fl | (j == 2) | (j == m - 1) << 1
    if not last:
        cls = 0 if inner else 1 if j == 2 else 2 if j == m - 1 else 3
    if l1 in (1, -1) or lm in (1, -1):
        cls = 3
    return (y, flag, l1, lm, r1, rm, fl, cls)


def signature_reference(state):
    """census_slots._signature of a step_reference state, where fl 4
    (a letter of a3..a_{n-3}) is its own value."""
    _, _, l1, lm, r1, rm, fl, cls = state
    free, x = l1 in (0, 2) and lm in (0, 2), l1 == 1 and r1 == -1
    r = None
    if free and fl and r1 == rm == 0:
        r = (fl in (2, 3, 4)) + (fl in (1, 3, 4))
    return (free, fl in (0, 3, 4), x, x and lm == 1 and rm == -1, r, cls)


class ReferenceAutomaton:
    """The normal-form automaton over step_reference states, closed under
    every letter: states[i], and succ[i] the successor id of each letter
    in letter order (None where the letter may not follow)."""

    def __init__(self, n, square):
        self.n, self.square = n, square
        self.letters = tuple(s * i for i in range(1, n) for s in (1, -1))
        self.states, ids, self.succ = [START_REFERENCE], {}, []
        ids[START_REFERENCE] = 0
        while len(self.succ) < len(self.states):
            row = []
            for y in self.letters:
                t = step_reference(n, square, self.states[len(self.succ)], y)
                if t is not None and t not in ids:
                    ids[t] = len(self.states)
                    self.states.append(t)
                row.append(None if t is None else ids[t])
            self.succ.append(row)
        self.sigs = [signature_reference(s) for s in self.states]
        self.paths = {}  # (kind, state, j) -> completions, see unrank

    def tallies(self, depth):
        """Level by level to depth: the forms of each length counted by
        signature, one letter at a time."""
        frontier, out = {0: 1}, []
        for _ in range(depth + 1):
            tally = {}
            for s, c in frontier.items():
                tally[self.sigs[s]] = tally.get(self.sigs[s], 0) + c
            out.append(tally)
            nxt = {}
            for s, c in frontier.items():
                for t in self.succ[s]:
                    if t is not None:
                        nxt[t] = nxt.get(t, 0) + c
            frontier = nxt
        return out

    def in_slot(self, kind, s):
        """Whether a form ending in state s is in slot list `kind` (see
        census_slots.form): outside U, and for kind 1 also with no left
        divisor in U."""
        return self.states[s][6] != 0 and (not kind or self.sigs[s][0])

    def slot_forms(self, kind, ell):
        """(form, signature of its end state) of every level-ell form in
        slot list `kind`, in letter order, by depth-first extension."""
        out = []

        def walk(s, word):
            if len(word) == ell:
                if self.in_slot(kind, s):
                    out.append((tuple(word), self.sigs[s]))
                return
            for y, t in zip(self.letters, self.succ[s]):
                if t is not None:
                    walk(t, word + [y])

        walk(0, [])
        return out

    def unrank(self, kind, ell, index):
        """(form, signature of its end state) at `index` among the
        level-ell forms of slot list `kind`, in letter order, by counting
        the completions of each letter in turn."""
        def paths(s, j):
            if (kind, s, j) not in self.paths:
                self.paths[kind, s, j] = sum(
                    paths(t, j - 1) for t in self.succ[s] if t is not None
                ) if j else int(self.in_slot(kind, s))
            return self.paths[kind, s, j]

        s, word = 0, []
        for j in range(ell - 1, -1, -1):
            for y, t in zip(self.letters, self.succ[s]):
                if t is None:
                    continue
                if index < paths(t, j):
                    break
                index -= paths(t, j)
            word.append(y)
            s = t
        return tuple(word), self.sigs[s]

    def moore_minimum(self):
        """The state count of the minimal automaton with the same counts:
        Moore's partition refinement, from the partition by signature and
        by fl != 0 (what a slot list reads of an end state), until the
        successor classes of every letter split no class."""
        part = [(sig, s[6] != 0) for sig, s in zip(self.sigs, self.states)]
        classes = len(set(part))
        while True:
            ids = {}
            part = [ids.setdefault(
                (p, tuple(None if t is None else part[t] for t in row)),
                len(ids)) for p, row in zip(part, self.succ)]
            if len(ids) == classes:
                return classes
            classes = len(ids)


def reference_LH(n, d):
    """census.enumerate_LH over the enumerated forms."""
    by_len = [len(lev) for lev in hdata(n, d).forms_by_len[:d + 1]]
    out = {"n": n, "d": d, "l_H": sum(by_len), "l_HS": by_len,
           "source": census.ENUMERATED}
    if n == 5:
        general = [len(lev) for lev in iter_general_forms(5, d)]
        out["l_HS_general"] = general
        out["l_H_general"] = sum(general)
    return out


def reference_LHU(n, d):
    """census.enumerate_LHU over the enumerated forms."""
    slot = hdata(n, d).slot(d)
    m = n - 1
    a = b = c = e = 0
    by_len = [0] * (d + 1)
    for w, th in zip(slot.mid_list, slot.mid_thick):
        by_len[len(w)] += 1
        e += not th
        if w:
            i = abs(w[0])
            if i == 2:
                b += 1
            elif i == m - 1:
                c += 1
            elif 3 <= i <= m - 2:
                a += 1
    return {"n": n, "d": d, "l_HU": len(slot.mid_list), "l_HU_S": by_len,
            "a": a, "b": b, "c": c, "e": e, "source": census.ENUMERATED}


def reference_e_prime(n, d):
    return sum(1 for th in hdata(n, d).slot(d).first_thick if not th)


def reference_census_row(n, d, k, mode="exhaustive", samples=None, seed=None):
    """census_row(...).to_json_dict() with every enumerated value taken
    from the enumerated slot lists, the exponent-vector walk and its
    sampler; the FORMULA side is census._formula_dict."""
    slot = hdata(n, max(d, 1)).slot(d)
    lh, lhu = reference_LH(n, d), reference_LHU(n, d)
    l_u = census.enumerate_LU(d)
    l1 = 2 * k * l_u
    comp = {}
    for thick_only, strict in product((False, True), repeat=2):
        first, mid = slot.tallies(thick_only=thick_only, strict=strict)
        comp[thick_only, strict] = alpha_walk_engine(first, mid, k)
    (l2, _), (z2_l2, _) = comp[False, False], comp[True, False]
    l2_strict, tpowers = comp[False, True]
    z2_strict, p_ts = comp[True, True]
    l_d0 = slot.cyc_min_count
    l_dk = l_d0 + l1 + l2_strict
    e_prime = reference_e_prime(n, d)
    enums = {
        "source": census.ENUMERATED,
        "l_H": lh["l_H"], "l_HS": lh["l_HS"], "l_U": l_u,
        "l_HU": lhu["l_HU"], "a": lhu["a"], "b": lhu["b"], "c": lhu["c"],
        "e": lhu["e"], "e_prime": e_prime,
        "l_d0": l_d0, "l1": l1, "l2": l2, "l2_strict": l2_strict,
        "l2_residual": l2 - l2_strict, "l_dk": l_dk,
        "tpowers_strict": tpowers,
        "t_H": lh["l_H"] - e_prime, "t_HU": lhu["l_HU"] - lhu["e"],
        "z1": l_dk - l_d0, "z2": l1 + z2_l2, "z2_strict": l1 + z2_strict,
        "z3": l_dk - l_u - l1,
        "z4": l_d0 + (2 * l_u if k >= 1 else 0) + l2_strict - tpowers,
        "zY": z2_strict - p_ts,
    }
    enums["rho_hat"] = enums["zY"] / l_dk if l_dk else 0.0
    row = census.CensusRow(n=n, d=d, k=k, enumerated=enums,
                           formula=census._formula_dict(n, d, k, enums))
    if mode == "sample":
        row.mode, row.seed, row.samples = mode, seed, samples
        p = alpha_walk_sample_zy(n, d, k, samples, seed) / samples
        enums["rho_sample"] = p
        row.rho_se = math.sqrt(p * (1 - p) / samples)
    return row.to_json_dict()


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
