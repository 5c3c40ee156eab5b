"""Words and canonical minimal forms in a partially commutative group.

A word is a sequence of signed letters over the generators of a
CommutationGraph.  Internally letters are nonzero ints: generator i
(1-based, in declaration order) is +i, its inverse is -i.

Canonical form: the lexicographically least geodesic under the letter
order (generator index, then sign with + before -).  One letter engine
computes it and serves every layer above:

* canon_letters: one left-to-right insertion pass, the only routine
  that linearises letters.  Each letter scans back over the trailing
  letters of the canonical form built so far that it commutes with.
  If the scan ends at its inverse, the two cancel (Wrathall 1988);
  otherwise the letter goes in before the leftmost larger letter it
  passed (Anisimov-Knuth 1979).  A scan budget hands long commuting
  runs to _canon_heap, a heap walk of the dependence order of the
  geodesic reduce_letters gives;
* reduce_letters: the cancellation alone, one linear pass with no scan
  that decides the test from the last live position of each generator,
  for _canon_heap and the callers that need only a geodesic
  (conjugate_test and the wrap chunk of hnn);
* canonical_split: one pass per side of a canonical form peels the
  maximal left and right divisors over a vertex subset (the parabolic
  double-coset split), and linearises the core again only after an
  interior hole;
* _cyclic_core: one worklist pass over any geodesic removes the pairs
  y ... y^-1 of first and last letters that are a left and a right
  divisor (cyclic reduction, for cyclic_reduce and conjugate_test).

All geodesics of one element differ only by commutations, so the
canonical form is a class invariant.

A text passed to several calls (minimal_form, support, strip_divisors,
hnn_factorize, ...) is parsed and canonicalised once: a small memo,
_canon_text, keeps the canonical letters of the last 8 (graph, text)
pairs, never a Word or NormalForm, so each result is built on the
caller's own graph.  A NormalForm over the graph skips the memo
entirely, and a Word is not memoised.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from itertools import compress, islice
from heapq import heapify, heappop, heappush

from .errors import (
    BudgetExceeded,
    NotCyclicallyMinimal,
    UnknownGenerator,
    WordSyntaxError,
    ZeroExponent,
)
from .graphs import CommutationGraph, _complement_components

_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")

# Most letters parse_word expands one word into; `name^k` counts |k|.
# A longer word raises BudgetExceeded before its letters are built.
MAX_WORD_LETTERS = 10**6


def bounded_int(text, bound):
    """Value of a numeral (optional sign, digits), or None when its
    absolute value exceeds `bound`.  A long numeral with more significant
    digits than `bound` has is refused before int() sees it, so no input
    reaches Python's limit on integer-string length."""
    if len(text) > 10:
        digits = text.lstrip("+-").lstrip("0")
        if len(digits) > len(str(bound)):
            return None
        text = ("-" if text.startswith("-") else "") + (digits or "0")
    value = int(text)
    return value if abs(value) <= bound else None


# ---------------------------------------------------------------------------
# low-level machinery on int-encoded letter tuples


def invert_letters(w):
    return tuple(-x for x in reversed(w))


def reduce_letters(adj, w):
    """Geodesic of w in one left-to-right pass: the letters that survive
    Wrathall's cancellation test (Wrathall 1988), in input order.

    adj is the 1-based index adjacency of the graph.  last[k] is the
    position of the last live letter of generator k, below[p] that of
    the live letter of p's generator before p.  Letter x cancels the last
    live letter p of its generator when w[p] = x^-1 and no generator seen
    that does not commute with x has its last live letter after p: then
    x^-1 is a right divisor, and the live word stays geodesic.  Only such
    a candidate reads the generators seen, each listed once, so the pass
    is linear in |w| times the generators seen.
    """
    last = [-1] * len(adj)
    below = [-1] * len(w)
    out = list(w)  # a cancelled letter becomes 0
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
    return tuple(filter(None, out))


# Scan budget of the insertion scan: _SCAN_START, plus _SCAN_PER_LETTER
# for each letter taken in, less each letter's scan length; no scan
# passes it.
_SCAN_START = 64
_SCAN_PER_LETTER = 8


def _insert(adj, w):
    """Insert each letter of w into the canonical form built so far, as
    canon_letters describes.  Returns the letters as a tuple, or None
    once a scan would pass the budget."""
    out = []
    budget = _SCAN_START
    for x in w:
        gen = abs(x)
        nbrs = adj[gen]
        n = j = pos = len(out)
        budget += _SCAN_PER_LETTER
        stop = n - budget if budget < n else 0
        while j > stop:
            y = abs(out[j - 1])
            if y not in nbrs:
                break
            j -= 1
            if y > gen:
                pos = j
        else:
            if j and abs(out[j - 1]) in nbrs:
                return None
        budget -= n - j
        if j and out[j - 1] == -x:
            del out[j - 1]
        else:
            out.insert(pos, x)
    return tuple(out)


def _canon_heap(adj, w):
    """Canonical form of any word w, by a heap walk of its geodesic
    reduce_letters(adj, w): the fallback of canon_letters, linear in
    |w| times the generators seen.

    Each letter depends on the last earlier letter of every generator
    that equals its own or does not commute with it.  Popping the least
    ready letter from a heap keyed by (generator, sign) linearises this
    partial order greedily, which gives the lexicographic minimum over
    the class.  Equal letters are dependent, so no two ready letters tie.
    """
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


def canon_letters(adj, w):
    """Canonical form of any word w, in one insertion pass.

    Each letter x scans back over the trailing letters of the canonical
    form of the prefix read so far that commute with x.  A scanned
    letter has another generator than x, so comparing generators is
    enough.  When the letter that ends the scan is x^-1, that letter is
    deleted and x is not inserted; otherwise x goes in before the
    leftmost larger letter it passed, or at the end when none is.  Both
    steps keep the list the canonical form of the prefix read so far:
    * the scan passes exactly the trailing letters that commute with x,
      and so stops at the last letter that does not commute with x or
      has its generator; that letter is x^-1 iff x^-1 is a right
      divisor, which is Wrathall's cancellation test (Wrathall 1988),
      so the new list is geodesic;
    * a word is lex-least iff it has no factor b.u.a with a < b where a
      commutes with b and with every letter of u (Anisimov-Knuth 1979),
      and inserting x creates no such factor: x is no such a, since b.u
      would lie in the scan, whose letters before x are all smaller; x
      is no such b, since a < x < y for the letter y just after x, and a
      would commute with y and the letters between, so y...a was a
      forbidden factor of the old word; and a factor with x inside u
      was one of the old word without x;
    * deleting a right-divisor letter from a lex-least word leaves it
      lex-least: the letter commutes with every later letter, so a
      forbidden factor b.u.a of what is left would have been one of the
      word with it put back, the letter joining u when it lies between
      b and a, since it commutes with a.
    On a geodesic no scan ends at x^-1, since a geodesic prefix times x
    is geodesic, so the pass only linearises.

    One scan costs its length, so a long run of commuting letters makes
    insertion quadratic.  The running budget pays for the scans: a scan
    that would pass it stops there, and _canon_heap starts over on w.
    That caps the wasted work at _SCAN_START + _SCAN_PER_LETTER * |w|
    letter steps, list.insert's moves included (they move only scanned
    letters).
    """
    out = _insert(adj, w)
    return _canon_heap(adj, w) if out is None else out


def _peel(adj, w, yidx):
    """(side, kept, hole): a letter over yidx joins the side when every
    letter kept before it commutes with it.  free holds the generators
    of yidx that commute with every letter kept so far; once it is
    empty, no later letter can join the side and the rest of w is kept
    in one slice.  hole tells whether a side letter comes after a kept
    letter."""
    side, kept = [], []
    hole = False
    free = yidx
    for i, x in enumerate(w):
        gen = abs(x)
        if gen in free:
            if kept:
                hole = True
            side.append(x)
            continue
        kept.append(x)
        free = free & adj[gen]
        if not free:
            kept.extend(w[i + 1:])
            break
    return side, kept, hole


def canonical_split(adj, c, yidx):
    """Split a canonical c as left . core . right, length-additively:
    left is the maximal left divisor of c over the generators yidx, and
    right the maximal right divisor over yidx of what remains, so core
    has no left or right divisor over yidx.  Returns (left, core,
    right), left and right as lists, left and core canonical, right a
    geodesic not linearised.

    Interior-hole rule.  Call a left letter that comes after a kept
    letter of c an interior hole.
    * left is lex-least: each left letter commutes with every kept
      letter before it, so a forbidden factor b.u.a of left (see
      canon_letters) would be one of c, with those kept letters in u.
    * Without an interior hole the left letters are a prefix of c, so
      the kept letters are a factor of c, and lex-least.  The core is
      the kept letters less the right letters, each of which commutes
      with every later letter that stays; deleting such letters keeps a
      word lex-least (see canon_letters), so the core needs no
      linearising.  After an interior hole it is linearised again.
    """
    left, kept, hole = _peel(adj, c, yidx)
    right, core, _ = _peel(adj, kept[::-1], yidx)
    core.reverse()
    core = canon_letters(adj, core) if hole else tuple(core)
    return left, core, right[::-1]


def _cyclic_core(adj, w):
    """(ys, v) for a geodesic w, canonical or not: w = y_1...y_k . v .
    y_k^-1...y_1^-1 length-additively, v cyclically minimal, ys the y_i
    in removal order and v a subsequence of w.  One worklist pass.

    A generator g is removable when its first live letter y is a left
    and its last live letter y^-1 a right divisor: every live generator
    that does not commute with g occurs only between the two.  Two
    removable pairs commute and removing one leaves the other removable,
    so every order ends at one core, and the ys differ only by
    commutations.  Each generator keeps the positions of its first and
    last live letters.  A candidate that fails the test waits on the
    generator found outside its pair, and is tried again only when that
    generator loses a pair, or after losing a pair itself.  First
    letters only move right and last letters left, so a generator that
    passed the test for g's pair passes it until g loses that pair, and
    the retried test resumes where it stopped.  Each pair thus costs one
    pass over the generators not commuting with g plus one step per
    wake-up, and the whole O(|w| + m^2 + k m) for m generators.
    """
    occ = {}
    for p, x in enumerate(w):
        occ.setdefault(abs(x), []).append(p)
    none = len(w)  # first[g] of a generator with no live letter left
    first = [none] * len(adj)  # position of g's first live letter
    last = [-1] * len(adj)  # and of its last
    queue = []
    for g, ps in occ.items():
        p, q = first[g], last[g] = ps[0], ps[-1]
        if w[p] == -w[q]:
            queue.append(g)
    head, tail = {}, {}  # g -> index in occ[g] of first[g] and last[g]
    deps, ys = {}, []  # deps[g]: the generators of w not commuting with g
    waiting = {}  # k -> the candidates that failed on k
    passed = {}  # g -> how many of deps[g] passed g's pair
    live = bytearray(b"\x01") * len(w)
    while queue:
        g = queue.pop()
        p, q = first[g], last[g]
        if p >= q:
            continue
        y = w[p]
        if w[q] != -y:
            continue
        dg = deps.get(g)
        if dg is None:
            nbrs = adj[g]
            # g is in it too, and its own first and last pass the test
            dg = deps[g] = [k for k in occ if k not in nbrs]
        i = passed.get(g, 0)
        for k in islice(dg, i, None) if i else dg:
            if first[k] < p or last[k] > q:
                passed[g] = i
                waiting.setdefault(k, []).append(g)
                break
            i += 1
        else:
            passed[g] = 0
            ps = occ[g]
            h, t = head.get(g, 0) + 1, tail.get(g, len(ps) - 1) - 1
            head[g], tail[g] = h, t
            first[g], last[g] = (ps[h], ps[t]) if h <= t else (none, -1)
            live[p] = live[q] = 0
            ys.append(y)
            queue.append(g)
            queue += waiting.pop(g, ())
    return ys, tuple(compress(w, live))


def cyclic_core_letters(adj, w):
    """Split a geodesic w, canonical or not, as u^{-1} . v . u with v
    cyclically minimal; returns (u_letters, v_letters), both canonical.
    u, the inverse of the ys of _cyclic_core, and v are geodesics."""
    ys, v = _cyclic_core(adj, w)
    return canon_letters(adj, invert_letters(ys)), canon_letters(adj, v)


def _pair_rules(adj, u, v):
    """For each generator a of the block u, the rules (b, A, B, P_a, P_b)
    of the dependent pairs {a, b} (b = a included), or None when some
    projection of v is no rotation of u's.

    A cut c of the periodic heap u^Z is fixed by its count vector (n_a),
    and the {a, b} projection of c^-1 u c is pi_ab(u) rotated by
    n_a + n_b.  With P the primitive root of pi_ab(u) and r the one
    rotation of P that gives pi_ab(v), the pair allows exactly
    n_a = A + j P_a and n_b = B + j P_b over the integers j, where P_a
    and P_b count a and b in P, and A and B count them in P[:r].
    """
    gens = sorted({abs(x) for x in u})
    # one character per letter: twice its generator's rank in gens, plus
    # one for an inverse, so a projection is a string and str.find applies
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


def _meets_rules(rules, a0, n0):
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


def _block_conjugate(adj, u, v):
    """Whether the block v is c^-1 u c for a cut c of the heap u^Z, that
    is, lies in the rotation closure of u.  u and v are geodesics,
    canonical or not, cyclically minimal, of one length and one support
    S, and the complement graph on S is connected.

    Two reduced words are equal iff their projections onto every
    dependent pair {a, b} (a = b included) are equal (Cori-Perrin 1985).
    So v is in the closure iff one count vector meets every rule of
    _pair_rules.  Counts are read modulo u's own count vector, so the
    rarest generator a0 tries each n in [0, |u|_a0).
    Cost: O(|S|^2 L) for the rules and O(|S| L) for the search.
    """
    rules = _pair_rules(adj, u, v)
    if rules is None:
        return False
    counts = Counter(abs(x) for x in u)
    a0 = min(counts, key=lambda a: (counts[a], a))
    return any(_meets_rules(rules, a0, n0) for n0 in range(counts[a0]))


# ---------------------------------------------------------------------------
# public word types


_set_field = object.__setattr__


class _Frozen:
    """A slotted value class that compares, hashes, prints and refuses
    assignment as the frozen dataclass of its __slots__ would."""

    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            [f"{f}={getattr(self, f)!r}" for f in self.__slots__]) + ")"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Word(_Frozen):
    """A (not necessarily reduced) word over the generators of `graph`."""

    __slots__ = ("graph", "idx")  # idx: tuple of signed 1-based indices

    def __init__(self, graph: CommutationGraph, idx: tuple):
        _set_field(self, "graph", graph)
        _set_field(self, "idx", idx)

    @property
    def letters(self):
        return tuple((self.graph.name(abs(x)), 1 if x > 0 else -1)
                     for x in self.idx)

    def __len__(self):
        return len(self.idx)

    def __str__(self):
        return format_word(self)


class NormalForm(_Frozen):
    """Canonical minimal form of a group element."""

    __slots__ = ("word",)

    def __init__(self, word: Word):
        _set_field(self, "word", word)

    @property
    def idx(self):
        return self.word.idx

    @property
    def graph(self):
        return self.word.graph

    def __len__(self):
        return len(self.word.idx)

    def __str__(self):
        return format_word(self.word)


@dataclass(frozen=True)
class CyclicDecomposition:
    conjugator: NormalForm  # u
    core: NormalForm        # v, cyclically minimal

    def __str__(self):
        return f"({self.conjugator})^-1 . ({self.core}) . ({self.conjugator})"


def word_from_idx(g: CommutationGraph, idx) -> Word:
    return Word(g, tuple(idx))


def as_word(g: CommutationGraph, w) -> Word:
    """Coerce a Word, NormalForm or string to a Word over g."""
    if isinstance(w, NormalForm):
        w = w.word
    if isinstance(w, Word):
        if w.graph is not g and w.graph != g:
            raise WordSyntaxError("word belongs to a different graph")
        return w
    if isinstance(w, str):
        return parse_word(w, g)
    return word_from_idx(g, w)


def parse_word(text: str, g: CommutationGraph) -> Word:
    """Parse whitespace-separated tokens `name` or `name^k` (k nonzero).

    The bare token `1` denotes the identity and must appear alone.  A
    word of more than MAX_WORD_LETTERS letters after expansion raises
    BudgetExceeded.  The tokens `name` and `name^-1` are read from the
    graph's letter table; any other token goes through _TOKEN_RE.
    """
    tokens = text.split()
    if tokens == ["1"]:
        return Word(g, ())
    idx = []
    table = g._letter
    for tok in tokens:
        x = table.get(tok)
        if x is not None:
            if len(idx) >= MAX_WORD_LETTERS:
                raise BudgetExceeded(
                    f"word longer than {MAX_WORD_LETTERS} letters")
            idx.append(x)
            continue
        if tok == "1":
            raise WordSyntaxError("'1' must appear alone")
        m = _TOKEN_RE.match(tok)
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
    return Word(g, tuple(idx))


def format_word(w: Word) -> str:
    """Canonical text: maximal runs of one signed letter as name^k."""
    if not w.idx:
        return "1"
    parts = []
    run_letter = w.idx[0]
    run_len = 1
    for x in w.idx[1:]:
        if x == run_letter:
            run_len += 1
        else:
            parts.append(_format_run(w.graph, run_letter, run_len))
            run_letter, run_len = x, 1
    parts.append(_format_run(w.graph, run_letter, run_len))
    return " ".join(parts)


def _format_run(g, letter, count):
    name = g.name(abs(letter))
    k = count if letter > 0 else -count
    return name if k == 1 else f"{name}^{k}"


# ---------------------------------------------------------------------------
# public operations


@lru_cache(maxsize=8)
def _canon_text(g, text):
    """Canonical letters of a text over g.  An equal graph held in
    another object numbers its generators alike, so it may share an
    entry; a text that raises is not kept."""
    return canon_letters(g._adj_idx, parse_word(text, g).idx)


def _reduced_idx(g, w):
    """Canonical letters of w: a NormalForm over g is canonical by
    construction and gives its letters as they are; one over an equal
    graph held in another object is canonicalised again.  A text goes
    through _canon_text."""
    if isinstance(w, NormalForm) and w.graph is g:
        return w.idx
    if isinstance(w, str):
        return _canon_text(g, w)
    return canon_letters(g._adj_idx, as_word(g, w).idx)


def minimal_form(g: CommutationGraph, w) -> NormalForm:
    """Canonical geodesic representative of the element of w; a
    NormalForm over g is returned as it is."""
    if isinstance(w, NormalForm) and w.graph is g:
        return w
    return NormalForm(Word(g, _reduced_idx(g, w)))


def equal(g: CommutationGraph, w1, w2) -> bool:
    return _reduced_idx(g, w1) == _reduced_idx(g, w2)


def length(g: CommutationGraph, w) -> int:
    return len(_reduced_idx(g, w))


def support(g: CommutationGraph, w) -> set:
    """Generators occurring in the minimal form (well-defined)."""
    return {g.name(abs(x)) for x in _reduced_idx(g, w)}


def is_cyclically_minimal(g: CommutationGraph, w) -> bool:
    """No letter is a left divisor while its inverse is a right divisor:
    _cyclic_core finds no such pair to remove."""
    return not _cyclic_core(g._adj_idx, _reduced_idx(g, w))[0]


def cyclic_reduce(g: CommutationGraph, w) -> CyclicDecomposition:
    """Write w as u^{-1} . v . u with v cyclically minimal and lengths
    additive: l(w) = 2 l(u) + l(v)."""
    u, v = cyclic_core_letters(g._adj_idx, _reduced_idx(g, w))
    return CyclicDecomposition(NormalForm(Word(g, u)), NormalForm(Word(g, v)))


def _blocks(adj, core):
    """Letters of a cyclically minimal tuple over each connected component
    of the complement graph on its support, as subsequences of core,
    ordered by the least generator index of each component.  The blocks
    commute with one another."""
    comps = _complement_components(adj, {abs(x) for x in core})
    if len(comps) == 1:
        return [tuple(core)]
    return [tuple([x for x in core if abs(x) in comp]) for comp in comps]


def block_decomposition(g: CommutationGraph, v) -> list:
    """Factor a cyclically minimal element along the connected components
    of the complement graph on its support, each factor canonical."""
    adj = g._adj_idx
    idx = _reduced_idx(g, v)
    if _cyclic_core(adj, idx)[0]:
        raise NotCyclicallyMinimal(
            f"{format_word(Word(g, idx))} is not cyclically minimal")
    return [NormalForm(Word(g, canon_letters(adj, b)))
            for b in _blocks(adj, idx)]


def conjugate_test(g: CommutationGraph, w1, w2) -> bool:
    """Conjugacy via cyclic reduction, then block by block: a rotation
    moves a left-divisor letter of the core, which commutes with every
    other block, so two cores are conjugate iff their blocks pair up by
    support and each pair lies in one block's rotation closure.  Each
    pair is decided by its dependent-pair projections (_block_conjugate),
    without walking the closure.  What it reads (the core's support,
    the block lengths, the dependent-pair projections) is the same for
    every geodesic of an element, so it runs on geodesics and never
    builds a canonical form."""
    adj = g._adj_idx

    def geodesic(w):  # a NormalForm over g is one already
        if isinstance(w, NormalForm) and w.graph is g:
            return w.idx
        return reduce_letters(adj, as_word(g, w).idx)

    b1, b2 = (_blocks(adj, _cyclic_core(adj, geodesic(w))[1])
              for w in (w1, w2))
    if ([({abs(x) for x in b}, len(b)) for b in b1]
            != [({abs(x) for x in b}, len(b)) for b in b2]):
        return False
    return all(x == y or _block_conjugate(adj, x, y)
               for x, y in zip(b1, b2))
