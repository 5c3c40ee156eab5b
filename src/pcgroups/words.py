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
  reading first the generator that last blocked the letter's own and
  then the generators seen, for _canon_heap, the callers that need only
  a geodesic (conjugate_test and the wrap chunk of hnn) and cyclic
  reduction: the core of w is what the pass keeps of both copies of w.w
  (_cyclic_core);
* canonical_split: one pass per side of a canonical form peels the
  maximal left and right divisors over a vertex subset (the parabolic
  double-coset split), and linearises the core again only after an
  interior hole;
* conjugate_test: the cyclic cores, split into blocks; a free block
  (independent support) is decided by one substring test, any other by
  its dependent-pair projections (_block_conjugate);

All geodesics of one element differ only by commutations, so the
canonical form is a class invariant.

A text passed to several calls (minimal_form, support, strip_divisors,
hnn_factorize, ...) is parsed and canonicalised once: a small memo,
_canon_text, keeps the canonical letters of the last 8 (graph, text)
pairs, never a Word or NormalForm, so each result is built on the
caller's own graph.  A NormalForm over the graph skips the memo
entirely, and a Word is not memoised.

The value classes of every layer (Word, NormalForm, HnnWord, the
verdict records, ...) are slotted classes on one base, _Frozen, which
compares, hashes, prints and refuses assignment as a frozen dataclass
of its __slots__ would (or, declared frozen=False, accepts assignment
and is unhashable, as a plain dataclass).  Each has its own __init__.
dataclasses.fields, asdict, replace and is_dataclass work on them: the
base's __dataclass_fields__ is built on first read from a make_dataclass
twin and cached on the class, so importing the package loads neither
dataclasses nor the inspect machinery it pulls in.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import attrgetter

from .errors import (
    BudgetExceeded,
    NotCyclicallyMinimal,
    UnknownGenerator,
    WordSyntaxError,
    ZeroExponent,
)
from .graphs import CommutationGraph, _complement_components, _is_name


# Most letters parse_word expands one word into; `name^k` counts |k|.
# A longer word raises BudgetExceeded before its letters are built.
MAX_WORD_LETTERS = 10**6

# Most work units conjugate_test spends on dependent-pair projections:
# each non-free block it must project costs its dependent pairs {a, b}
# (a = b included) times its length, one translate of the block per pair.
# Free blocks (independent support) take one substring test and are not
# priced.  Over the budget it raises BudgetExceeded before the first
# projection.  About 50 ns a unit over str codes (blocks of more than 128
# generators) and 2-15 ns over bytes on a 2-CPU machine, so a block at the
# budget takes at most about 1 s; g1...g5000 g1^-1...g5000^-1 with the one
# edge g1-g2 (1.25e11 units) is refused.
CONJUGACY_BUDGET = 20_000_000


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


def _cancel(adj, w):
    """The letters of w after one left-to-right pass of Wrathall's
    cancellation test (Wrathall 1988), each cancelled letter made 0.

    adj is the 1-based index adjacency of the graph.  last[k] is the
    position of the last live letter of generator k, below[p] that of
    the live letter of p's generator before p.  Letter x cancels the last
    live letter p of its generator when w[p] = x^-1 and no blocker of x
    (a generator that does not commute with x) has its last live letter
    after p: then x^-1 is a right divisor, and the live word stays
    geodesic.

    A candidate first reads hint[gen], the generator that last blocked
    its generator (0, which has no letter, before any): while that one
    keeps blocking, as on the letters of (x z x^-1 z^-1)^k, the test
    fails in one read.  Otherwise it reads the generators seen, each
    listed once, and the first blocker found becomes the hint.  The hint
    is always a blocker, so a stale one, whose letter was cancelled or
    lies before p, costs one read and never changes the verdict.  So a
    candidate costs one read, or at most the generators seen.
    """
    last = [-1] * len(adj)
    hint = [0] * len(adj)
    below = [-1] * len(w)
    out = list(w)  # a cancelled letter becomes 0
    seen = []
    listed = bytearray(len(adj))  # listed[k]: k is in seen
    for q, x in enumerate(w):
        gen = abs(x)
        p = last[gen]
        if p < 0:
            if not listed[gen]:
                listed[gen] = 1
                seen.append(gen)
        elif out[p] != x and last[hint[gen]] < p:
            nbrs = adj[gen]
            for k in seen:
                if last[k] > p and k not in nbrs:
                    hint[gen] = k
                    break
            else:
                out[p] = out[q] = 0
                last[gen] = below[p]
                continue
        below[q] = p
        last[gen] = q
    return out


def reduce_letters(adj, w):
    """Geodesic of w: the letters _cancel keeps, in input order."""
    return tuple(filter(None, _cancel(adj, w)))


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
    in their order in w and v a subsequence of w.  The pass _cancel over
    w.w cancels the ys in the second copy and keeps v in both copies.

    Lemma: for geodesics x and y, the pass over x.y cancels d^-1, the
    greatest common prefix of x^-1 and y, as a prefix of y, against the
    suffix d of x.  No letter of x cancels.  Let the cancelled letters
    of y form a prefix of y, and a letter b of y cancel against p, the
    last live letter of its generator.  p is in x: else y holds p = b^-1
    ... b with only letters commuting with b between (a live one passed
    the test; a cancelled one that does not commute with b has p
    cancelled too).  So every letter of y before b that does not commute
    with b is cancelled, or it would be live after p: the cancelled
    letters stay a common prefix of x^-1 and y.  The pass leaves the
    geodesic x'.y' (x = x'.d, y = d^-1.y'), so they are d^-1.
    For w = u^-1.v.u, d^-1 is u^-1: a letter a that left-divides both
    v.u and v^-1.u either left-divides v, is in supp(v) and so
    left-divides v^-1 too (v is not cyclically minimal), or commutes with
    v and left-divides u (w is not length-additive).  A prefix of a
    trace takes the first occurrences of each generator and a suffix the
    last, so the pass cancels the letters where u^-1 and u sit in w.

    Cost: the pass over 2|w| letters, where a letter whose last blocker
    still blocks it costs one read and any other candidate at most the
    generators seen (see _cancel).  A worklist over first and last
    letters does O(|w| + m^2 + k m) for k pairs over m generators, but
    is a third home for the test.
    """
    out = _cancel(adj, w + w)
    second = out[len(w):]
    return ([x for x, b in zip(w, second) if not b],
            tuple([x for x, a, b in zip(w, out, second) if a and b]))


def cyclic_core_letters(adj, w):
    """Split a geodesic w, canonical or not, as u^{-1} . v . u with v
    cyclically minimal; returns (u_letters, v_letters), both canonical.
    u, the inverse of the ys of _cyclic_core, and v are geodesics."""
    ys, v = _cyclic_core(adj, w)
    return canon_letters(adj, invert_letters(ys)), canon_letters(adj, v)


def _encode(u, v):
    """(gens, code, pack, su, sv): the generators of the block u, sorted,
    and u and v encoded one code per letter, code[a] = twice a's rank in
    gens, code[-a] one more.  pack builds the encoding from codes: bytes
    for a block of up to 128 generators, one str character each above
    that.  supp(v) lies in supp(u)."""
    gens = sorted({abs(x) for x in u})
    code = {e * a: 2 * i + (e < 0)
            for i, a in enumerate(gens) for e in (1, -1)}
    pack = bytes if len(gens) <= 128 else (lambda c: "".join(map(chr, c)))
    return (gens, code, pack, pack(map(code.__getitem__, u)),
            pack(map(code.__getitem__, v)))


def _pair_rules(adj, u, v):
    """For each generator a of the block u, the rules (b, A, B, P_a, P_b)
    of the dependent pairs {a, b} (b = a included), or None when some
    projection of v is no rotation of u's.  supp(v) lies in supp(u).

    A cut c of the periodic heap u^Z is fixed by its count vector (n_a),
    and the {a, b} projection of c^-1 u c is pi_ab(u) rotated by
    n_a + n_b.  With P the primitive root of pi_ab(u) and r the one
    rotation of P that gives pi_ab(v), the pair allows exactly
    n_a = A + j P_a and n_b = B + j P_b over the integers j, where P_a
    and P_b count a and b in P, and A and B count them in P[:r].

    u and v are encoded once (_encode).  A projection is one translate
    that deletes every other code, find gives r and P, and count gives
    A and P_a (B = r - A and P_b = |P| - P_a when b != a, as P holds
    only a and b).
    """
    gens, code, pack, su, sv = _encode(u, v)
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


def _dependent_pairs(adj, supp) -> int:
    """Dependent pairs {a, b} over the generator set supp, a = b
    included: every pair less the commuting ones, which one set
    intersection per generator counts."""
    n = len(supp)
    return n * (n + 1) // 2 - sum(len(adj[a] & supp) for a in supp) // 2


def _block_conjugate(adj, u, v):
    """Whether the block v is c^-1 u c for a cut c of the heap u^Z, that
    is, lies in the rotation closure of u.  u and v are geodesics,
    canonical or not, cyclically minimal, of one length and one support
    S, and the complement graph on S is connected.  conjugate_test calls
    it on non-free blocks (some edge inside S) only.

    Two reduced words are equal iff their projections onto every
    dependent pair {a, b} (a = b included) are equal (Cori-Perrin 1985).
    So v is in the closure iff one count vector meets every rule of
    _pair_rules.  Counts are read modulo u's own count vector, so the
    rarest generator a0 tries each n in [0, |u|_a0).
    Cost: O(|S|^2 L) for the rules, the factor L inside translate, find
    and count, and O(|S| L) for the search.
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


class _DataclassFields:
    """__dataclass_fields__ of a value class, built on first read: the
    fields of a make_dataclass twin with the same field names, order,
    defaults and compare/repr flags, cached on the class.  So
    dataclasses.fields, asdict, replace and is_dataclass work on the
    class, and only they import dataclasses."""

    def __get__(self, obj, cls):
        if not cls.__slots__:  # the base itself has no fields
            raise AttributeError("__dataclass_fields__")
        import dataclasses
        # __init__ takes the fields in __slots__ order, annotated with
        # their types; a default that is a class (list) is a factory
        init = cls.__init__
        defaults = init.__defaults__ or ()
        defaults = dict(zip(cls.__slots__[len(cls.__slots__) - len(defaults):],
                            defaults))
        spec = []
        for name in cls.__slots__:
            shown = name not in cls._HIDDEN
            kw = {"compare": shown, "repr": shown}
            if name in defaults:
                value = defaults[name]
                kw["default_factory" if isinstance(value, type)
                   else "default"] = value
            spec.append((name, init.__annotations__.get(name, object),
                         dataclasses.field(**kw)))
        twin = dataclasses.make_dataclass(cls.__name__, spec,
                                          frozen=cls.__hash__ is not None)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        return twin.__dataclass_fields__


def _refuse_set(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Frozen:
    """A slotted value class that compares, hashes, prints and refuses
    assignment as the frozen dataclass of its __slots__ would.

    _HIDDEN names the fields left out of comparison, hashing and repr
    (field(compare=False, repr=False)).  A subclass declared with
    frozen=False is a mutable record instead: it takes assignment to
    its fields and is unhashable, as a plain @dataclass.  Each subclass
    has its own __init__, taking the fields in __slots__ order."""

    __slots__ = ()
    _HIDDEN = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._COMPARED = names = tuple([f for f in cls.__slots__
                                       if f not in cls._HIDDEN])
        # _key(obj) is the tuple of the compared fields; an attrgetter is
        # no descriptor, so self._key(self) calls it
        get = attrgetter(*names)
        cls._key = get if len(names) > 1 else staticmethod(
            lambda obj: (get(obj),))
        cls.__match_args__ = cls.__slots__
        if frozen:
            cls.__setattr__ = _refuse_set
            cls.__delattr__ = _refuse_delete
        else:
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            [f"{f}={getattr(self, f)!r}" for f in self._COMPARED]) + ")"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f)
                                      for f in self.__slots__])

    def __replace__(self, /, **changes):  # copy.replace, Python 3.13
        return self.__class__(
            **{**{f: getattr(self, f) for f in self.__slots__}, **changes})


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


class CyclicDecomposition(_Frozen):
    __slots__ = ("conjugator", "core")  # u, and v cyclically minimal

    def __init__(self, conjugator: NormalForm, core: NormalForm):
        _set_field(self, "conjugator", conjugator)
        _set_field(self, "core", core)

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
    graph's letter table; any other token must be a vertex name,
    optionally followed by `^`, one optional `-` and decimal digits
    (str.isdecimal: any Unicode decimal digit, so `a^٣` is a^3).
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
        name, caret, exp = tok.partition("^")
        digits = exp[1:] if exp[:1] == "-" else exp
        if not _is_name(name) or caret and not digits.isdecimal():
            raise WordSyntaxError(f"bad token {tok!r}")
        if name not in g:
            raise UnknownGenerator(f"unknown generator {name!r}")
        k = bounded_int(exp, MAX_WORD_LETTERS) if caret else 1
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
    """No letter left-divides w while its inverse right-divides it: w.w
    is geodesic, since its geodesic is u^-1.v.v.u (see _cyclic_core)."""
    w = _reduced_idx(g, w)
    return len(reduce_letters(g._adj_idx, w + w)) == 2 * len(w)


def cyclic_reduce(g: CommutationGraph, w) -> CyclicDecomposition:
    """Write w as u^{-1} . v . u with v cyclically minimal and lengths
    additive: l(w) = 2 l(u) + l(v)."""
    u, v = cyclic_core_letters(g._adj_idx, _reduced_idx(g, w))
    return CyclicDecomposition(NormalForm(Word(g, u)), NormalForm(Word(g, v)))


def _blocks(core, comps):
    """Letters of a cyclically minimal tuple over each of comps, the
    connected components of the complement graph on its support (as
    _complement_components orders them), as subsequences of core.  The
    blocks commute with one another."""
    if len(comps) == 1:
        return [tuple(core)]
    return [tuple([x for x in core if abs(x) in comp]) for comp in comps]


def block_decomposition(g: CommutationGraph, v) -> list:
    """Factor a cyclically minimal element along the connected components
    of the complement graph on its support, each factor canonical."""
    nf = minimal_form(g, v)
    if not is_cyclically_minimal(g, nf):
        raise NotCyclicallyMinimal(f"{nf} is not cyclically minimal")
    comps = _complement_components(g._adj_idx, {abs(x) for x in nf.idx})
    return [minimal_form(g, Word(g, b)) for b in _blocks(nf.idx, comps)]


def conjugate_test(g: CommutationGraph, w1, w2) -> bool:
    """Conjugacy via cyclic reduction, then block by block: a rotation
    moves a left-divisor letter of the core, which commutes with every
    other block, so two cores are conjugate iff each pair of blocks lies
    in one block's rotation closure.  A rotation is a cut of the
    periodic heap, so it keeps every letter, and conjugate cores have
    equal letter counts.  So equal cores are conjugate, cores whose
    sorted letters differ are not, and otherwise the cores have one
    support, hence the same blocks with the same lengths.

    A block whose support S is independent in the graph (a free block)
    is freely and cyclically reduced: were x and x^-1 adjacent in it,
    cyclically, each letter between them in the core would lie in
    another complement component and commute with all of S, so x and
    x^-1 would cancel in the core.  Cyclically reduced words of a free group
    are conjugate iff one is a cyclic permutation of the other
    (Lyndon-Schupp I.1), so a pair of free blocks u, v that differ is
    decided by one substring test, v in u.u, on their encoded letters
    (_encode), in O(L).  Every other pair that differs is decided by its
    dependent-pair projections (_block_conjugate), without walking the
    closure; those blocks are priced against CONJUGACY_BUDGET first,
    and free blocks are never priced.  What it reads (the core's
    letters, the blocks' encodings and projections) is the same for
    every geodesic of an element, so it runs on geodesics and never
    builds a canonical form: two passes of _cancel per word, one for its
    geodesic and one over the square for its core."""
    adj = g._adj_idx

    def geodesic(w):  # a NormalForm over g is one already
        if isinstance(w, NormalForm) and w.graph is g:
            return w.idx
        return reduce_letters(adj, as_word(g, w).idx)

    c1, c2 = (_cyclic_core(adj, geodesic(w))[1] for w in (w1, w2))
    if c1 == c2:
        return True
    if sorted(c1) != sorted(c2):
        return False
    comps = _complement_components(adj, {abs(x) for x in c1})
    pairs = [(comp, x, y, all(adj[a].isdisjoint(comp) for a in comp))
             for comp, x, y in zip(comps, _blocks(c1, comps),
                                   _blocks(c2, comps)) if x != y]
    work = sum(_dependent_pairs(adj, comp) * len(x)
               for comp, x, y, free in pairs if not free)
    if work > CONJUGACY_BUDGET:
        raise BudgetExceeded(f"conjugacy needs {work} work units, "
                             f"over {CONJUGACY_BUDGET}")
    for comp, x, y, free in pairs:
        if free:
            su, sv = _encode(x, y)[3:]
            if sv not in su + su:
                return False
        elif not _block_conjugate(adj, x, y):
            return False
    return True
