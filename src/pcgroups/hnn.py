"""HNN-relative structure of a pc group with respect to a generator t.

The group splits as an HNN extension of the parabolic over A \\ {t} with
associated subgroup U generated by lk(t).  Elements factor as
g0 t^{e1} g1 ... t^{em} gm (reduced: an inner chunk in U forces equal
neighbouring exponents).  Replacing each chunk by its double-coset
symbol lands in the free product of a free group on the symbols with
the infinite cyclic group on t; primitivity there defines t-roots.

t-root lemma.  Let h have m >= 1 t-letters, no pinch (no e_i = -e_{i+1}
around an inner chunk in U), e_1 = e_m, and a primitive cyclic sequence
of exponents exps.  Then h is a t-root.  Proof sketch: symbol units never
touch, and two t-units touch only around a chunk in U, so without a
pinch sigma(h) is freely reduced as written.  Cyclic reduction can then
strip only the end symbols: the t-units t^{e_1} and t^{e_m} met next
have one sign.  The cyclically reduced sigma(h) thus holds all m
t-letters in order.  If it were the r-th power of a word with r >= 2,
rotating it by a period would map t-letters to t-letters, and exps
would be the r-th power of the exponents of one period, with m/r < m
letters: not primitive.  is_t_root uses the lemma to skip the symbols.

Core lemma.  sigma and is_t_root read each symbol unit as the
canonical U-core c of its chunk (_core_units).  The core of the chunk's
inverse is c' = lexmin(c^-1), and the symbol of c is (c, +1) when
c <= c' in the letter order, else (c', -1).
* No nonempty core is its own inverse: c = c' would give c^2 = 1, and
  the group is torsion-free.  So c and c' get one symbol with opposite
  signs: the units of c and c' are inverse.
* c -> signed symbol is injective: two cores with one symbol and sign
  +1 are that symbol, and two with sign -1 have one inverse, so are one
  element, and canonical.
* Hence the units of cores c1 and c2 are inverse exactly when
  c2 = lexmin(c1^-1): the unit inverse to c1's is the unit of c1', and
  by injectivity c1' is the one core with that unit.
Free reduction, cyclic reduction and the period test read only which
units are equal and which are inverse, so on the sequence of cores and
t-units they give what they give on sigma(h).  Free reduction is
confluent, so orienting the cores after it gives exactly the units
that orienting them before it gave: sigma orients only the cores that
survive, and is_t_root orients none.
"""

from __future__ import annotations

from .cosets import maln_support, oriented_symbol
from .errors import BadParameter, LinkNotClique, NoSplitFound
from .graphs import CommutationGraph
from .words import (
    Word,
    _Frozen,
    _set_field,
    canon_letters,
    canonical_split,
    format_word,
    invert_letters,
    minimal_form,
    reduce_letters,
)


class HnnWord(_Frozen):
    """Reduced factorisation g0 t^{e1} g1 ... t^{em} gm.

    chunks are canonical letter tuples over A \\ {t}, each a fixed point
    of canon_letters as hnn_factorize builds them: nothing checks it, and
    sigma and is_t_root are undefined for a hand-built factorisation with
    a chunk that is not canonical.  exps are +-1, one per t-letter;
    len(chunks) == len(exps) + 1.  These four fields are the whole
    value: every check below reads lk(t) from the graph it is given,
    and raises BadParameter when asked about a t other than h.t.
    """

    __slots__ = ("graph", "t", "chunks", "exps")

    def __init__(self, graph: CommutationGraph, t: str, chunks: tuple,
                 exps: tuple):
        _set_field(self, "graph", graph)
        _set_field(self, "t", t)
        _set_field(self, "chunks", chunks)
        _set_field(self, "exps", exps)

    def to_word(self) -> Word:
        t_idx = self.graph.index(self.t)
        letters = list(self.chunks[0])
        for e, chunk in zip(self.exps, self.chunks[1:]):
            letters.append(t_idx if e > 0 else -t_idx)
            letters.extend(chunk)
        return Word(self.graph, tuple(letters))

    def __str__(self):
        g = self.graph
        parts = []
        if self.chunks[0]:
            parts.append(format_word(Word(g, self.chunks[0])))
        for e, chunk in zip(self.exps, self.chunks[1:]):
            parts.append(self.t if e > 0 else f"{self.t}^-1")
            if chunk:
                parts.append(format_word(Word(g, chunk)))
        return " ".join(parts) if parts else "1"


def _u_indices(g: CommutationGraph, t) -> frozenset:
    """lk(t) as generator indices: t's row of the index adjacency."""
    return g._adj_idx[g.index(t)]


def _check_t(g, t, h):
    """lk(t) for the checks below, which answer for h.t alone."""
    if t != h.t:
        raise BadParameter(f"{t!r} is not the factorisation's letter {h.t!r}")
    return _u_indices(g, t)


def _wrap_support(adj, h) -> set:
    """Generators of the wrap chunk g_m g_0, read from its geodesic.
    reduce_letters finds it in one linear pass, also when letters of g_m
    cancel letters of g_0 across a long block they commute with."""
    return {abs(x) for x in reduce_letters(adj, h.chunks[-1] + h.chunks[0])}


def hnn_factorize(g: CommutationGraph, t, w) -> HnnWord:
    """Reduced factorisation of the element of w with respect to t.

    The chunks are the t-free factors of the canonical form, so each is
    canonical.  A geodesic admits no pinch t^e u t^{-e} with u in U,
    since such a pinch would shorten it, so the factorisation is
    reduced.
    """
    t_idx = g.index(t)
    chunks = [[]]
    exps = []
    for x in minimal_form(g, w).idx:
        if abs(x) == t_idx:
            exps.append(1 if x > 0 else -1)
            chunks.append([])
        else:
            chunks[-1].append(x)
    return HnnWord(g, t, tuple(map(tuple, chunks)), tuple(exps))


def t_length(h: HnnWord) -> int:
    return len(h.exps)


def is_cyclically_reduced_hnn(g: CommutationGraph, t, h: HnnWord) -> bool:
    """True iff h.h is reduced: m <= 1, or g_m g_0 not in U, or e_m = e_1."""
    u_idx = _check_t(g, t, h)
    if len(h.exps) <= 1 or h.exps[-1] == h.exps[0]:
        return True
    return not _wrap_support(g._adj_idx, h) <= u_idx


# ---------------------------------------------------------------------------
# the symbol map into F(D+) * <t>


class SigmaWord(_Frozen):
    """Image of an element in the free product F(D+) * <t>.

    units is a freely reduced tuple of unit letters (sym, sign): sym is
    None for a t-letter, otherwise the canonical letter tuple of the
    positively oriented double-coset symbol.
    """

    __slots__ = ("graph", "t", "units")

    def __init__(self, graph: CommutationGraph, t: str, units: tuple):
        _set_field(self, "graph", graph)
        _set_field(self, "t", t)
        _set_field(self, "units", units)

    def __len__(self):
        return len(self.units)

    def __str__(self):
        if not self.units:
            return "1"
        parts = []
        for sym, sign in self.units:
            if sym is None:
                parts.append(self.t if sign > 0 else f"{self.t}^-1")
            else:
                body = format_word(Word(self.graph, sym))
                parts.append(f"[{body}]" if sign > 0 else f"[{body}]^-1")
        return " ".join(parts)


def _inverse(adj, a, b) -> bool:
    """Whether units a and b of _core_units are inverse: t-units of
    opposite signs, or cores with b = lexmin(a^-1) (core lemma).  The
    letters of lexmin(a^-1) are those of a negated, so it is built only
    for a core b of a's length and negated letter sum."""
    if a[0] is None:
        return b == (None, -a[1])
    return b[0] is not None and len(a) == len(b) and sum(a) == -sum(b) \
        and b == canon_letters(adj, invert_letters(a))


def _core_units(adj, h, u_idx) -> list:
    """sigma(h) on canonical U-cores, freely reduced as it grows: a
    t-letter is the unit (None, e), a chunk outside U (generator indices
    u_idx) its core, and a chunk in U no unit."""
    units = []
    for e, chunk in zip((0,) + h.exps, h.chunks):
        if e:  # g_0 has no t-letter before it
            if units and units[-1] == (None, -e):
                units.pop()
            else:
                units.append((None, e))
        if len(chunk) > 1:
            chunk = canonical_split(adj, chunk, u_idx)[1]
        elif chunk and abs(chunk[0]) in u_idx:
            continue  # a letter of U; a letter outside U is its own core
        if not chunk:  # in U
            continue
        if units and units[-1][0] is not None \
                and _inverse(adj, units[-1], chunk):
            units.pop()
        else:
            units.append(chunk)
    return units


def sigma(g: CommutationGraph, t, h: HnnWord) -> SigmaWord:
    """sigma(p): chunks become double-coset symbols, t-powers expand to
    unit letters, and the result is freely reduced in the free product;
    by the core lemma each core that survives the reduction is oriented
    once.  The chunks of h must be canonical, as hnn_factorize builds
    them: two units are compared as letter tuples, so a non-canonical
    chunk can leave a pair unreduced (see HnnWord)."""
    u_idx = _check_t(g, t, h)
    adj = g._adj_idx
    return SigmaWord(g, t, tuple([
        u if u[0] is None else oriented_symbol(adj, u)
        for u in _core_units(adj, h, u_idx)]))


def cyclically_reduce_units(units):
    """Strip inverse first/last pairs: two indices move in, one slice."""
    i, j = 0, len(units) - 1
    while i < j and units[i][0] == units[j][0] and units[i][1] == -units[j][1]:
        i += 1
        j -= 1
    return tuple(units[i:j + 1])


def smallest_period(seq) -> int:
    """Smallest p dividing len(seq) with seq equal to its rotation by p.
    For p dividing n, that holds iff seq[p:] == seq[:-p]: then seq[i] =
    seq[i + p] for i < n - p, and the chain of such steps from i + p - n
    reaches i, which covers the letters the rotation wraps around."""
    n = len(seq)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and seq[p:] == seq[:-p]:
            return p
    return n


def _has_pinch(h, u_idx) -> bool:
    """Some inner chunk lies in U between t-letters of opposite signs."""
    return any(e != f and all(abs(x) in u_idx for x in c)
               for e, f, c in zip(h.exps, h.exps[1:], h.chunks[1:]))


def is_t_root(g: CommutationGraph, t, h: HnnWord) -> bool:
    """True iff sigma(h), cyclically reduced, is not a proper power.

    By the t-root lemma (module docstring) the t-exponents decide when h
    has no pinch, e_1 = e_m and exps is primitive.  Otherwise the stack
    of _core_units, unoriented, is stripped of its inverse end pairs and
    tested for a proper period (core lemma).
    """
    u_idx = _check_t(g, t, h)
    exps = h.exps
    if exps and exps[0] == exps[-1] and not _has_pinch(h, u_idx) \
            and smallest_period(exps) == len(exps):
        return True
    adj = g._adj_idx
    units = _core_units(adj, h, u_idx)
    i, j = 0, len(units) - 1
    while i < j and _inverse(adj, units[i], units[j]):  # inverse end pairs
        i += 1
        j -= 1
    n = j - i + 1
    return n <= 1 or smallest_period(units[i:j + 1]) == n


# ---------------------------------------------------------------------------
# thickness


def is_thick_support(adj, u_idx, supp) -> bool:
    """An element with generator set supp lies in U (generator indices
    u_idx) or in Maln(U), by the support criterion of
    cosets.maln_support (lk(t) is a clique).  The answer reads only the
    generators of supp outside U and their adjacency to U."""
    return supp <= u_idx or maln_support(adj, supp, u_idx)


def is_t_thick(g: CommutationGraph, t, h: HnnWord) -> bool:
    """Every chunk lies in U or in Maln(U).

    Needs lk(t) to be a clique so the support criterion for Maln applies;
    an empty link makes U trivial and every chunk thick.
    """
    u_idx = _check_t(g, t, h)
    adj = g._adj_idx
    if any(len(u_idx - adj[i]) != 1 for i in u_idx):
        raise LinkNotClique(f"lk({t}) is not a clique")
    return all(is_thick_support(adj, u_idx, {abs(x) for x in c})
               for c in h.chunks)


def is_cyclically_t_thick(g: CommutationGraph, t, h: HnnWord) -> bool:
    """Thick, cyclically reduced, and the wrap chunk g_m g_0 is thick too."""
    if not is_t_thick(g, t, h) or not is_cyclically_reduced_hnn(g, t, h):
        return False
    adj = g._adj_idx
    return not h.exps or is_thick_support(adj, _check_t(g, t, h),
                                          _wrap_support(adj, h))


# ---------------------------------------------------------------------------
# uniquely positioned factorisation


class UniquePositionSplit(_Frozen):
    __slots__ = ("a", "b", "rotation")

    def __init__(self, a: SigmaWord, b: SigmaWord, rotation: int):
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "rotation", rotation)


def _cyclic_occurrences(haystack, needle):
    n = len(haystack)
    count = 0
    for off in range(n):
        if all(haystack[(off + i) % n] == needle[i] for i in range(len(needle))):
            count += 1
    return count


def _uniquely_positioned(units, units_inv, segment):
    return (_cyclic_occurrences(units, segment) == 1
            and _cyclic_occurrences(units_inv, segment) == 0)


def unique_position_factorization(root: SigmaWord) -> UniquePositionSplit:
    """Rotation and split of a primitive cyclic sigma-word into two
    nonempty uniquely positioned parts.

    When several splits work at a rotation, one whose first part ends in
    a t-letter (right integral) is preferred.  Existence is guaranteed
    for primitive roots; a violated precondition raises NoSplitFound.
    """
    units = cyclically_reduce_units(root.units)
    n = len(units)
    if n < 2 or units != tuple(root.units):
        raise NoSplitFound("root must be cyclically reduced of length >= 2")
    if smallest_period(units) < n:
        raise NoSplitFound("root is a proper power")
    units_inv = tuple((s, -e) for (s, e) in reversed(units))
    for r in range(n):
        rot = units[r:] + units[:r]
        valid = []
        for m in range(1, n):
            a, b = rot[:m], rot[m:]
            if _uniquely_positioned(units, units_inv, a) \
                    and _uniquely_positioned(units, units_inv, b):
                valid.append((a, b))
        if valid:
            integral = [ab for ab in valid if ab[0][-1][0] is None]
            a, b = (integral or valid)[0]
            return UniquePositionSplit(
                a=SigmaWord(root.graph, root.t, a),
                b=SigmaWord(root.graph, root.t, b),
                rotation=r,
            )
    raise NoSplitFound("no uniquely positioned split exists")
