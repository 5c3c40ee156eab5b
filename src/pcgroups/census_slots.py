"""Slot data of the census, counted over the normal-form automaton.

For the n-cycle-with-chord graph the subgroup over a1..a_{n-1} is the
pc group of the (n-1)-cycle, and U is the rank-two free abelian
parabolic over the chord ends a1, a_{n-1}.  The census reads, for the
normal forms of length <= d, how many there are by length, which have
a left divisor in U, which are thick, which are cyclically minimal, and
the double-coset symbols with their slot counts.  The forms are never
built: the prohibited factor a_{i+1}^e a_{i-1}^b a_i^d is local, so
they are a regular language (so is the square system of n = 5), and one
cached transfer-matrix pass (Flajolet-Sedgewick, Analytic Combinatorics,
ch. V) counts them level by level by these properties, in time linear
in d.  Sample mode unranks the forms it draws from the same counts.

A state keeps only what the signatures of its extensions can still
read (the merges and their lemmas are in _Automaton), so at n = 6 the
automaton has 211 states where the plain components reach 781, near
the 198 of its Moore minimum, and step reads each letter's facts from
a table built once per n.  A step is two lookups: whether the letter
may follow and the flag after it depend on the last letter and flag
alone, and the status of U after it on the status before it alone, so
each automaton keeps both per letter for each such part it meets
(successors).  Of a drawn form the census also reads its
double-coset symbol, split from its canonical form; a square form of
n = 5 is an {a2, a4} part and an {a1, a3} part that commute letter by
letter, so its canonical form is the merge of the two.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from heapq import merge
from itertools import accumulate
from types import SimpleNamespace

from .errors import BadParameter, BudgetExceeded
from .graphs import cycle_with_chord
from .words import canon_letters, canonical_split

# automaton steps (states x letters, summed over levels) one system may
# spend reaching its chunk budget d
WORK_BUDGET = 3_000_000
# steps one letter of the alphabet is priced at: its row of the letter
# table and the state of level 1 it leads to, about 4 us on a 2-CPU
# machine, where a step of upto takes about 0.13 us
_LETTER_STEPS = 30


def check_n(n):
    if n < 5:
        raise BadParameter(f"census needs n >= 5, got {n}")


@lru_cache(maxsize=32)
def chord_graph(n):
    return cycle_with_chord(n)


@lru_cache(maxsize=32)
def h_adj(n):
    """1-based cycle adjacency for generators a1..a_{n-1}: the chorded
    cycle without t."""
    return chord_graph(n).induced([f"a{i}" for i in range(1, n)])._adj_idx


START = (0, False, 0, 0, 0, 0, 0, 3)  # automaton state of the empty word


def letter_facts(n, y):
    """What step reads of letter y: (y, |y|, the generators one below,
    one above and two above |y| on the cycle, its effect on a1 and on
    a_{n-1}, the fl bits it sets, and its class as a first letter).  Its
    effect on a generator of U is 0 if y commutes with it, y's sign if y
    is that generator, and 2 otherwise."""
    m, j, sign = n - 1, abs(y), 1 if y > 0 else -1
    inner = 2 < j < m - 1
    return (y, j, (j - 2) % m + 1, j % m + 1, (j + 1) % m + 1,
            sign if j == 1 else 0 if j in (2, m) else 2,
            sign if j == m else 0 if j in (m - 1, 1) else 2,
            3 if inner else (j == 2) | (j == m - 1) << 1,
            0 if inner else 1 if j == 2 else 2 if j == m - 1 else 3)


def _moves(square, last, flag, table):
    """(index, letter, flag after it, fl bits) for each letter of table
    that may follow a state with this last letter and flag."""
    g = abs(last)
    out = []
    for k, (y, j, below, above, above2, _, _, bits, _) in enumerate(table):
        if last == -y:
            continue
        if square:
            if g in (1, 3) and j in (2, 4):
                continue
        elif last:
            if g == above or (flag and g == below):
                continue
            out.append((k, y, flag if j == g else g == above2, bits))
            continue
        out.append((k, y, flag, bits))
    return out


def _u_moves(l1, lm, r1, rm, cls, table):
    """(l1, lm, r1, rm, cls) after each letter of table; cls is None for
    the empty word, whose first letter sets it."""
    out = []
    for _, _, _, _, _, e1, em, _, first in table:
        a, b, c, d = l1, lm, r1, rm
        if e1:
            a, c = a or e1, 0 if e1 == 2 else e1
        if em:
            b, d = b or em, 0 if em == 2 else em
        # keep only what later signatures can read (see _Automaton)
        if a == -1 or a == 2 and b in (1, -1):
            out.append((-1, -1, 0, 0, 3))
            continue
        if a == 1:
            c = -(c == -1)
            if b in (-1, 2):
                b = -1
        elif a == 2:
            c = abs(c)
        d = -(d == -1) if b == 1 else abs(d) if b == 2 else 0
        out.append((a, b, c, d, 3 if a in (1, -1) or b in (1, -1)
                     else first if cls is None else cls))
    return out


def successors(square, state, table, moves, u_moves):
    """(letter, state after it) for each letter of table (given by its
    letter_facts) that may follow the state, in table order (see
    _Automaton).  Whether a letter may follow, and the flag after it,
    depend on the last letter and flag alone; l1, lm, r1, rm and cls
    after it on those before it alone.  moves and u_moves keep both per
    table, by those parts of the state."""
    last, flag, l1, lm, r1, rm, fl, cls = state
    key = last, flag
    m = moves.get(key)
    if m is None:
        m = moves[key] = _moves(square, last, flag, table)
    key = l1, lm, r1, rm, cls if last else None
    u = u_moves.get(key)
    if u is None:
        u = u_moves[key] = _u_moves(*key, table)
    out = []
    for k, y, f, bits in m:
        a, b, c, d, e = u[k]
        out.append((y, (y, f, a, b, c, d, fl | bits, e)))
    return out


def step(square, state, letter):
    """The state after a letter, given by its letter_facts, or None if it
    may not follow."""
    out = successors(square, state, (letter,), {}, {})
    return out[0][1] if out else None


def _signature(state):
    """What the census reads of a form: whether it has no left divisor in
    U; whether it is thick; whether a1 is a left and a1^-1 a right
    divisor; whether a_{n-1} and a_{n-1}^-1 are too; r for a nontrivial
    U-core, None for other forms; and the first letter's class."""
    _, _, l1, lm, r1, rm, fl, cls = state
    free, x = l1 in (0, 2) and lm in (0, 2), l1 == 1 and r1 == -1
    r = (fl & 1) + (fl >> 1) if free and fl and r1 == rm == 0 else None
    return (free, fl in (0, 3), x, x and lm == 1 and rm == -1, r, cls)


class _Automaton:
    """The working normal-form system, counted level by level.

    A state is (last, flag, l1, lm, r1, rm, fl, cls):
    - last: the last letter (0 at first); flag: whether the generator
      before the last run is |last|+2, which forbids |last|+1;
    - l1, lm: the left status of a1 and a_{n-1}, the generators of U: 0
      while every letter commutes with it, its sign once it is a left
      divisor, 2 once a letter that does not commute with it came first;
    - r1, rm: the sign of its last occurrence while only letters that
      commute with it follow (a right divisor), else 0;
    - fl: the generators outside U that occur: bit 1 a2, bit 2 a_{n-2},
      both bits for any of a3..a_{n-3}; a form is thick iff fl is 0 or 3,
      inside U or in Maln(U) by maln_support;
    - cls: the first letter's a/b/c class 0, 1 or 2, or 3 for none and
      once U has a left divisor.
    tallies[l] counts the forms of length l by _signature, which reads
    l1 and lm (free: both 0 or 2), fl (thick, and r), l1 and r1 (x: a1
    left, a1^-1 right), x with lm and rm (x2), r1 and rm as zero or not
    (r, only while free) and cls; unrank reads fl != 0 and free.

    successors keeps each state as the least representative of what later
    signatures can still read of it, so states that no signature or
    slot list can tell apart are one state:
    - l1 and lm never change once nonzero, so free, once false, stays
      false, and x needs l1 = 1; once l1 = -1, or l1 = 2 and lm = +-1,
      free, x and x2 are false for good and (l1, lm, r1, rm) is
      (-1, -1, 0, 0);
    - r1 and rm each move by "set to the letter's sign", "keep" or
      "reset to 0", so an idempotent map of their values that fixes 0
      commutes with every letter, and may keep only what later
      signatures read: with l1 = 1 only r1 = -1 counts (x), and with
      lm = 1 only rm = -1 (x2); with l1 = 2 or lm = 2, x or x2 is false
      for good and r reads r1 or rm as zero or not; with l1 = 1, lm = -1
      or 2 makes x2 false for good, so lm is -1 there; rm is unread
      while lm = -1, and 0 anyway while lm = 0;
    - fl only gains bits, and any of a3..a_{n-3} gives the signature of
      a2 and a_{n-2} together (thick, r = 2), so it sets both bits.
    At n = 6 this leaves 211 of the 781 states the plain components
    reach, against 198 in the Moore minimum (partition refinement from
    the signatures); 235 of 805 at n = 7, against 222.
    """

    def __init__(self, n, square):
        if (_LETTER_STEPS + 1) * 2 * (n - 1) > WORK_BUDGET:  # level 1
            raise BudgetExceeded(
                f"census needs more than {WORK_BUDGET} automaton steps")
        self.square = square
        self.letters = tuple(s * i for i in range(1, n) for s in (1, -1))
        self.table = tuple(letter_facts(n, y) for y in self.letters)
        self.states, self.ids = [START], {START: 0}
        self.sigs = [_signature(START)]
        self.succ = {}
        self.moves, self.u_moves = {}, {}  # see successors
        self.frontier, self.level_states = {0: 1}, [(0,)]
        self.tallies = [{self.sigs[0]: 1}]
        self.work = _LETTER_STEPS * len(self.letters)
        self.paths = ({}, {})  # per slot kind: (state, j) -> completions
        self.ends = ({}, {})  # per slot kind: (state, j) -> cumulative
        self.slot_ends = ([0], [0])  # per slot kind: cumulative level sizes

    def _successors(self, s):
        """(letter, state id) pairs in letter order, computed once."""
        succ = self.succ.get(s)
        if succ is None:
            ids, states = self.ids, self.states
            succ = self.succ[s] = []
            for y, t in successors(self.square, states[s], self.table,
                                   self.moves, self.u_moves):
                i = ids.get(t)
                if i is None:
                    i = ids[t] = len(states)
                    states.append(t)
                    self.sigs.append(_signature(t))
                succ.append((y, i))
        return succ

    def upto(self, d):
        """The tallies, counted at least to level d.

        Level l + 1 costs (states at l) x (letters) steps, and every level
        past the first has a state per last letter; the sum to d is checked
        at that minimum before each level, so a d over WORK_BUDGET raises
        BudgetExceeded before any work is wasted.  The work starts at
        _LETTER_STEPS per letter, the letter table and the states of
        level 1, which __init__ refuses before building them when level 1
        would not fit.
        """
        width = len(self.letters)
        while len(self.tallies) <= d:
            cost = len(self.frontier) * width
            ahead = (d - len(self.tallies)) * width * width
            if self.work + cost + ahead > WORK_BUDGET:
                raise BudgetExceeded(
                    f"census needs more than {WORK_BUDGET} automaton steps")
            self.work += cost
            nxt, tally = {}, {}
            for s, c in self.frontier.items():
                for _, t in self._successors(s):
                    nxt[t] = nxt.get(t, 0) + c
            for t, c in nxt.items():
                tally[self.sigs[t]] = tally.get(self.sigs[t], 0) + c
            self.frontier = nxt
            self.level_states.append(tuple(nxt))
            self.tallies.append(tally)
        return self.tallies

    def unrank(self, kind, ell, index):
        """(form, state): the level-ell form at `index` in slot list
        `kind` (see form), in letter order a1, a1^-1, a2, ... as the
        enumeration meets them, and the id of the state its walk ends in.

        paths[s, j] counts the completions of j letters from state s that
        end in the slot list; ends[s, j] holds the cumulative counts over
        s's successors, from 0 to paths[s, j], so each letter of the walk
        is one bisection.
        """
        paths, ends = self.paths[kind], self.ends[kind]
        if (0, ell) not in paths:  # the start state's entry comes last
            for i in range(ell, -1, -1):
                for s in self.level_states[i]:
                    j = ell - i
                    if (s, j) in paths:
                        continue
                    if j:
                        acc = ends[s, j] = list(accumulate(
                            (paths[t, j - 1] for _, t in self.succ[s]),
                            initial=0))
                        paths[s, j] = acc[-1]
                    else:  # outside U; later slots: no left divisor in U
                        paths[s, 0] = int(self.states[s][6] != 0
                                          and (not kind or self.sigs[s][0]))
        s, word = 0, []
        for j in range(ell, 0, -1):
            acc = ends[s, j]
            i = bisect_right(acc, index) - 1
            index -= acc[i]
            y, s = self.succ[s][i]
            word.append(y)
        return tuple(word), s


@lru_cache(maxsize=32)
def automaton(n, square):
    return _Automaton(n, square)


# The letters that may follow each letter in a reduced word over the
# square system's two alphabets, {a2, a4} and {a1, a3}, in letter order.
_FOLLOW = {y: tuple(z for z in letters if z != -y)
           for letters in ((2, -2, 4, -4), (1, -1, 3, -3)) for y in letters}


def _free_word(letters, length, rank):
    """The reduced word at `rank` among those of `length` over the two
    generators of `letters` (one of the square system's alphabets), in
    depth-first letter order: rank is its first letter's place among four
    times 3^(length-1) plus the places of the others among the three that
    do not cancel, as base-3 digits.  Past 18 letters, the last ones are
    cut off 18 digits (3^18 < 2^30) at a time, so each letter is read
    from an integer of one machine word, and a long word costs one
    division of a big integer by a one-word divisor per 18 letters."""
    lows = []
    while length > 18:
        rank, low = divmod(rank, 387_420_489)  # 3^18
        lows.append(low)
        length -= 18
    out, choices = [], letters
    block = 3 ** length  # words per choice of the next letter, times 3
    while True:
        for _ in range(length):
            block //= 3
            q, rank = divmod(rank, block)
            y = choices[q]
            out.append(y)
            choices = _FOLLOW[y]
        if not lows:
            return tuple(out)
        rank, length, block = lows.pop(), 18, 387_420_489


def _square_unrank(kind, ell, index):
    """_Automaton.unrank for the square system, which orders a level
    ell >= 1 by the length p of the {a2, a4} part and then by the two
    parts, reduced words in letter order.  The later slots take the parts
    that are empty or led by a2 and by a3: the first half of the first
    part's words and the second half of the second's.  The first slot
    takes every pair but a4^{+-p} a1^{+-q}, the forms inside U, whose
    parts rank 3^p - 1 or last, and 0 or 3^(q-1).

    The blocks of p = 0 and p = ell each hold 2 * 3^(ell-1) pairs in the
    later slots and 4 * 3^(ell-1) - 2 in the first, and the block of a p
    with 0 < p < ell 4 * 3^(ell-2) and 16 * 3^(ell-2) - 4, whatever p
    is, so p is found by one division past the block of p = 0."""
    pow3 = 3 ** (ell - 1)
    p = 0
    end = 2 * pow3 if kind else 4 * pow3 - 2  # the block of p = 0
    if index >= end:
        index -= end
        mid = (4 * pow3 if kind else 16 * pow3 - 12) // 3 if ell > 1 else 0
        if index < (ell - 1) * mid:
            p, index = divmod(index, mid)
            p += 1
        else:
            p, index = ell, index - (ell - 1) * mid
    n1 = 4 * 3 ** (p - 1) if p else 1
    n2 = 4 * 3 ** (ell - p - 1) if p < ell else 1
    if kind:
        skip = n2 // 2
        r1, r2 = divmod(index, n2 - skip)
        r2 += skip
    else:  # step over the excluded pairs, in increasing order
        for x in ((3 ** p - 1, n1 - 1) if p else (0,)):
            for y in ((0, n2 // 4) if p < ell else (0,)):
                index += x * n2 + y <= index
        r1, r2 = divmod(index, n2)
    return (_free_word((2, -2, 4, -4), p, r1)
            + _free_word((1, -1, 3, -3), ell - p, r2))


@lru_cache(maxsize=4096)
def form(n, kind, index):
    """(form, thick) at `index` in a slot list: kind 0 the first slot (the
    forms outside U), kind 1 the later slots (nontrivial, no left divisor
    in U), by length and then in the working system's enumeration order.
    At n >= 6 thickness is read from the signature of the state the walk
    ends in; the square system of n = 5 tests the form's letters."""
    auto = automaton(n, n == 5)
    ends = auto.slot_ends[kind]
    while ends[-1] <= index:
        ell = len(ends) - 1
        level = auto.upto(ell)[ell]
        if kind:
            size = sum(c for sig, c in level.items() if sig[0]) if ell else 0
        else:
            size = sum(level.values()) - (4 * ell if ell else 1)  # less U
        ends.append(ends[-1] + size)
    ell = bisect_right(ends, index) - 1
    index -= ends[ell]
    if n == 5:
        # outside U = {a1, a4} are a2, which commutes with a1 and not a4,
        # and a3, the other way round, so by maln_support a form of the
        # slot lists is in Maln(U) iff it has both
        w = _square_unrank(kind, ell, index)
        return w, (2 in w or -2 in w) and (3 in w or -3 in w)
    w, s = auto.unrank(kind, ell, index)
    return w, auto.sigs[s][1]


def _square_canon(w):
    """canon_letters of a square form w of n = 5: a reduced word over
    {a2, a4}, then one over {a1, a3}, where each letter of one commutes
    with each of the other.  Each part is the only geodesic of its
    element, so the lex-least geodesic of w takes the smaller head of
    the two parts at every letter: their merge, in linear time."""
    return tuple(merge([x for x in w if x % 2 == 0], [x for x in w if x % 2],
                       key=lambda x: (abs(x), x < 0)))


@lru_cache(maxsize=4096)
def symbol(n, w):
    """The double-coset symbol of a form outside U, as its canonical
    U-core: distinct U-cores never share a symbol.  The U-core is fixed
    by the element, so it is split from w's canonical form."""
    adj = h_adj(n)
    c = _square_canon(w) if n == 5 else canon_letters(adj, w)
    return canonical_split(adj, c, frozenset((1, n - 1)))[1]


@lru_cache(maxsize=32)
def counts(n, d):
    """The slot data of (n, d), summed from the automaton tallies: the
    forms by length (l_hs) and those without a left divisor in U (l_hu_s),
    the latter's split by first letter a3..a_{n-3} / a2 / a_{n-2} (abc),
    the non-thick ones among those (e) and among all forms (e_prime), the
    cyclically minimal forms (cyc_min) and the nontrivial U-cores by
    (length, r, thick) (cores).

    A form is cyclically reducible iff some g^e is a left and g^-e a right
    divisor.  Left divisors commute, so at most two (an edge) are bad, and
    the cycle's symmetries and the inversions a_i -> a_i^-1 keep length:
    by inclusion-exclusion a level loses 2(n-1) X - 4(n-1) Y forms, X and
    Y counting the bad a1^+1 and the bad pair a1^+1, a_{n-1}^+1.
    """
    check_n(n)
    l_hs, l_hu_s, abc = [], [], [0, 0, 0, 0]  # by class; 3 is dropped
    e = e_prime = cyc_min = 0
    cores = {}
    for ell, level in enumerate(automaton(n, n == 5).upto(d)[:d + 1]):
        forms = free = x = y = 0
        for (noleft, thick, bad, bad2, r, cls), c in level.items():
            forms += c
            x, y = x + bad * c, y + bad2 * c
            e_prime += (not thick) * c
            if noleft:
                free += c
                e += (not thick) * c
                abc[cls] += c
            if r is not None:
                cores[ell, r, thick] = cores.get((ell, r, thick), 0) + c
        l_hs.append(forms)
        l_hu_s.append(free)
        cyc_min += forms - 2 * (n - 1) * (x - 2 * y)
    return SimpleNamespace(l_hs=tuple(l_hs), l_hu_s=tuple(l_hu_s),
                           abc=tuple(abc[:3]), e=e, e_prime=e_prime,
                           cyc_min=cyc_min, cores=cores)


def _ball(r, s):
    """Elements of length <= s in a free abelian group of rank r: 2^i C(r,
    i) C(s, i) of them have i nonzero coordinates."""
    return sum(math.comb(r, i) * math.comb(s, i) << i for i in range(r + 1))


def tally(n, d, *, thick_only, strict):
    """Groups (N, first, mid) of N symbols with `first` forms each in the
    first slot and `mid` in a later one; the identity symbol is one group
    unless strict drops it.

    A nontrivial U-core c of length l is one symbol, with the forms u.c.v:
    u over U, v over the r generators of U that do not commute with c.
    With s = d - l a later slot (u = 1) has _ball(r, s) of them, and the
    first slot _ball(r + 2, s): the pairs with |u| + |v| <= s are a ball
    in Z^2 x Z^r.
    """
    groups = [(count, _ball(r + 2, d - ell), _ball(r, d - ell))
              for (ell, r, thick), count in counts(n, d).cores.items()
              if thick or not thick_only]
    if strict:
        return groups
    return groups + [(1, _ball(2, d), 1)]  # the identity's forms are U itself
