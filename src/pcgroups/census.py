"""Census of normal forms over the chorded-cycle family of graphs.

For the n-cycle-with-chord graph the subgroup over A0 = {a1..a_{n-1}} is
the pc group of the (n-1)-cycle.  This module enumerates its normal
forms (two systems: the square system for n = 5, where the subgroup is a
product of two free groups, and the prohibited-subword system for all
n >= 5), the derived slot sets (no-left-divisor forms, the rank-two free
abelian parabolic over the chord ends, thickness, coset symbols), and
the composed words of bounded t-length built from them; it validates the
closed counting formulas and bounds against the enumeration and
classifies composed words by the four embedding-theorem hypotheses.

Counting conventions.  The closed product formulas for type (ii) words
count tuples whose first slot ranges over *all* bounded-length subgroup
elements and whose later slots include the identity; the set definition
requires every slot nontrivial.  Both tallies are computed: the
trivial-allowed ("indexed") tally reproduces the closed formulas
exactly and is reported as l2/z2; the strict tally defines the honest
word set L(d,k) used for l_dk, z1, z3, z4, zY and the density.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .cosets import maln_support, oriented_symbol
from .errors import (
    BadAlphabet,
    BadParameter,
    BadSeed,
    BudgetExceeded,
    NonIntegralFormula,
    WordSyntaxError,
    ZeroExponent,
)
from .graphs import cycle_with_chord
from .words import (
    MAX_WORD_LETTERS,
    Word,
    bounded_int,
    is_cyclically_minimal_letters,
    lexmin_letters,
    split_letters,
)

ENUMERATED = "ENUMERATED"
FORMULA = "FORMULA"

SYM_ID = ((), 1)  # coset symbol of the identity

_FORM_BUDGET = 3_000_000


# ---------------------------------------------------------------------------
# the cycle subgroup: adjacency, normal forms, slot classification


def _check_n(n):
    if n < 5:
        raise BadParameter(f"census needs n >= 5, got {n}")


@lru_cache(maxsize=32)
def _chord_graph(n):
    return cycle_with_chord(n)


@lru_cache(maxsize=32)
def _h_adj(n):
    """1-based cycle adjacency for generators a1..a_{n-1}: the chorded
    cycle without t."""
    return _chord_graph(n).induced([f"a{i}" for i in range(1, n)])._adj_idx


def _wrap(n, i):
    return (i - 1) % (n - 1) + 1


_H_TOKEN_RE = re.compile(r"a([0-9]+)(?:\^([+-]?[0-9]+))?\Z")


def parse_h_word(n, text):
    """Parse `a2 a1^-3 ...` over the cycle generators into signed ints.

    Same letter budget and ZeroExponent as words.parse_word: a word of
    more than MAX_WORD_LETTERS letters after expansion raises
    BudgetExceeded before the token that crosses it is expanded.
    """
    _check_n(n)
    out = []
    for tok in text.split():
        if tok == "1":
            continue
        name = tok.partition("^")[0]
        if not name.startswith("a"):
            raise BadAlphabet(f"bad generator {name!r}")
        m = _H_TOKEN_RE.match(tok)
        if not m:
            raise WordSyntaxError(f"bad token {tok[:40]!r}")
        i = bounded_int(m.group(1), n)
        if i is None or not 1 <= i <= n - 1:
            raise BadAlphabet(f"generator {name[:40]!r} out of range for n={n}")
        k = 1 if m.group(2) is None else bounded_int(m.group(2), MAX_WORD_LETTERS)
        if k is None or len(out) + abs(k) > MAX_WORD_LETTERS:
            raise BudgetExceeded(f"word longer than {MAX_WORD_LETTERS} letters")
        if k == 0:
            raise ZeroExponent(f"zero exponent in {tok[:40]!r}")
        out.extend([i if k > 0 else -i] * abs(k))
    return tuple(out)


def _check_alphabet(n, w):
    for x in w:
        if not 1 <= abs(x) <= n - 1:
            raise BadAlphabet(f"letter {x} out of range for n={n}")


def is_normal_form(n, w, square=False) -> bool:
    """Normal-form membership for a letter tuple over a1..a_{n-1}.

    General mode: freely reduced with no factor a_{i+1}^e a_{i-1}^b a_i^d
    (b may be 0, subscripts wrap around the cycle).  Square mode (n = 5
    only): a reduced word over {a2, a4} followed by one over {a1, a3}.
    """
    _check_n(n)
    w = tuple(w)
    _check_alphabet(n, w)
    if square:
        if n != 5:
            raise BadParameter("square normal forms exist only for n = 5")
        boundary = 0
        while boundary < len(w) and abs(w[boundary]) in (2, 4):
            boundary += 1
        if any(abs(x) not in (1, 3) for x in w[boundary:]):
            return False
        return all(w[i] != -w[i + 1] for i in range(len(w) - 1))
    for q in range(len(w)):
        if q and w[q] == -w[q - 1]:
            return False
        i = abs(w[q])
        below, above = _wrap(n, i - 1), _wrap(n, i + 1)
        p = q - 1
        while p >= 0 and abs(w[p]) == below:
            p -= 1
        if p >= 0 and abs(w[p]) == above:
            return False
    return True


def _iter_general_forms(n, dmax):
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
                below, above = _wrap(n, j - 1), _wrap(n, j + 1)
                p = len(w) - 1
                while p >= 0 and abs(w[p]) == below:
                    p -= 1
                if p >= 0 and abs(w[p]) == above:
                    continue
                nxt.append(w + (y,))
        total += len(nxt)
        if total > _FORM_BUDGET:
            raise BudgetExceeded(f"more than {_FORM_BUDGET} normal forms")
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


def _iter_square_forms(dmax):
    """Square normal forms over the 4-cycle, by length (n = 5 only)."""
    if dmax > 0 and 1 + 8 * dmax * 3 ** (dmax - 1) > _FORM_BUDGET:
        raise BudgetExceeded(f"more than {_FORM_BUDGET} normal forms")
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
        _check_n(n)
        self.n = n
        self.dmax = dmax
        self.adj = _h_adj(n)
        if n == 5:
            self.forms_by_len = _iter_square_forms(dmax)
        else:
            self.forms_by_len = _iter_general_forms(n, dmax)
        self._slots = {}

    def forms(self, d):
        out = []
        for lev in self.forms_by_len[:d + 1]:
            out.extend(lev)
        return out

    def slot(self, d):
        if d not in self._slots:
            self._slots[d] = _SlotData(self, d)
        return self._slots[d]


class _SlotData:
    """Per-d slot populations with symbols and thickness flags."""

    def __init__(self, hdata, d):
        adj = hdata.adj
        u_idx = frozenset((1, hdata.n - 1))  # U: the chord ends a1, a_{n-1}
        self.first_list, self.first_sym, self.first_thick = [], [], []
        self.mid_list, self.mid_sym, self.mid_thick = [], [], []
        self.u_count = 0
        self.cyc_min_count = 0
        for w in hdata.forms(d):
            left, core, _ = split_letters(adj, w, u_idx)
            sym = oriented_symbol(adj, lexmin_letters(adj, core))
            supp = {abs(x) for x in w}
            in_u = supp <= u_idx
            thick = in_u or maln_support(adj, supp, u_idx)
            self.first_list.append(w)
            self.first_sym.append(sym)
            self.first_thick.append(thick)
            if in_u:
                self.u_count += 1
            if not left:
                self.mid_list.append(w)
                self.mid_sym.append(sym)
                self.mid_thick.append(thick)
            if is_cyclically_minimal_letters(adj, w):
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
def _hdata(n, dmax):
    return HData(n, dmax)


# ---------------------------------------------------------------------------
# basic enumerated counts


def enumerate_LH(n, d):
    """Exhaustive normal-form counts: totals and by exact length.

    For n = 5 both systems are generated; their per-length counts must
    agree (each is in bijection with the subgroup elements).
    """
    hd = _hdata(n, d)
    by_len = [len(lev) for lev in hd.forms_by_len[:d + 1]]
    out = {
        "n": n, "d": d,
        "l_H": sum(by_len),
        "l_HS": by_len,
        "source": ENUMERATED,
    }
    if n == 5:
        general = [len(lev) for lev in _iter_general_forms(5, d)]
        out["l_HS_general"] = general
        out["l_H_general"] = sum(general)
    return out


def enumerate_LHU(n, d):
    """Counts over the no-left-divisor forms: total, first-letter split
    (interior letters / a2 / a_{n-2}) and the non-thick count e(d)."""
    hd = _hdata(n, d)
    slot = hd.slot(d)
    m = n - 1
    a = b = c = 0
    e = 0
    by_len = [0] * (d + 1)
    for w, th in zip(slot.mid_list, slot.mid_thick):
        by_len[len(w)] += 1
        if not th:
            e += 1
        if w:
            i = abs(w[0])
            if i == 2:
                b += 1
            elif i == m - 1:
                c += 1
            elif 3 <= i <= m - 2:
                a += 1
    return {
        "n": n, "d": d,
        "l_HU": len(slot.mid_list),
        "l_HU_S": by_len,
        "a": a, "b": b, "c": c,
        "e": e,
        "source": ENUMERATED,
    }


def enumerate_LU(d):
    """|{a_{n-1}^x a1^y : |x| + |y| <= d}|, independent of n >= 5."""
    count = 0
    for x in range(-d, d + 1):
        for y in range(-d, d + 1):
            if abs(x) + abs(y) <= d:
                count += 1
    return count


def enumerate_e_prime(n, d):
    """Elements of L_H(d) outside U union Maln(U)."""
    slot = _hdata(n, d).slot(d)
    return sum(1 for th in slot.first_thick if not th)


# ---------------------------------------------------------------------------
# closed formulas


def _exact_div(num, den):
    q, r = divmod(num, den)
    if r:
        raise NonIntegralFormula(f"{num} / {den} is not integral")
    return q


def formula_lH_5(d):
    return 1 if d == 0 else 1 + 8 * d * 3 ** (d - 1)


def formula_lHS_5(m):
    if m == 0:
        return 1
    if m == 1:
        return 8
    return 8 * 3 ** (m - 2) * (2 * m + 1)


def formula_lHU_5(d):
    return 1 if d == 0 else 3 ** (d - 1) * (3 + 2 * d)


def formula_e(d):
    return 2 * (3 ** d - 1)


def formula_lU(d):
    return 1 + 2 * d * (d + 1)


def formula_e_prime(d):
    return 8 * (3 ** d - 1) - 4 * d * (2 + d)


def formula_l1(d, k):
    return 2 * k * (1 + 2 * d * (d + 1))


def formula_l2(lH, lHU, k):
    """(l_H / l_H^U) [(2 l_H^U + 1)^k - 1]; the division must be exact."""
    if k == 0:
        return 0
    return 2 * lH * _exact_div((2 * lHU + 1) ** k - 1, 2 * lHU)


def formula_l2_stratum(lH, lHU, r):
    return 2 ** r * lH * lHU ** (r - 1)


def formula_z2ii(tH, tHU, k):
    if k == 0:
        return 0
    if tHU == 0:
        return 0
    return 2 * tH * _exact_div((2 * tHU + 1) ** k - 1, 2 * tHU)


def tpower_bound(a, b, c, k):
    """Upper bound for the t-power count in the strict type (ii) set,
    summed over t-length l = 1..k with parameters a, b, c."""
    if a <= c:
        raise BadParameter("bound needs a > c")
    sa, sc = math.sqrt(a), math.sqrt(c)
    total = 0.0
    for l in range(1, k + 1):
        total += (2 ** l * sa * b * c ** ((l + 1) / 2) / (a - c)) * (sa + sc) ** (l - 1)
    return total


def bounds_hold(n, d_list, m_list):
    """Sandwich bounds for n >= 6: per-length and cumulative normal-form
    counts and the no-left-divisor counts.  Returns a detail list.

    The no-left-divisor sandwich is derived by summing the three
    first-letter classes, which the identity element sits outside of; the
    bound therefore applies to the identity-free count a + b + c
    (equal to the full count minus one).
    """
    if n < 6:
        raise BadParameter("bounds are stated for n >= 6")
    alpha, gamma = 2 * n - 5, 2 * n - 7
    dmax = max(max(d_list, default=0), max(m_list, default=0))
    lh = enumerate_LH(n, dmax)
    out = []
    for m in m_list:
        lo = 2 * (n - 1) * gamma ** (m - 1)
        hi = 2 * (n - 1) * alpha ** (m - 1)
        val = lh["l_HS"][m]
        out.append(("l_HS", m, lo, val, hi, lo <= val <= hi))
    for d in d_list:
        lo = 1 + Fraction(n - 1, n - 4) * (gamma ** d - 1)
        hi = 1 + Fraction(n - 1, n - 3) * (alpha ** d - 1)
        val = sum(lh["l_HS"][:d + 1])
        out.append(("l_H", d, lo, val, hi, lo <= val <= hi))
        lhu = enumerate_LHU(n, d)
        split_sum = lhu["a"] + lhu["b"] + lhu["c"]
        assert split_sum == lhu["l_HU"] - 1
        lo2, hi2 = gamma ** d - 1, alpha ** d - 1
        out.append(("l_HU_nontrivial", d, lo2, split_sum, hi2,
                    lo2 <= split_sum <= hi2))
    return out


# ---------------------------------------------------------------------------
# composed words


def compositions(total, parts):
    """Ordered compositions of `total` into `parts` positive parts."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def _alpha_vectors(l, r):
    for p in compositions(l, r):
        for signs in product((1, -1), repeat=r):
            yield tuple(x * s for x, s in zip(p, signs))


def _composition_count(total, parts):
    """Number of ordered compositions of `total` into `parts` positive
    parts (the empty composition of 0 counts once)."""
    if parts and total:
        return math.comb(total - 1, parts - 1)
    return int(total == parts)


def _vector_count(l, r):
    """Signed exponent vectors of t-length l with r blocks."""
    return _composition_count(l, r) << r


def _balanced_count(l, r):
    """Signed exponent vectors of t-length l with r blocks whose sum is
    -1, 0 or 1: j negative blocks summing to s, the rest to l - s."""
    return sum(math.comb(r, j) * _composition_count(s, j)
               * _composition_count(l - s, r - j)
               for s in {l // 2, (l + 1) // 2} for j in range(r + 1))


def _mobius(m):
    """The Mobius function of m >= 1, by trial division."""
    sign, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def _unrank_alpha(l, r, index):
    """The vector at `index` in the order _alpha_vectors(l, r) yields:
    compositions head first, then signs in product((1, -1)) order."""
    index, sign_index = divmod(index, 1 << r)
    parts, rest = [], l
    for left in range(r, 1, -1):
        head = 1
        while index >= (c := _composition_count(rest - head, left - 1)):
            index -= c
            head += 1
        parts.append(head)
        rest -= head
    parts.append(rest)
    return tuple(-x if sign_index >> (r - 1 - i) & 1 else x
                 for i, x in enumerate(parts))


def _pattern_period_count(first, mid, p, q):
    """Symbol patterns of length p*q with period p: the first slot and its
    repeats share a symbol, every other position repeats independently."""
    m1 = sum(c * mid.get(s, 0) ** (q - 1) for s, c in first.items())
    m2 = sum(c ** q for c in mid.values())
    return m1 * m2 ** (p - 1)


def _composed_engine(first, mid, k):
    """Total and proper-power tallies over all type (ii) tuples with the
    given slot populations, t-length budget k.

    A tuple is a (symbol, exponent) pattern of r blocks; it is a proper
    power iff the pattern is not primitive.  Per (l, r) block, J(q)
    counts the patterns with period q | r: q-periodic exponent vectors
    (those of t-length l*q/r with q blocks, when r/q divides l) times
    q-periodic symbol patterns.  Mobius inversion over the divisors of r
    gives the primitive ones.  All-trivial symbol patterns collapse to a
    pure t-power, a proper power iff |sum(alpha)| >= 2, so they are
    recounted by that rule instead.
    """
    total = 0
    powers = 0
    for r in range(1, k + 1):
        trivial = first.get(SYM_ID, 0) * mid.get(SYM_ID, 0) ** (r - 1)
        periods = {q: (_mobius(r // q), _pattern_period_count(first, mid, q, r // q))
                   for q in range(1, r + 1) if r % q == 0}
        for l in range(r, k + 1):
            block = _vector_count(l, r) * periods[r][1]
            primitive_alpha = primitive = 0
            for q, (mu, patterns) in periods.items():
                if mu and l % (r // q) == 0:
                    vectors = mu * _vector_count(l * q // r, q)
                    primitive_alpha += vectors
                    primitive += vectors * patterns
            total += block
            powers += (block - primitive
                       + trivial * (primitive_alpha - _balanced_count(l, r)))
    return total, powers


def enumerate_composed(n, d, k):
    """Composed-word tallies under both slot conventions.

    Indexed: first slot over all of L_H(d) and later slots over all of
    L_H^U(d) -- reproduces the closed product formulas.  Strict: every
    slot nontrivial -- the honest disjoint word set.
    """
    slot = _hdata(n, max(d, 1)).slot(d)
    l_u = enumerate_LU(d)
    l1 = 2 * k * l_u
    out = {"n": n, "d": d, "k": k, "l1": l1, "source": ENUMERATED}

    first_a, mid_a = slot.tallies(thick_only=False, strict=False)
    out["l2"], p_a = _composed_engine(first_a, mid_a, k)
    out["z4_false_l2"] = p_a

    first_t, mid_t = slot.tallies(thick_only=True, strict=False)
    out["z2_l2"], thick_powers = _composed_engine(first_t, mid_t, k)

    first_s, mid_s = slot.tallies(thick_only=False, strict=True)
    out["l2_strict"], out["tpowers_strict"] = _composed_engine(first_s, mid_s, k)

    first_ts, mid_ts = slot.tallies(thick_only=True, strict=True)
    z2_strict, p_ts = _composed_engine(first_ts, mid_ts, k)
    out["z2_l2_strict"] = z2_strict
    out["zY_strict"] = z2_strict - p_ts
    out["z4_l2_strict"] = out["l2_strict"] - out["tpowers_strict"]
    out["l_d0"] = slot.cyc_min_count
    out["l_dk"] = slot.cyc_min_count + l1 + out["l2_strict"]
    return out


def iter_strict_composed(n, d, k, limit=200_000):
    """Materialise the strict composed set as letter tuples over the
    chorded-cycle graph (vertex 1 is t; a_i maps to index i+1), with the
    stratum label."""
    hd = _hdata(n, max(d, 1))
    slot = hd.slot(d)
    count = 0

    def lift(w):
        return tuple((abs(x) + 1) * (1 if x > 0 else -1) for x in w)

    for w in slot.first_list:
        if is_cyclically_minimal_letters(hd.adj, w):
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
            for alpha in _alpha_vectors(l, r):
                for combo in product(firsts, *([mids] * (r - 1))):
                    letters = []
                    for chunk, e in zip(combo, alpha):
                        letters.extend(lift(chunk))
                        letters.extend((1 if e > 0 else -1,) * abs(e))
                    count += 1
                    if count > limit:
                        raise BudgetExceeded(f"materialisation over {limit}")
                    yield ("L2", tuple(letters))


def classify_Z(n, w):
    """Hypothesis flags of one word over the chorded-cycle graph.

    z1: positive t-length; z2: t-thick; z3: outside the star parabolic
    of t; z4: t-root.  Works on genuine words (the honest strict set);
    the census tallies use the factorised engine instead.
    """
    from . import hnn as _hnn
    from .graphs import star as _star
    from .words import support as _support

    g = _chord_graph(n)
    word = w if isinstance(w, Word) else Word(g, tuple(w))
    h = _hnn.hnn_factorize(g, "t", word)
    z1 = _hnn.t_length(h) >= 1
    z2 = _hnn.is_t_thick(g, "t", h)
    z3 = not (_support(g, word) <= _star(g, "t"))
    z4 = _hnn.is_t_root(g, "t", h)
    return {"z1": z1, "z2": z2, "z3": z3, "z4": z4,
            "zY": z1 and z2 and z3 and z4}


# ---------------------------------------------------------------------------
# census rows, density, output formats


@dataclass
class CensusRow:
    n: int
    d: int
    k: int
    enumerated: dict
    formula: dict
    mode: str = "exhaustive"
    seed: object = ""
    samples: int = 0
    rho_se: float = 0.0

    COLUMNS = ["n", "d", "k", "l_H", "l_U", "l_HU", "e", "e_prime",
               "l1", "l2", "l_dk", "z1", "z2", "z3", "z4", "zY",
               "rho_hat", "mode", "seed"]

    def csv_record(self):
        e = self.enumerated
        rho = e["rho_sample"] if self.mode == "sample" else e["rho_hat"]
        return [self.n, self.d, self.k, e["l_H"], e["l_U"], e["l_HU"],
                e["e"], e["e_prime"], e["l1"], e["l2"], e["l_dk"],
                e["z1"], e["z2"], e["z3"], e["z4"], e["zY"],
                f"{rho:.6f}", self.mode, self.seed]

    def to_json_dict(self):
        return {
            "n": self.n, "d": self.d, "k": self.k,
            "enumerated": self.enumerated,
            "formula": self.formula,
            "mode": self.mode,
            "seed": self.seed,
            "samples": self.samples,
            "rho_se": self.rho_se,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent)


def _formula_dict(n, d, k, enums):
    """FORMULA-tagged values; for n >= 6 the exact slot counts feed the
    composed-word formulas."""
    if n == 5:
        lH, lHU = formula_lH_5(d), formula_lHU_5(d)
        e_val, ep = formula_e(d), formula_e_prime(d)
    else:
        lH, lHU = enums["l_H"], enums["l_HU"]
        e_val, ep = enums["e"], enums["e_prime"]
    tH, tHU = lH - ep, lHU - e_val
    out = {
        "source": FORMULA,
        "l_U": formula_lU(d),
        "l1": formula_l1(d, k),
        "l2": formula_l2(lH, lHU, k),
        "z2": formula_l1(d, k) + formula_z2ii(tH, tHU, k),
        "t_H": tH,
        "t_HU": tHU,
    }
    if n == 5:
        out.update({"l_H": lH, "l_HU": lHU, "e": e_val, "e_prime": ep,
                    "l_HS": [formula_lHS_5(m) for m in range(d + 1)]})
    if d >= 1:
        out["tpower_bound"] = tpower_bound(lHU, lH, 2 * d, k)
    else:
        out["tpower_bound"] = 0.0
    return out


def census_row(n, d, k, mode="exhaustive", samples=None, seed=None) -> CensusRow:
    """One census row.  Exhaustive mode classifies by the exact factorised
    tallies; sample mode estimates the density by stratified uniform
    sampling driven by the exact stratum sizes."""
    _check_n(n)
    if d < 0 or k < 0:
        raise BadParameter("d and k must be nonnegative")
    l_hs = [len(lev) for lev in _hdata(n, d).forms_by_len]
    lhu = enumerate_LHU(n, d)
    comp = enumerate_composed(n, d, k)
    enums = {
        "source": ENUMERATED,
        "l_H": sum(l_hs),
        "l_HS": l_hs,
        "l_U": enumerate_LU(d),
        "l_HU": lhu["l_HU"],
        "a": lhu["a"], "b": lhu["b"], "c": lhu["c"],
        "e": lhu["e"],
        "e_prime": enumerate_e_prime(n, d),
        "l_d0": comp["l_d0"],
        "l1": comp["l1"],
        "l2": comp["l2"],
        "l2_strict": comp["l2_strict"],
        "l2_residual": comp["l2"] - comp["l2_strict"],
        "l_dk": comp["l_dk"],
        "tpowers_strict": comp["tpowers_strict"],
    }
    enums["t_H"] = enums["l_H"] - enums["e_prime"]
    enums["t_HU"] = enums["l_HU"] - enums["e"]
    # z tallies: z2 on the indexed convention (matches its formula),
    # the rest over the honest strict set
    enums["z1"] = enums["l_dk"] - enums["l_d0"]
    enums["z2"] = comp["l1"] + comp["z2_l2"]
    enums["z2_strict"] = comp["l1"] + comp["z2_l2_strict"]
    enums["z3"] = enums["l_dk"] - enums["l_U"] - enums["l1"]
    enums["z4"] = (enums["l_d0"] + (2 * enums["l_U"] if k >= 1 else 0)
                   + comp["z4_l2_strict"])
    enums["zY"] = comp["zY_strict"]
    enums["rho_hat"] = (enums["zY"] / enums["l_dk"]) if enums["l_dk"] else 0.0

    row = CensusRow(n=n, d=d, k=k, enumerated=enums,
                    formula=_formula_dict(n, d, k, enums))
    if mode == "sample":
        if seed is None:
            raise BadSeed("sample mode requires a seed")
        if not samples or samples <= 0:
            raise BadParameter("sample mode requires a positive --samples")
        row.mode = "sample"
        row.seed = seed
        row.samples = samples
        hits = _sample_zy(n, d, k, samples, seed)
        p = hits / samples
        row.enumerated["rho_sample"] = p
        row.rho_se = math.sqrt(p * (1 - p) / samples)
    elif mode != "exhaustive":
        raise BadParameter(f"unknown mode {mode!r}")
    return row


def _sample_zy(n, d, k, samples, seed):
    """Uniform sampling over the strict set via exact stratum sizes."""
    hd = _hdata(n, max(d, 1))
    slot = hd.slot(d)
    rng = random.Random(seed)
    l_u = enumerate_LU(d)
    firsts = [(s, th) for s, th in zip(slot.first_sym, slot.first_thick)
              if s != SYM_ID]
    mids = [(s, th) for s, th in zip(slot.mid_sym, slot.mid_thick)
            if s != SYM_ID]
    off_l2 = slot.cyc_min_count + 2 * k * l_u
    # the type (ii) stratum in (l, r) blocks, each of _vector_count(l, r)
    # exponent vectors that carry `per_vector` slot tuples apiece
    blocks = []
    for l in range(1, k + 1):
        for r in range(1, l + 1):
            per_vector = len(firsts) * len(mids) ** (r - 1)
            blocks.append((l, r, per_vector, _vector_count(l, r) * per_vector))
    total = off_l2 + sum(size for (*_, size) in blocks)
    if total == 0:
        raise BadParameter("empty census universe")
    hits = 0
    for _ in range(samples):
        x = rng.randrange(total) - off_l2
        if x < 0:
            continue  # zY is false off the type (ii) stratum
        for (l, r, per_vector, size) in blocks:
            if x < size:
                break
            x -= size
        alpha = _unrank_alpha(l, r, x // per_vector)
        syms = [rng.choice(firsts)]
        syms += [rng.choice(mids) for _ in range(r - 1)]
        if not all(th for (_, th) in syms):
            continue
        pairs = tuple((s, a) for (s, _), a in zip(syms, alpha))
        power = any(r % p == 0 and all(pairs[i] == pairs[i % p] for i in range(r))
                    for p in range(1, r))
        if not power:
            hits += 1
    return hits


def density(n, d, k, mode="exhaustive", samples=None, seed=None):
    """Density summary: exact or sampled fraction of words satisfying all
    four hypotheses, with the per-condition tallies."""
    row = census_row(n, d, k, mode=mode, samples=samples, seed=seed)
    e = row.enumerated
    out = {
        "n": n, "d": d, "k": k,
        "l_dk": e["l_dk"],
        "z1": e["z1"], "z2_strict": e["z2_strict"], "z3": e["z3"],
        "z4": e["z4"], "zY": e["zY"],
        "rho_hat": e["rho_hat"],
        "mode": row.mode,
    }
    if row.mode == "sample":
        out["rho_sample"] = e["rho_sample"]
        out["rho_se"] = row.rho_se
        out["samples"] = row.samples
        out["seed"] = row.seed
    return out


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CensusRow.COLUMNS)
    for row in rows:
        writer.writerow(row.csv_record())
    return buf.getvalue()
