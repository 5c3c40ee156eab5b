"""Census of normal forms over the chorded-cycle family of graphs.

For the n-cycle-with-chord graph the subgroup over A0 = {a1..a_{n-1}} is
the pc group of the (n-1)-cycle.  This module counts its normal forms
(two systems: the square system for n = 5, where the subgroup is a
product of two free groups, and the prohibited-subword system for all
n >= 5), the derived slot sets (no-left-divisor forms, the rank-two free
abelian parabolic over the chord ends, thickness, coset symbols), and
the composed words of bounded t-length built from them; it validates the
closed counting formulas and bounds against the counts and classifies
composed words by the four embedding-theorem hypotheses.

The normal forms are never built: census_slots counts them over their
automaton, level by level, by the few properties the census reads, so
the cost is linear in d.  The "ENUMERATED" values are these exact
counts; sample mode unranks the forms it draws from the same counts.

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
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import census_slots as slots
from .errors import (
    BadAlphabet,
    BadParameter,
    BadSeed,
    BudgetExceeded,
    NonIntegralFormula,
    WordSyntaxError,
    ZeroExponent,
)
from .graphs import star
from .hnn import hnn_factorize, is_t_root, is_t_thick, smallest_period, t_length
from .words import MAX_WORD_LETTERS, Word, _Frozen, bounded_int, support

ENUMERATED = "ENUMERATED"
FORMULA = "FORMULA"

# work of one row's k side, in units of about 10 ns: with b the bit length
# of 2 l_HU + 1, the engine sums k powers of up to k b bits (k^2 b), and
# printing them in decimal is quadratic in their length ((k b)^2 / 320)
K_BUDGET = 150_000_000

# work of sample mode: each sample draws up to k slots plus its t-length
# and block count, and unranking one slot walks the automaton's d + 1
# levels over about n letters each.  A unit takes at most about 0.23 us
# at n = 5 up to d = 1500, and 0.37 us at n = 6 or 7 up to d = 128, but
# up to about 1 us at n >= 6 and d = 512, where the unranking's path
# tables grow faster than d (Python 3.11, 2 shared CPUs; see README)
SAMPLE_BUDGET = 4_500_000


# ---------------------------------------------------------------------------
# the cycle subgroup: words and normal forms


_H_TOKEN_RE = re.compile(r"a([0-9]+)(?:\^([+-]?[0-9]+))?\Z")


def parse_h_word(n, text):
    """Parse `a2 a1^-3 ...` over the cycle generators into signed ints.

    Same letter budget and ZeroExponent as words.parse_word: a word of
    more than MAX_WORD_LETTERS letters after expansion raises
    BudgetExceeded before the token that crosses it is expanded.
    """
    slots.check_n(n)
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
    slots.check_n(n)
    w = tuple(w)
    _check_alphabet(n, w)
    if square and n != 5:
        raise BadParameter("square normal forms exist only for n = 5")
    state = slots.START
    for y in w:
        state = slots.step(square, state, slots.letter_facts(n, y))
        if state is None:
            return False
    return True


# ---------------------------------------------------------------------------
# basic enumerated counts


def enumerate_LH(n, d):
    """Normal-form counts, totals and by exact length, counted over the
    normal-form automaton.

    For n = 5 the general system is counted too; its per-length counts
    must agree with the square system's (each is in bijection with the
    subgroup elements).
    """
    by_len = list(slots.counts(n, d).l_hs)
    out = {
        "n": n, "d": d,
        "l_H": sum(by_len),
        "l_HS": by_len,
        "source": ENUMERATED,
    }
    if n == 5:
        general = [sum(t.values())
                   for t in slots.automaton(5, False).upto(d)[:d + 1]]
        out["l_HS_general"] = general
        out["l_H_general"] = sum(general)
    return out


def enumerate_LHU(n, d):
    """Counts over the no-left-divisor forms: total, first-letter split
    (interior letters / a2 / a_{n-2}) and the non-thick count e(d)."""
    counts = slots.counts(n, d)
    a, b, c = counts.abc
    return {
        "n": n, "d": d,
        "l_HU": sum(counts.l_hu_s),
        "l_HU_S": list(counts.l_hu_s),
        "a": a, "b": b, "c": c,
        "e": counts.e,
        "source": ENUMERATED,
    }


def enumerate_LU(d):
    """|{a_{n-1}^x a1^y : |x| + |y| <= d}|, independent of n >= 5."""
    return sum(2 * (d - abs(x)) + 1 for x in range(-d, d + 1))


def enumerate_e_prime(n, d):
    """Elements of L_H(d) outside U union Maln(U)."""
    return slots.counts(n, d).e_prime


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


# The type (ii) part of z2 is l2 over the thick counts t_H, t_HU; its
# divisor 2 t_HU is never 0, since the identity is a thick form with no
# left divisor in U.
formula_z2ii = formula_l2


def tpower_bound(a, b, c, k):
    """Upper bound for the t-power count in the strict type (ii) set,
    summed over t-length l = 1..k with parameters a, b, c."""
    if a <= c:
        raise BadParameter("bound needs a > c")
    try:
        sa, sc = math.sqrt(a), math.sqrt(c)
        total = 0.0
        for l in range(1, k + 1):
            total += (2 ** l * sa * b * c ** ((l + 1) / 2) / (a - c)) * (sa + sc) ** (l - 1)
    except OverflowError:  # as when a product of finite terms overflows
        return math.inf
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


@lru_cache(maxsize=4096)
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


def _vector_sum(x, k):
    """Sum over r of 2^r C(k, r) x^(r-1), where 2^r C(k, r) counts the
    signed exponent vectors of r blocks and t-length <= k (by the hockey
    stick over their compositions): ((2x + 1)^k - 1) / x."""
    return ((2 * x + 1) ** k - 1) // x if x else 2 * k


def _composed_engine(groups, k):
    """Total and proper-power tallies over all type (ii) tuples with the
    slot groups of census_slots.tally, t-length budget k.

    A tuple is a (symbol, exponent) pattern of r blocks, a proper power iff
    it is an m-th power for some m >= 2.  The m-th powers are counted by
    their roots: patterns of t-length <= k // m with sum N first mid^(m-1)
    slot choices for the first symbol (it and its m - 1 repeats share one)
    and sum N mid^m for each later one, over every block count by
    _vector_sum.  m = 1 gives the total, and Mobius inversion over m the
    primitive tuples.  Pure t-powers of the identity symbol alone are not
    singled out, so the power tally holds for strict groups only.
    """
    firsts = [count * f for count, f, _ in groups]  # times mid^(m-1)
    laters = [count * mid for count, _, mid in groups]  # times mid^m
    total, powers = sum(firsts) * _vector_sum(sum(laters), k), 0
    for m in range(2, k + 1):
        firsts = [x * mid for x, (_, _, mid) in zip(firsts, groups)]
        laters = [x * mid for x, (_, _, mid) in zip(laters, groups)]
        if mu := _mobius(m):
            powers -= mu * sum(firsts) * _vector_sum(sum(laters), k // m)
    return total, powers


def enumerate_composed(n, d, k):
    """Composed-word tallies under both slot conventions.

    Indexed: first slot over all of L_H(d) and later slots over all of
    L_H^U(d) -- reproduces the closed product formulas.  Strict: every
    slot nontrivial -- the honest disjoint word set.
    """
    counts = slots.counts(n, d)
    bits = k * (2 * sum(counts.l_hu_s) + 1).bit_length()
    work = k * bits + bits * bits // 320
    if work > K_BUDGET:
        raise BudgetExceeded(
            f"census k side needs {work} work units, over {K_BUDGET}")
    l1 = 2 * k * enumerate_LU(d)
    out = {"n": n, "d": d, "k": k, "l1": l1, "source": ENUMERATED}

    def engine(thick_only, strict):
        return _composed_engine(
            slots.tally(n, d, thick_only=thick_only, strict=strict), k)

    out["l2"], _ = engine(False, False)
    out["z2_l2"], _ = engine(True, False)
    out["l2_strict"], out["tpowers_strict"] = engine(False, True)
    z2_strict, p_ts = engine(True, True)
    out["z2_l2_strict"] = z2_strict
    out["zY_strict"] = z2_strict - p_ts
    out["z4_l2_strict"] = out["l2_strict"] - out["tpowers_strict"]
    out["l_d0"] = counts.cyc_min
    out["l_dk"] = counts.cyc_min + l1 + out["l2_strict"]
    return out


def classify_Z(n, w):
    """Hypothesis flags of one word over the chorded-cycle graph.

    z1: positive t-length; z2: t-thick; z3: outside the star parabolic
    of t; z4: t-root.  Works on genuine words (the honest strict set);
    the census tallies use the factorised engine instead.
    """
    g = slots.chord_graph(n)
    word = w if isinstance(w, Word) else Word(g, tuple(w))
    h = hnn_factorize(g, "t", word)
    z1 = t_length(h) >= 1
    z2 = is_t_thick(g, "t", h)
    z3 = not (support(g, word) <= star(g, "t"))
    z4 = is_t_root(g, "t", h)
    return {"z1": z1, "z2": z2, "z3": z3, "z4": z4,
            "zY": z1 and z2 and z3 and z4}


# ---------------------------------------------------------------------------
# census rows, density, output formats


class _AllDigits:
    """A with block in which Python (3.11 on) converts an int of any
    length to a string: the census writers print counts past its default
    limit of 4300 digits, which K_BUDGET bounds and prices.  The limit is
    interpreter-wide: it is lifted on entry and put back on exit."""

    def __enter__(self):
        get = getattr(sys, "get_int_max_str_digits", None)
        self.limit = get() if get else 0
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


class CensusRow(_Frozen, frozen=False):
    __slots__ = ("n", "d", "k", "enumerated", "formula", "mode", "seed",
                 "samples", "rho_se")

    def __init__(self, n: int, d: int, k: int, enumerated: dict,
                 formula: dict, mode: str = "exhaustive", seed: object = "",
                 samples: int = 0, rho_se: float = 0.0):
        self.n = n
        self.d = d
        self.k = k
        self.enumerated = enumerated
        self.formula = formula
        self.mode = mode
        self.seed = seed
        self.samples = samples
        self.rho_se = rho_se

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
        return {f: getattr(self, f) for f in self.__slots__}

    def to_json(self, indent=2):
        with _AllDigits():
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
    sampling driven by the exact stratum sizes.  Its work is estimated
    from samples, k, d and n against SAMPLE_BUDGET before any counting."""
    slots.check_n(n)
    if d < 0 or k < 0:
        raise BadParameter("d and k must be nonnegative")
    if mode == "sample":
        if seed is None:
            raise BadSeed("sample mode requires a seed")
        if not samples or samples <= 0:
            raise BadParameter("sample mode requires a positive --samples")
        work = samples * (k + 1) * (d + 1) * n
        if work > SAMPLE_BUDGET:
            raise BudgetExceeded(
                f"census sample needs {work} work units, over {SAMPLE_BUDGET}")
    elif mode != "exhaustive":
        raise BadParameter(f"unknown mode {mode!r}")
    l_hs = list(slots.counts(n, d).l_hs)
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
        row.mode = "sample"
        row.seed = seed
        row.samples = samples
        hits = _sample_zy(n, d, k, samples, seed)
        p = hits / samples
        row.enumerated["rho_sample"] = p
        row.rho_se = math.sqrt(p * (1 - p) / samples)
    return row


def _randbelow(getrandbits, n):
    """The index random.Random.randrange(n) draws on CPython 3.10 to
    3.13: n.bit_length() random bits, drawn again while they reach n.
    _sample_zy makes this draw inline.  As in randrange, n <= 0 raises
    ValueError: getrandbits(0) is 0, so the loop would never end."""
    if n <= 0:
        raise ValueError(f"empty range for randrange({n})")
    bits = n.bit_length()
    x = getrandbits(bits)
    while x >= n:
        x = getrandbits(bits)
    return x


def _t_level(x, f, m):
    """(l, start) for the type (ii) tuple at index x: its t-length l, the
    least with f _vector_sum(m, l) > x, and the start f _vector_sum(m,
    l - 1) of that level.  That l is the least with (2m + 1)^l >
    m (x // f) + 1, or x // (2f) + 1 when m = 0; a float logarithm
    estimates it and exact powers correct the estimate."""
    if not m:
        l = x // (2 * f) + 1
        return l, 2 * f * (l - 1)
    base, top = 2 * m + 1, m * (x // f) + 1
    j = int(math.log(top, base))
    power = base ** j
    while power > top:
        power //= base
        j -= 1
    while power * base <= top:
        power *= base
        j += 1
    return j + 1, f * ((power - 1) // m)


def _sample_zy(n, d, k, samples, seed):
    """Uniform sampling over the strict set via exact stratum sizes.

    The type (ii) stratum is ordered by t-length l, block count r and
    exponent vector.  Level k, the last, holds about 2m/(2m + 1) of the
    stratum, so a draw at or past its start takes l = k from one
    comparison, and _t_level finds the others.  A slot is drawn as an
    index into the forms outside U (first slot) or the nontrivial ones
    without a left divisor in U (later slots), and census_slots.form
    unranks it.  Every index is the draw of _randbelow, made inline: it
    is randrange's, so the same as choice over the list of forms, and it
    takes counts past the C size limit that len() of a range has.  A
    draw is decided, a miss, at its first non-thick slot: its remaining
    slot indices are then drawn and dropped, so the random stream is the
    same, with no unranking.  The exponent vector is read only for
    all-thick tuples, and the symbols only when the vector repeats: a
    period of the (symbol, exponent) pairs is a period of the vector.
    """
    counts = slots.counts(n, d)
    getrandbits = random.Random(seed).getrandbits
    l_u = enumerate_LU(d)
    f = sum(counts.l_hs) - l_u
    m = sum(counts.l_hu_s) - 1
    off_l2 = counts.cyc_min + 2 * k * l_u
    total = off_l2 + f * _vector_sum(m, k)
    if total == 0:
        raise BadParameter("empty census universe")
    # the start of level k; with k = 0 there is no type (ii) stratum
    top = f * _vector_sum(m, k - 1) if k else 0
    # f and m are drawn below only once a draw lands in type (ii), where
    # both are positive (m is drawn below only when r > 1)
    total_bits, f_bits, m_bits = (x.bit_length() for x in (total, f, m))
    block_ends = {}  # t-length -> cumulative r-block sizes, on first use
    form, symbol = slots.form, slots.symbol
    hits = 0
    for _ in range(samples):
        x = getrandbits(total_bits)
        while x >= total:
            x = getrandbits(total_bits)
        x -= off_l2
        if x < 0:
            continue  # zY is false off the type (ii) stratum
        if x >= top:
            l, x = k, x - top
        else:
            l, start = _t_level(x, f, m)
            x -= start
        ends = block_ends.get(l)
        if ends is None:  # r-block: C(l-1, r-1) 2^r f m^(r-1)
            ends = block_ends[l] = [0]
            size = 2 * f
            for r in range(1, l + 1):
                ends.append(ends[-1] + size)
                size = size * 2 * m * (l - r) // r
        r = bisect_right(ends, x)
        x -= ends[r - 1]
        i = getrandbits(f_bits)
        while i >= f:
            i = getrandbits(f_bits)
        w, thick = form(n, 0, i)
        words, left = [w], r - 1
        while thick and left:
            i = getrandbits(m_bits)
            while i >= m:
                i = getrandbits(m_bits)
            w, thick = form(n, 1, i)
            words.append(w)
            left -= 1
        if not thick:  # decided: draw the rest of its slots and go on
            for _ in range(left):
                while getrandbits(m_bits) >= m:
                    pass
            continue
        alpha = _unrank_alpha(l, r, x // (f * m ** (r - 1)))
        if smallest_period(alpha) < r:
            syms = [symbol(n, w) for w in words]
            if smallest_period(tuple(zip(syms, alpha))) < r:
                continue
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
    with _AllDigits():
        for row in rows:
            writer.writerow(row.csv_record())
    return buf.getvalue()
