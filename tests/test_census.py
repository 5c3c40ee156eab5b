import json
import math
import random
import sys
import time
from itertools import product

import pytest

from pcgroups import census as C
from pcgroups import census_slots as S
from pcgroups.cosets import maln_support
from pcgroups.errors import (
    BadAlphabet,
    BadParameter,
    BadSeed,
    BudgetExceeded,
    NonIntegralFormula,
    WordSyntaxError,
    ZeroExponent,
)
from pcgroups.words import MAX_WORD_LETTERS, canon_letters

from oracles import (
    SYM_ID,
    alpha_walk_engine,
    bisect_t_level,
    block_engine,
    block_sample_zy,
    hdata,
    iter_general_forms,
    iter_square_forms,
    iter_strict_composed,
    lexmin_reference,
    linear_unrank,
    randbelow,
    randrange_sample_zy,
    reference_census_row,
    reference_e_prime,
    reference_LH,
    reference_LHU,
    ReferenceAutomaton,
    split_reference,
    square_unrank_reference,
    vector_count,
)


def test_parse_h_word():
    assert C.parse_h_word(5, "a2 a1^-3") == (2, -1, -1, -1)
    with pytest.raises(BadAlphabet):
        C.parse_h_word(5, "a9")


def test_parse_h_word_syntax_and_budget():
    for bad in ("ax", "a1^x", "a1^", "a1^2^3"):
        with pytest.raises(WordSyntaxError):
            C.parse_h_word(5, bad)
    with pytest.raises(BadAlphabet):
        C.parse_h_word(5, "a" + "1" * 5000)
    for zero in ("a1^0", "a2 a1^-0"):
        with pytest.raises(ZeroExponent):
            C.parse_h_word(5, zero)
    assert len(C.parse_h_word(5, f"a1^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
    half = MAX_WORD_LETTERS // 2 + 1
    for text in (f"a1^{MAX_WORD_LETTERS + 1}", f"a1^{half} a2^-{half}",
                 "a1^" + "1" * 5000, "a1^-" + "1" * 5000):
        with pytest.raises(BudgetExceeded):
            C.parse_h_word(5, text)
    # leading zeros are not significant digits
    assert C.parse_h_word(5, "a0002^" + "0" * 5000 + "3") == (2, 2, 2)


def test_is_normal_form_general():
    # i = 2 pattern: a3 then a1-run then a2
    assert not C.is_normal_form(6, C.parse_h_word(6, "a3 a1 a2"))
    # beta = 0 instance of the i = 1 pattern: a2 directly before a1
    assert not C.is_normal_form(6, C.parse_h_word(6, "a2 a1 a3"))
    assert C.is_normal_form(6, C.parse_h_word(6, "a1 a2 a3"))
    assert C.is_normal_form(6, C.parse_h_word(6, "a2 a5 a3"))
    assert not C.is_normal_form(6, C.parse_h_word(6, "a3 a3^-1"))
    # wrapped pattern: a1 before a_{n-1}
    assert not C.is_normal_form(6, C.parse_h_word(6, "a1 a5"))
    assert C.is_normal_form(6, C.parse_h_word(6, "a5 a1"))


def test_is_normal_form_square():
    assert C.is_normal_form(5, C.parse_h_word(5, "a2 a4 a1"), square=True)
    assert not C.is_normal_form(5, C.parse_h_word(5, "a1 a2"), square=True)
    assert not C.is_normal_form(5, C.parse_h_word(5, "a2 a2^-1"), square=True)
    with pytest.raises(BadParameter):
        C.is_normal_form(6, (2,), square=True)


def test_every_generated_form_passes_the_membership_test():
    for lev in iter_general_forms(6, 3):
        for w in lev:
            assert C.is_normal_form(6, w)
    for lev in iter_square_forms(3):
        for w in lev:
            assert C.is_normal_form(5, w, square=True)


def test_normal_form_uniqueness_small():
    # bucket freely reduced words by canonical element: exactly one
    # normal form of each system per bucket
    for n, square, max_len in ((5, True, 4), (6, False, 4)):
        m = n - 1
        adj = S.h_adj(n)
        letters = [s * i for i in range(1, m + 1) for s in (1, -1)]
        buckets = {}
        frontier = [()]
        seen_words = [()]
        for _ in range(max_len):
            frontier = [w + (y,) for w in frontier for y in letters
                        if not w or w[-1] != -y]
            seen_words.extend(frontier)
        for w in seen_words:
            key = canon_letters(adj, w)
            entry = buckets.setdefault(key, [0, 0])
            if C.is_normal_form(n, w):
                entry[0] += 1
            if square and C.is_normal_form(n, w, square=True):
                entry[1] += 1
        for key, (general_count, square_count) in buckets.items():
            assert general_count == 1, key
            if square:
                assert square_count == 1, key


def test_formulas_small_grid():
    for d in range(0, 4):
        assert C.enumerate_LH(5, d)["l_H"] == C.formula_lH_5(d)
        lhu = C.enumerate_LHU(5, d)
        assert lhu["l_HU"] == C.formula_lHU_5(d)
        assert lhu["e"] == C.formula_e(d)
        assert lhu["a"] == 0  # no interior letters exist at n = 5
        assert C.enumerate_LU(d) == C.formula_lU(d)
        assert C.enumerate_e_prime(5, d) == C.formula_e_prime(d)


def test_first_letter_split_consistency():
    for n, d in ((5, 3), (6, 3), (7, 2)):
        lhu = C.enumerate_LHU(n, d)
        # identity carries no first letter
        assert lhu["a"] + lhu["b"] + lhu["c"] == lhu["l_HU"] - 1


def test_bounds_n6_n7():
    for n in (6, 7):
        detail = C.bounds_hold(n, d_list=[1, 2, 3], m_list=[1, 2, 3])
        assert all(ok for (*_, ok) in detail)


def test_composed_formula_match_small():
    for d, k in product(range(0, 3), range(1, 3)):
        comp = C.enumerate_composed(5, d, k)
        lH, lHU = C.formula_lH_5(d), C.formula_lHU_5(d)
        assert comp["l1"] == C.formula_l1(d, k)
        assert comp["l2"] == C.formula_l2(lH, lHU, k)
        tH = lH - C.formula_e_prime(d)
        tHU = lHU - C.formula_e(d)
        assert comp["z2_l2"] == C.formula_z2ii(tH, tHU, k)


def test_thick_unit_count_is_positive():
    """t_HU >= 1: the identity lies in L_H^U, has no left divisor in U
    and is thick, so the type (ii) z2 term always divides by 2 t_HU > 0
    and has the form of formula_l2."""
    for n, d in product(range(5, 9), range(0, 7)):
        row = C.census_row(n, d, 1)
        assert row.enumerated["t_HU"] >= 1, (n, d)
        assert row.formula["t_HU"] >= 1, (n, d)


def test_composed_spec_values():
    assert C.enumerate_composed(5, 0, 1)["l_dk"] == 3
    assert C.enumerate_composed(5, 1, 2)["l2"] == 216
    assert C.formula_l2_stratum(C.formula_lH_5(1), C.formula_lHU_5(1), 1) == 18
    assert C.formula_l2_stratum(C.formula_lH_5(1), C.formula_lHU_5(1), 2) == 180
    assert C.formula_l1(0, 1) == 2
    assert C.enumerate_LH(6, 0)["l_H"] == 1


def test_exact_division_guard():
    with pytest.raises(NonIntegralFormula):
        C._exact_div(7, 3)


def test_composition_counts():
    from math import comb
    for total in range(1, 7):
        for parts in range(1, total + 1):
            found = list(C.compositions(total, parts))
            assert len(found) == comb(total - 1, parts - 1)
            assert all(sum(p) == total and min(p) >= 1 for p in found)
            assert len(set(found)) == len(found)


def test_composed_engine_matches_alpha_walk():
    # all four slot conventions of the enumerated tallies, one group per
    # symbol, against the walk over every exponent vector: the totals, and
    # the proper powers where every slot is nontrivial (the engine does
    # not single out the identity's pure t-powers)
    for n, dmax, kmax in ((5, 3, 8), (6, 2, 6), (7, 2, 4)):
        for d in range(dmax + 1):
            slot = hdata(n, max(d, 1)).slot(d)
            for thick_only, strict in product((False, True), repeat=2):
                first, mid = slot.tallies(thick_only=thick_only, strict=strict)
                groups = [(1, c, mid.get(s, 0)) for s, c in first.items()]
                for k in range(kmax + 1):
                    got = C._composed_engine(groups, k)
                    want = alpha_walk_engine(first, mid, k)
                    assert got == want if strict else got[0] == want[0], \
                        (n, d, k, thick_only, strict)


def test_composed_engine_matches_block_engine():
    # the closed-form sums against the sum over every (l, r) block, on
    # the slot groups census_row counts with
    for n, d in product(range(5, 8), range(4)):
        for thick_only, strict in product((False, True), repeat=2):
            groups = S.tally(n, d, thick_only=thick_only, strict=strict)
            # the identity symbol is the last group of an indexed tally
            trivial = (0, 0) if strict else groups[-1][1:]
            for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 60):
                got = C._composed_engine(groups, k)
                want = block_engine(groups, trivial, k)
                assert got == want if strict else got[0] == want[0], \
                    (n, d, k, thick_only, strict)


DIFFERENTIAL_ND = ([(n, d) for n in range(5, 9) for d in range(5)]
                   + [(6, 5), (7, 4)])


def test_automaton_counts_match_the_enumerator():
    # every field the census reports, counted over the automaton, against
    # the same fields over every enumerated normal form
    for n, d in DIFFERENTIAL_ND:
        assert C.enumerate_LH(n, d) == reference_LH(n, d), (n, d)
        assert C.enumerate_LHU(n, d) == reference_LHU(n, d), (n, d)
        assert C.enumerate_e_prime(n, d) == reference_e_prime(n, d), (n, d)
        for k in range(4):
            got = json.dumps(C.census_row(n, d, k).to_json_dict())
            assert got == json.dumps(reference_census_row(n, d, k)), (n, d, k)


def test_slot_unranking_matches_the_enumeration_order():
    # the form at each index of the two slot lists, in enumeration order
    for n, d in ((5, 4), (6, 3), (7, 3), (8, 2)):
        slot = hdata(n, d).slot(d)
        C.enumerate_LH(n, d)  # count the levels the unranking reads
        firsts = [(w, th) for w, s, th in zip(slot.first_list, slot.first_sym,
                                              slot.first_thick) if s != SYM_ID]
        mids = [(w, th) for w, s, th in zip(slot.mid_list, slot.mid_sym,
                                            slot.mid_thick) if s != SYM_ID]
        for kind, forms in enumerate((firsts, mids)):
            assert [S.form(n, kind, i) for i in range(len(forms))] \
                == forms, (n, d, kind)


def test_slot_unranking_reuses_its_tables(monkeypatch):
    # once a length's path table and the level sizes are built, drawing
    # more forms reads neither the automaton's levels nor its tallies
    auto = S.automaton(6, False)
    by_len = S.counts(6, 5).l_hu_s
    size = by_len[5]
    start = sum(by_len[:5]) - 1  # the first later-slot form of length 5
    want = [S.form(6, 1, start + i) for i in range(0, size, 97)]
    S.form.cache_clear()

    def no_rescan(*args):
        raise AssertionError("levels read again")

    monkeypatch.setattr(auto, "level_states", None)
    monkeypatch.setattr(auto, "upto", no_rescan)
    assert [S.form(6, 1, start + i) for i in range(0, size, 97)] == want


def test_bisected_unrank_matches_the_linear_scan():
    # every form of lengths 1..5 in both slot lists, one bisection per
    # letter against the scan over each state's successors
    for n in (6, 7):
        auto = S.automaton(n, False)
        S.counts(n, 5)  # count the levels the unranking reads
        for kind, ell in product((0, 1), range(1, 6)):
            auto.unrank(kind, ell, 0)
            size = auto.paths[kind][0, ell]
            assert size > 0
            assert [auto.unrank(kind, ell, i) for i in range(size)] \
                == [linear_unrank(auto, kind, ell, i) for i in range(size)], \
                (n, kind, ell)


def _closed(n, square):
    """A fresh automaton with every reachable state expanded."""
    auto = S._Automaton(n, square)
    s = 0
    while s < len(auto.states):
        auto._successors(s)
        s += 1
    return auto


def test_reduced_states_match_the_reference_automaton():
    # the automaton's states forget what no signature reads; against the
    # reference that keeps every component: the tallies to level 14,
    # every form of both slot lists to length 4 with the signature of
    # its end state, seeded indices to length 8, and a closed state
    # count near the Moore minimum (at n = 5, where a2 and a4 commute
    # with a1 and a1 and a3 with a4, the minimum also merges by facts of
    # that one graph, which no merge uses: 1.29 and 1.31 times it there)
    rng = random.Random(22)
    for n, square in [(5, True), (5, False)] + [(n, False)
                                               for n in range(6, 10)]:
        ref, auto = ReferenceAutomaton(n, square), S._Automaton(n, square)
        assert auto.upto(14) == ref.tallies(14), (n, square)
        for kind, ell in product((0, 1), range(1, 9)):
            auto.unrank(kind, ell, 0)
            size = auto.paths[kind][0, ell]
            if ell <= 4:
                assert [(w, auto.sigs[s]) for w, s in (
                    auto.unrank(kind, ell, i) for i in range(size))] \
                    == ref.slot_forms(kind, ell), (n, square, kind, ell)
                continue
            for i in [0, size - 1] + [rng.randrange(size) for _ in range(20)]:
                w, s = auto.unrank(kind, ell, i)
                assert (w, auto.sigs[s]) == ref.unrank(kind, ell, i), \
                    (n, square, kind, ell, i)
        ratio = len(_closed(n, square).states) / ref.moore_minimum()
        assert ratio <= (1.35 if n == 5 else 1.1), (n, square, ratio)


def test_square_unrank_matches_the_walk_over_every_part_length():
    # n = 5: every index of both slot lists up to length 6, and 300
    # random indices at lengths 20, 57 and 200 with the ends of each list
    auto = S.automaton(5, True)
    rng = random.Random(50)
    for ell in (*range(7), 20, 57, 200):
        level = auto.upto(ell)[ell]
        sizes = (sum(level.values()) - (4 * ell if ell else 1),
                 sum(c for sig, c in level.items() if sig[0]) if ell else 0)
        for kind, size in enumerate(sizes):
            if ell < 7:
                picks = range(size)
            else:
                picks = [0, size - 1] + [rng.randrange(size)
                                         for _ in range(300)]
            for i in picks:
                assert S._square_unrank(kind, ell, i) \
                    == square_unrank_reference(kind, ell, i), (kind, ell, i)


def test_thickness_from_the_final_state_matches_maln_support():
    # at n >= 6 form reads thickness off the state its walk ends in, and
    # at n = 5 off the letters a2 and a3: the support test they replaced,
    # on 2000 random forms per (n, slot kind)
    rng = random.Random(49)
    for n, kind in product((5, 6, 7, 8), (0, 1)):
        adj, u = S.h_adj(n), frozenset((1, n - 1))
        lengths, seen = set(), set()
        for _ in range(2000):
            w, thick = S.form(n, kind, rng.randrange(10 ** 6))
            assert thick == maln_support(adj, {abs(x) for x in w}, u), (n, w)
            lengths.add(len(w))
            seen.add(thick)
        assert len(lengths) >= 2 and seen == {True, False}


def test_symbol_matches_two_peels_and_the_reference_linearising():
    # the U-core of a drawn form split from its canonical form, against
    # two reference peels of the form as drawn and the heap walk that
    # never cancels, on 2250 random forms per n from both slot kinds
    rng = random.Random(1904)
    for n in (5, 6, 7, 8):
        adj, u = S.h_adj(n), frozenset((1, n - 1))
        cores = set()
        for _ in range(2250):
            w, _ = S.form(n, rng.randrange(2), rng.randrange(10 ** 6))
            want = lexmin_reference(adj, split_reference(adj, w, u)[1])
            assert S.symbol(n, w) == want, (n, w)
            cores.add(len(want))
        assert len(cores) >= 3


def test_square_canonical_form_is_the_merge_of_its_parts():
    # n = 5: canon_letters of a square form, against the merge of its
    # {a2, a4} and {a1, a3} parts, on every form up to length 6 and on
    # 200 seeded forms whose parts have up to 800 letters each
    adj = S.h_adj(5)
    rng = random.Random(22)

    def reduced(gens, length):
        out = []
        while len(out) < length:
            x = rng.choice(gens) * rng.choice((1, -1))
            if not out or out[-1] != -x:
                out.append(x)
        return out

    forms = [w for level in iter_square_forms(6) for w in level]
    forms += [tuple(reduced((2, 4), rng.randrange(801))
                    + reduced((1, 3), rng.randrange(801)))
              for _ in range(200)]
    for w in forms:
        assert S._square_canon(w) == canon_letters(adj, w), w


def test_unrank_alpha_matches_vector_order():
    for l in range(1, 10):
        for r in range(1, l + 1):
            vectors = list(C._alpha_vectors(l, r))
            assert len(vectors) == vector_count(l, r)
            assert [C._unrank_alpha(l, r, i)
                    for i in range(len(vectors))] == vectors


def test_sample_matches_alpha_walk_sampler():
    # whole seeded rows against the walk over the enumerated slot lists
    for n, d, k in ((5, 3, 7), (5, 2, 5), (6, 2, 3), (7, 2, 3), (7, 2, 2)):
        for seed in range(1, 6):
            got = C.census_row(n, d, k, mode="sample", samples=300, seed=seed)
            want = reference_census_row(n, d, k, mode="sample", samples=300,
                                        seed=seed)
            assert json.dumps(got.to_json_dict()) == json.dumps(want), \
                (n, d, k, seed)


def test_sample_matches_block_sampler():
    # seeded rows at larger k against the sampler over a flat table of
    # every (l, r) block
    for n, d, k in product((5, 6), (2, 3), (20, 40)):
        for seed in (1, 2):
            row = C.census_row(n, d, k, mode="sample", samples=200, seed=seed)
            hits = block_sample_zy(n, d, k, 200, seed)
            assert row.enumerated["rho_sample"] == hits / 200, (n, d, k, seed)


def test_sample_matches_randrange_sampler(monkeypatch):
    # the inline bit draws, the closed-form t-length and the symbols read
    # only for repeating vectors give the hits of a randrange call per
    # draw, a bisected t-length and every symbol read; d = 64 makes slot
    # lists past len() of a range.  The last rows, and the benchmark's
    # request (5, 3, 7) at 2000 samples, have draws mostly decided at an
    # early slot, whose later slot indices are drawn and dropped
    real_vector_sum = C._vector_sum

    def vector_sum(x, k):  # k = 0 has no level k - 1 to start from
        assert k >= 0, (x, k)
        return real_vector_sum(x, k)

    monkeypatch.setattr(C, "_vector_sum", vector_sum)
    grid = list(product((5, 6, 7), (0, 1, 3, 8), (0, 1, 4, 40))) + [(5, 64, 4)]
    grid += [(5, 3, 40), (6, 2, 12), (7, 1, 9)]
    for n, d, k in grid:
        for seed in (1, 2):
            assert C._sample_zy(n, d, k, 100, seed) \
                == randrange_sample_zy(n, d, k, 100, seed), (n, d, k, seed)
    assert C._sample_zy(5, 3, 7, 2000, 1) \
        == randrange_sample_zy(5, 3, 7, 2000, 1) == 3
    assert C._sample_zy(5, 3, 7, 2000, 2) \
        == randrange_sample_zy(5, 3, 7, 2000, 2)
    # a first draw planted on the first tuple of level k, which one
    # comparison places, and on the last of level k - 1
    planted = None

    class Planted(random.Random):
        def getrandbits(self, bits):
            nonlocal planted
            if planted is None:
                return super().getrandbits(bits)
            x, planted = planted, None
            return x

    monkeypatch.setattr(random, "Random", Planted)
    for n, d, k in ((5, 3, 7), (6, 2, 12), (7, 1, 1)):
        counts = S.counts(n, d)
        l_u = C.enumerate_LU(d)
        f = sum(counts.l_hs) - l_u
        m = sum(counts.l_hu_s) - 1
        start = counts.cyc_min + 2 * k * l_u + f * C._vector_sum(m, k - 1)
        for x, seed in product((start, start - 1), (1, 2)):
            planted = x
            ours = C._sample_zy(n, d, k, 50, seed)
            planted = x
            assert ours == randrange_sample_zy(n, d, k, 50, seed), \
                (n, d, k, x, seed)


def test_randbelow_matches_randrange():
    # the draw _sample_zy makes inline is randrange's, and leaves the
    # generator in the same state, for ranges of one word, of several and
    # past 2^64
    sizes = (1, 2, 3, 2 ** 31, 2 ** 64 + 1, 10 ** 40)
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            for n in sizes:
                assert randbelow(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()
    # an empty range raises, as randrange does, where a loop over
    # getrandbits(0) == 0 would never end (the stub stops such a loop)
    def zeros(bits):
        nonlocal calls
        calls += 1
        assert calls < 100, "the draw loops"
        return 0

    for n in (0, -1):
        calls = 0
        with pytest.raises(ValueError):
            randbelow(zeros, n)
        with pytest.raises(ValueError):
            random.Random(1).randrange(n)


def test_t_level_matches_bisection():
    # the closed-form t-length against bisection over the levels' sizes,
    # on random indices, on both sides of every level boundary and with
    # m = 0; the last cases reach powers far past the float range
    rng = random.Random(5)
    cases = [(192, 80, 7), (1, 1, 30), (3, 0, 50), (1, 0, 5), (7, 2, 200),
             (5, 10 ** 30, 60), (2, 3 ** 40, 300)]
    for n, d in ((5, 3), (6, 2), (7, 4)):
        counts = S.counts(n, d)
        cases.append((sum(counts.l_hs) - C.enumerate_LU(d),
                      sum(counts.l_hu_s) - 1, 40))
    for f, m, k in cases:
        size = [f * C._vector_sum(m, j) for j in range(k + 1)]
        xs = {rng.randrange(size[k]) for _ in range(200)}
        xs.update(x for j in range(1, k) for x in (size[j] - 1, size[j]))
        xs.update((0, size[k] - 1))
        for x in sorted(xs):
            l = bisect_t_level(x, f, m, k)
            assert C._t_level(x, f, m) == (l, size[l - 1]), (f, m, k, x)


def test_census_row_large_k_matches_formulas():
    row = C.census_row(5, 3, 30)
    assert row.enumerated["l2"] == row.formula["l2"]
    assert row.enumerated["z2"] == row.formula["z2"]


def test_census_row_skips_the_general_system_at_n5(monkeypatch):
    real = S.automaton

    def square_only(n, square):
        assert square or n != 5, "general system counted"
        return real(n, square)

    S.counts.cache_clear()
    monkeypatch.setattr(S, "automaton", square_only)
    try:
        assert C.census_row(5, 2, 2).enumerated["l_HS"] == [1, 8, 40]
    finally:
        S.counts.cache_clear()


def test_strict_tallies_match_per_word_classification():
    for d, k in ((1, 2), (2, 1), (2, 2)):
        comp = C.enumerate_composed(5, d, k)
        got = {"n": 0, "z1": 0, "z3": 0, "z4": 0, "tpow": 0, "z2ii": 0,
               "zY": 0}
        for stratum, letters in iter_strict_composed(5, d, k):
            f = C.classify_Z(5, letters)
            got["n"] += 1
            got["z1"] += f["z1"]
            got["z3"] += f["z3"]
            got["z4"] += f["z4"]
            if stratum == "L2":
                got["tpow"] += not f["z4"]
                got["z2ii"] += f["z2"]
                got["zY"] += f["zY"]
        l_u = C.enumerate_LU(d)
        assert got["n"] == comp["l_dk"]
        assert got["z1"] == comp["l_dk"] - comp["l_d0"]
        assert got["z3"] == comp["l_dk"] - l_u - comp["l1"]
        assert got["z4"] == (comp["l_d0"] + 2 * l_u
                             + comp["l2_strict"] - comp["tpowers_strict"])
        assert got["tpow"] == comp["tpowers_strict"]
        assert got["z2ii"] == comp["z2_l2_strict"]
        assert got["zY"] == comp["zY_strict"]


def test_classify_Z_examples():
    f = C.classify_Z(5, C.parse_h_word(5, "1") + (1, 1, 1))  # t^3
    assert f == {"z1": True, "z2": True, "z3": False, "z4": False,
                 "zY": False}
    f = C.classify_Z(5, (3, 1))  # a2 t
    assert f == {"z1": True, "z2": False, "z3": True, "z4": True,
                 "zY": False}
    f = C.classify_Z(5, (3, 4, 1))  # a2 a3 t
    assert all(f.values())
    f = C.classify_Z(5, (3,))  # a2: in H, and a2 alone is not maln
    assert f == {"z1": False, "z2": False, "z3": True, "z4": True,
                 "zY": False}


def test_tpower_bound_holds_small():
    for d in (1, 2, 3):
        for k in (1, 2, 3):
            comp = C.enumerate_composed(5, d, k)
            bound = C.tpower_bound(C.formula_lHU_5(d), C.formula_lH_5(d),
                                   2 * d, k)
            assert comp["tpowers_strict"] <= bound


def test_census_row_and_csv():
    row = C.census_row(5, 2, 2)
    e = row.enumerated
    assert e["l_H"] == 49 and e["l_HU"] == 21
    assert e["z2"] == row.formula["z2"]
    assert e["l2"] == row.formula["l2"]
    assert e["l_dk"] == e["l_d0"] + e["l1"] + e["l2_strict"]
    text = C.rows_to_csv([row])
    header, record = text.strip().split("\n")
    assert header == ",".join(C.CensusRow.COLUMNS)
    assert record.split(",")[:3] == ["5", "2", "2"]
    data = json.loads(row.to_json())
    assert data["enumerated"]["l_H"] == 49


def test_sample_mode_deterministic():
    r1 = C.census_row(5, 2, 2, mode="sample", samples=400, seed=11)
    r2 = C.census_row(5, 2, 2, mode="sample", samples=400, seed=11)
    assert r1.enumerated["rho_sample"] == r2.enumerated["rho_sample"]
    exact = r1.enumerated["rho_hat"]
    assert abs(r1.enumerated["rho_sample"] - exact) <= 5 * r1.rho_se + 1e-9


def test_sample_mode_needs_seed_and_samples():
    with pytest.raises(BadSeed):
        C.census_row(5, 1, 1, mode="sample", samples=10)
    with pytest.raises(BadParameter):
        C.census_row(5, 1, 1, mode="sample", seed=1)
    with pytest.raises(BadParameter):
        C.census_row(5, 1, 1, mode="nonsense")


def test_budget_guard():
    # the automaton work to reach d is checked before each level, so a
    # hopeless request raises before any level is counted; each of the
    # 2(n - 1) letters is priced at _LETTER_STEPS steps for its row of the
    # letter table and its state of level 1, and an alphabet whose level 1
    # is over the budget raises before it is built, even at d = 0 (without
    # that check, n = 10^9 would build a 2 * 10^9-letter tuple, and
    # n = 10^6 at d = 1 ran for 13.7 s through two million states)
    for n, d in ((1200, 2), (6, 10 ** 6), (100_000, 2), (1_500_002, 0),
                 (10 ** 9, 0), (10 ** 9, 1), (10 ** 6, 1), (10 ** 6, 0)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            C.census_row(n, d, 1)
        assert time.perf_counter() - start < 0.5, (n, d)
    # the largest n whose level 1 fits is fast, and one more is refused
    n = S.WORK_BUDGET // (2 * (S._LETTER_STEPS + 1)) + 1
    start = time.perf_counter()
    assert C.census_row(n, 1, 1).enumerated["l_HS"] == [1, 2 * (n - 1)]
    assert time.perf_counter() - start < 1, n
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        C.census_row(n + 1, 1, 1)
    assert time.perf_counter() - start < 0.1, n
    # within the budget, d reaches the tens
    row = C.census_row(6, 12, 2)
    assert row.enumerated["l2"] == row.formula["l2"]
    assert len(row.enumerated["l_HS"]) == 13
    # upto's estimate of the work ahead counts one state per letter and
    # level: every level past the first has a state for each last letter
    auto = S.automaton(6, False)
    for level in auto.level_states[1:]:
        assert {auto.states[s][0] for s in level} == set(auto.letters)
    # at the largest d the budget admits, a row is fast and one more
    # level is refused before any work
    for n in (6, 9):
        d = _largest_admitted_d(n)
        start = time.perf_counter()
        row = C.census_row(n, d, 2)
        assert time.perf_counter() - start < 1, (n, d)
        assert len(row.enumerated["l_HS"]) == d + 1
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            C.census_row(n, d + 1, 2)
        assert time.perf_counter() - start < 0.1, (n, d)


def _largest_admitted_d(n):
    """The largest d whose levels fit WORK_BUDGET, from the states each
    level reaches: the work starts at _LETTER_STEPS per letter, and level
    l + 1 costs (states at l) x (letters) steps."""
    auto = S._Automaton(n, False)
    width = len(auto.letters)
    frontier, work, d = {0}, S._LETTER_STEPS * width, 0
    while work + len(frontier) * width <= S.WORK_BUDGET:
        work += len(frontier) * width
        frontier = {t for s in frontier for _, t in auto._successors(s)}
        d += 1
    return d


def test_k_budget():
    # the k side's work is estimated from k and the slot counts, so an
    # over-budget row raises before the engine runs
    for n, d, k in ((5, 3, 10 ** 6), (5, 64, 2000), (6, 12, 3000)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            C.census_row(n, d, k)
        assert time.perf_counter() - start < 0.5, (n, d, k)
    # within the budget, k reaches the thousands
    row = C.census_row(5, 3, 1000)
    assert row.enumerated["l2"] == row.formula["l2"]
    assert row.enumerated["z2"] == row.formula["z2"]
    sampled = C.census_row(5, 3, 1000, mode="sample", samples=20, seed=1)
    assert 0 <= sampled.enumerated["rho_sample"] <= 1


def test_sample_budget():
    # samples x (k + 1) slot draws, each walking about (d + 1) n automaton
    # letters, are checked before any counting; the first request ran
    # for 7.7 s before the check
    for n, d, k, samples in ((5, 3, 4276, 1000), (5, 32, 50, 10 ** 4),
                             (6, 8, 40, 10 ** 9)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            C.density(n, d, k, mode="sample", samples=samples, seed=1)
        assert time.perf_counter() - start < 0.5, (n, d, k, samples)
    # sampled rows of the CLI checks and the benchmark stay within it
    row = C.census_row(5, 3, 1000, mode="sample", samples=100, seed=1)
    assert 0 <= row.enumerated["rho_sample"] <= 1
    assert C.density(5, 3, 7, mode="sample", samples=2000, seed=1)["samples"] == 2000


def test_sample_mode_past_the_size_limit_of_a_range():
    # at d = 64 the slot lists hold more forms than len() of a range can
    # count, so slots are drawn with randrange, which makes the same draw
    row = C.census_row(5, 64, 4, mode="sample", samples=20, seed=1)
    assert sum(S.counts(5, 64).l_hs) > sys.maxsize
    assert 0 <= row.enumerated["rho_sample"] <= 1


def test_tpower_bound_beyond_float_range():
    # a term past the float range reads inf, whether a product or a power
    # overflows, instead of an OverflowError traceback
    assert C.tpower_bound(81, 217, 6, 250) == math.inf
    assert C.tpower_bound(81, 217, 6, 300) == math.inf
    assert C.tpower_bound(10 ** 400, 10 ** 400, 4, 2) == math.inf
    row = C.census_row(5, 700, 1)
    assert row.formula["tpower_bound"] == math.inf
    assert row.enumerated["l2"] == row.formula["l2"]


def test_density_summary():
    out = C.density(5, 2, 2)
    assert out["zY"] == 72 and out["l_dk"] == 3125
    assert out["rho_hat"] == pytest.approx(72 / 3125)
