import copy
import itertools
import pickle
import random
import sys
import time
from dataclasses import (asdict, field, fields, is_dataclass, make_dataclass,
                         replace)

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcgroups.errors import (
    BudgetExceeded,
    NotCyclicallyMinimal,
    PcgError,
    UnknownGenerator,
    WordSyntaxError,
    ZeroExponent,
)
from pcgroups import census, words
from pcgroups.cosets import (DoubleCosetRep, ParabolicContext, in_maln,
                             parabolic, parabolic_member, strip_divisors)
from pcgroups.freiheitssatz import (AmalgamRecord, Conclusion, FreiReport,
                                    TheoremMainRecord, magnus_verdict)
from pcgroups.graphs import (_complement_components, build_graph,
                             cycle_with_chord, plain_cycle)
from pcgroups.hnn import (HnnWord, SigmaWord, UniquePositionSplit,
                          hnn_factorize, sigma, unique_position_factorization)
from pcgroups.words import (
    MAX_WORD_LETTERS,
    CyclicDecomposition,
    _cancel,
    _canon_heap,
    _cyclic_core,
    _insert,
    block_decomposition,
    canon_letters,
    canonical_split,
    conjugate_test,
    cyclic_core_letters,
    cyclic_reduce,
    equal,
    format_word,
    invert_letters,
    is_cyclically_minimal,
    length,
    minimal_form,
    parse_word,
    reduce_letters,
    support,
    NormalForm,
    Word,
    word_from_idx,
)

from oracles import (
    all_words,
    cancel_reference,
    canon_reference,
    catalog,
    closure_canonical,
    conjugacy_class_closure,
    conjugacy_partition,
    conjugate_test_reference,
    cyclic_core_reference,
    is_cyclically_minimal_reference,
    lexmin_reference,
    pair_rules_reference,
    parse_word_reference,
    peel_reference,
    random_graph,
    random_letters,
    reduce_reference,
    split_reference,
)

FREE2 = build_graph(["a", "b"], [])
AB = build_graph(["a", "b"], [("a", "b")])
C5P = cycle_with_chord(5)


def test_parse_word_expansion():
    w = parse_word("a b^-1 c^2", build_graph(["a", "b", "c"], []))
    assert w.letters == (("a", 1), ("b", -1), ("c", 1), ("c", 1))


def test_parse_identity():
    assert parse_word("1", FREE2).idx == ()


def test_parse_errors():
    with pytest.raises(ZeroExponent):
        parse_word("a^0", FREE2)
    with pytest.raises(UnknownGenerator):
        parse_word("zz", FREE2)
    with pytest.raises(WordSyntaxError):
        parse_word("a 1", FREE2)
    with pytest.raises(WordSyntaxError):
        parse_word("a^", FREE2)


def test_parse_word_letter_budget():
    # budget + 1 letters in one token, then two tokens that only
    # together pass the budget; a broken check builds about 10^6 letters
    with pytest.raises(BudgetExceeded):
        parse_word(f"a^{MAX_WORD_LETTERS + 1}", FREE2)
    half = MAX_WORD_LETTERS // 2 + 1
    with pytest.raises(BudgetExceeded):
        parse_word(f"a^{half} b^-{half}", FREE2)
    assert len(parse_word(f"a^{MAX_WORD_LETTERS}", FREE2)) == MAX_WORD_LETTERS
    # single-letter tokens, read from the letter table, meet the same budget
    with pytest.raises(BudgetExceeded):
        parse_word("a^-1 " * (MAX_WORD_LETTERS + 1), FREE2)
    assert len(parse_word("b " * MAX_WORD_LETTERS, FREE2)) == MAX_WORD_LETTERS


def test_parse_word_errors_among_valid_tokens():
    # one bad token among letter-table tokens, or a word over the budget,
    # gives the error class and message of the regex reference, and valid
    # words its letters
    g = build_graph(["a", "b", "c"], [])
    valid = "a b^-1 c a^-1 b"
    texts = [valid, "", "  \t", "1", f"{valid} 1", f"1 {valid}",
             "a b a^0 c", "a b zz c", "a b^ c", "a c^2 b^-2 a",
             f"a b a^{MAX_WORD_LETTERS} c", "b " * MAX_WORD_LETTERS,
             "a^-1 " * (MAX_WORD_LETTERS + 1), "c " * MAX_WORD_LETTERS + "zz"]
    for text in texts:
        got = _parse_outcome(lambda t, g: parse_word(t, g).idx, text, g)
        assert got == _parse_outcome(parse_word_reference, text, g), text[:40]
    assert parse_word(valid, g).idx == (1, -2, 3, -1, 2)
    for text, error in ((f"1 {valid}", WordSyntaxError),
                        ("a b a^0 c", ZeroExponent),
                        ("a b zz c", UnknownGenerator),
                        ("a^-1 " * (MAX_WORD_LETTERS + 1), BudgetExceeded)):
        with pytest.raises(error):
            parse_word(text, g)


def test_parse_word_huge_exponent():
    # past Python's 4300-digit integer-string limit: a budget error, and
    # leading zeros do not count as digits
    for exp in ("1" * 5000, "-" + "1" * 5000):
        with pytest.raises(BudgetExceeded):
            parse_word(f"a^{exp}", FREE2)
    assert len(parse_word("a^" + "0" * 5000 + "2", FREE2)) == 2


def test_format_groups_runs():
    g = build_graph(["a", "b"], [])
    w = parse_word("a a a b^-1 b^-1 a", g)
    assert format_word(w) == "a^3 b^-2 a"
    assert format_word(parse_word("1", g)) == "1"


def test_minimal_form_commute_then_cancel():
    assert str(minimal_form(AB, "a b a^-1")) == "b"


def test_minimal_form_free_reduction():
    assert str(minimal_form(FREE2, "a b b^-1")) == "a"


def test_minimal_form_canonical_reordering():
    # three pairwise relations among a4, a2, a1 on the chorded cycle:
    # a1 commutes with a2 and a4; geodesic length stays 3
    nf = minimal_form(C5P, "a4 a2 a1")
    assert len(nf) == 3
    oracle = closure_canonical(C5P._adj_idx, parse_word("a4 a2 a1", C5P).idx)
    assert nf.idx == oracle


def test_minimal_form_passes_a_normal_form_of_its_graph_through():
    nf = minimal_form(C5P, "a4 a2 a1 a3 a3^-1")
    assert minimal_form(C5P, nf) is nf
    # an equal copy of the graph is another graph object: canonicalised again
    copy = build_graph(C5P.vertices, [tuple(e) for e in C5P.edges])
    again = minimal_form(copy, nf)
    assert again is not nf and again.graph is copy and again.idx == nf.idx
    # the chord a1 -- a4 of the plain cycle makes a1 and a4 commute, so the
    # same letters have another canonical form over the chorded graph
    c5 = plain_cycle(5)
    nf = minimal_form(c5, "a4 a1")
    chorded = build_graph(c5.vertices, [tuple(e) for e in c5.edges] + [("a1", "a4")])
    assert str(nf) == "a4 a1"
    assert str(minimal_form(chorded, Word(chorded, nf.idx))) == "a1 a4"
    with pytest.raises(WordSyntaxError):
        minimal_form(chorded, nf)


def test_support_and_length_read_a_normal_form_of_its_graph(monkeypatch):
    text = "a4 a2 a1 a3 a3^-1 t^-1 a2"
    nf = minimal_form(C5P, text)
    ctx = parabolic(C5P, C5P.neighbours("t"))
    B = C5P.neighbours("t")  # lk(t) = {a1, a4}, a clique through the chord

    def results(w):
        rep = strip_divisors(ctx, w)
        return (support(C5P, w), length(C5P, w), parabolic_member(ctx, w),
                in_maln(C5P, B, w), (rep.left.idx, rep.core.idx, rep.right.idx))

    expected = results(text)
    assert expected == results(parse_word(text, C5P))

    def no_reduce(adj, w):
        raise AssertionError("reduce_letters called on a NormalForm")

    # every module's name for it, so no layer reduces behind its own import
    for name, mod in list(sys.modules.items()):
        if name == "pcgroups" or name.startswith("pcgroups."):
            if getattr(mod, "reduce_letters", None) is reduce_letters:
                monkeypatch.setattr(mod, "reduce_letters", no_reduce)
    assert results(nf) == expected


def _entry_results(g, w, ctx, t, B):
    """What each entry point that takes a text gives on w, as plain data;
    every result object must be built on g itself."""
    nf = minimal_form(g, w)
    dec = cyclic_reduce(g, w)
    rep = strip_divisors(ctx, w)
    h = hnn_factorize(g, t, w)
    built = (nf, dec.conjugator, dec.core, rep.left, rep.core, rep.right, h)
    assert all(x.graph is g for x in built)
    return (nf.idx, equal(g, w, nf), support(g, w), length(g, w),
            is_cyclically_minimal(g, w), dec.conjugator.idx, dec.core.idx,
            rep.left.idx, rep.core.idx, rep.right.idx, h.chunks, h.exps,
            sigma(g, t, h).units, parabolic_member(ctx, w), in_maln(g, B, w))


def _memo_case(rng, g):
    """A text over g, a parabolic, a generator t and a one-vertex clique."""
    text = format_word(Word(g, random_letters(rng, len(g), rng.randrange(0, 61))))
    ys = rng.sample(g.vertices, rng.randrange(0, len(g) + 1))
    return text, ys, rng.choice(g.vertices), {rng.choice(g.vertices)}


def test_text_memo_matches_words_and_normal_forms():
    # seeded random graphs on 2-12 vertices, texts of up to 60 letters: a
    # text, its parsed Word and its NormalForm give the same results, also
    # over an equal graph held in a second object and, for the same text,
    # over the complement graph on the same vertices
    rng = random.Random(1301)
    differ = 0
    for _ in range(150):
        g = random_graph(rng)
        copy = build_graph(g.vertices, [tuple(e) for e in g.edges])
        other = build_graph(g.vertices, [
            e for e in itertools.combinations(g.vertices, 2)
            if frozenset(e) not in g.edges])
        for _ in range(4):
            text, ys, t, B = _memo_case(rng, g)
            seen = []
            for h in (g, copy, other):
                args = (parabolic(h, ys), t, B)
                word = parse_word(text, h)
                nf = minimal_form(h, word)
                assert nf.idx == canon_letters(h._adj_idx, word.idx)
                ref = _entry_results(h, word, *args)
                assert _entry_results(h, text, *args) == ref
                assert _entry_results(h, text, *args) == ref  # from the memo
                assert _entry_results(h, nf, *args) == ref
                seen.append(ref)
            assert seen[0] == seen[1]
            differ += seen[0] != seen[2]
    assert differ >= 300


def test_text_memo_keeps_no_error():
    # a text that raises is parsed again, and raises again, on every call
    ctx = parabolic(FREE2, {"a"})
    calls = (
        lambda w: minimal_form(FREE2, w),
        lambda w: equal(FREE2, w, "a"),
        lambda w: support(FREE2, w),
        lambda w: length(FREE2, w),
        lambda w: cyclic_reduce(FREE2, w),
        lambda w: strip_divisors(ctx, w),
        lambda w: parabolic_member(ctx, w),
        lambda w: in_maln(FREE2, {"a"}, w),
        lambda w: hnn_factorize(FREE2, "a", w),
    )
    bad = [("a 1", WordSyntaxError), ("a^", WordSyntaxError),
           ("zz", UnknownGenerator), ("a^0", ZeroExponent),
           (f"a^{MAX_WORD_LETTERS + 1}", BudgetExceeded)]
    words._canon_text.cache_clear()
    for text, exc in bad:
        for call in calls:
            for _ in range(2):
                with pytest.raises(exc):
                    call(text)
    assert words._canon_text.cache_info().currsize == 0


def test_text_memo_stays_small():
    # the memo's size is fixed and small, and it never holds more texts
    size = words._canon_text.cache_info().maxsize
    assert size is not None and 1 <= size <= 8
    words._canon_text.cache_clear()
    for k in range(1, 3 * size):
        length(C5P, f"a1^{k} t")
        assert words._canon_text.cache_info().currsize == min(k, size)


def test_text_memo_and_chord_cache_can_be_emptied():
    from pcgroups import freiheitssatz
    minimal_form(C5P, "a1 t a1^-1")
    freiheitssatz.magnus_verdict(plain_cycle(5), "a1 t a2", 3)
    for cache in (words._canon_text, freiheitssatz._chorded,
                  freiheitssatz._cycle_chords):
        assert cache.cache_info().currsize > 0
        cache.cache_clear()
        assert cache.cache_info().currsize == 0


def test_equal_examples():
    assert equal(AB, "a b", "b a")
    assert not equal(FREE2, "a b", "b a")
    assert equal(C5P, "a1 a2 a1^-1", "a2")


def test_support_examples():
    assert support(AB, "a b a^-1") == {"b"}
    assert support(AB, "1") == set()
    assert support(FREE2, "a b") == {"a", "b"}


def test_cyclic_reduce_free():
    dec = cyclic_reduce(FREE2, "a^-1 b a")
    assert str(dec.conjugator) == "a" and str(dec.core) == "b"


def test_cyclic_reduce_fixed_point():
    dec = cyclic_reduce(C5P, "a2 a3")
    assert len(dec.conjugator) == 0
    assert str(dec.core) == "a2 a3"


def test_cyclic_reduce_non_adjacent_conjugator():
    dec = cyclic_reduce(C5P, "a2^-1 a4 a2")
    assert str(dec.conjugator) == "a2" and str(dec.core) == "a4"


def test_is_cyclically_minimal_examples():
    assert is_cyclically_minimal(FREE2, "a b")
    assert not is_cyclically_minimal(FREE2, "a b a^-1")
    assert is_cyclically_minimal(AB, "a b a")


def test_block_decomposition():
    assert [str(f) for f in block_decomposition(AB, "a b")] == ["a", "b"]
    assert [str(f) for f in block_decomposition(FREE2, "a b")] == ["a b"]
    # supp {a1,a2,a3}: a1-a3 is a complement edge, a2 is isolated there
    blocks = block_decomposition(C5P, "a1 a3 a2")
    assert [str(b) for b in blocks] == ["a1 a3", "a2"]
    with pytest.raises(NotCyclicallyMinimal):
        block_decomposition(FREE2, "a b a^-1")


def test_conjugate_test_examples():
    assert conjugate_test(C5P, "a2 a3", "a3^-1 a2 a3 a3")
    assert not conjugate_test(FREE2, "a", "b")
    assert conjugate_test(C5P, "a2 a4", "a4 a2")


def test_conjugate_test_needs_rotation_of_noncanonical_split():
    # b.(ac) -> (ac).b is reachable only through the non-canonical
    # minimal form bac of abc; guards the closure construction
    g = build_graph(["a", "b", "c"], [("a", "b")])
    assert conjugate_test(g, "a b c", "a c b")


def test_conjugate_test_matches_whole_core_closure():
    # block by block against the rotation closure of the whole core, on
    # random graphs with up to 12 vertices.  Each word w is compared with
    # a conjugate, a one-letter flip of its core, a shuffle of its core
    # (same letters, so only finer invariants tell them apart) and a
    # random word; each proper power x^p (p = 2..4) with a conjugated
    # rotation of it and with a one-letter flip of that.
    rng = random.Random(44)
    for _ in range(400):
        g = random_graph(rng)
        adj = g._adj_idx
        w = random_letters(rng, len(g), rng.randrange(0, 25))
        u = random_letters(rng, len(g), rng.randrange(0, 6))
        u_inv = tuple(-x for x in reversed(u))
        c1 = cyclic_reduce(g, word_from_idx(g, w)).core.idx
        if c1:  # invert one core letter: same length and support
            p = rng.randrange(len(c1))
            other = u_inv + c1[:p] + (-c1[p],) + c1[p + 1:] + u
        else:
            other = random_letters(rng, len(g), len(w))
        shuffled = list(c1)
        rng.shuffle(shuffled)
        x = random_letters(rng, len(g), rng.randrange(1, 7))
        power = x * rng.randrange(2, 5)
        r = rng.randrange(len(power))
        turned = power[r:] + power[:r]
        q = rng.randrange(len(turned))
        conjugated = [(w, u_inv + w + u), (power, u_inv + turned + u)]
        for v1, v2 in conjugated + [
                (w, other), (w, tuple(shuffled)),
                (w, random_letters(rng, len(g), len(w))),
                (power, u_inv + turned[:q] + (-turned[q],) + turned[q + 1:] + u)]:
            core1 = cyclic_reduce(g, word_from_idx(g, v1)).core.idx
            core2 = cyclic_reduce(g, word_from_idx(g, v2)).core.idx
            claimed = conjugate_test(g, word_from_idx(g, v1),
                                     word_from_idx(g, v2))
            assert claimed == (core2 in conjugacy_class_closure(adj, core1))
            assert claimed or (v1, v2) not in conjugated


def _block_join(b):
    """b free pairs x_i, y_i, letters of different pairs commuting."""
    names = [f"{c}{i}" for i in range(b) for c in "xy"]
    return build_graph(names, [(u, v) for u, v in
                               itertools.combinations(names, 2)
                               if u[1:] != v[1:]])


def test_conjugate_test_on_block_joins():
    # b free pairs x_i, y_i, letters of different pairs commuting: the
    # whole-core closure of the b-block core below has 6^b forms
    rng = random.Random(45)
    for b in range(1, 9):
        g = _block_join(b)
        names = g.vertices
        blocks = [[f"x{i}", f"x{i}", f"y{i}", f"x{i}", f"y{i}^-1",
                   f"y{i}^-1"] for i in range(b)]
        w = " ".join(t for blk in blocks for t in blk)
        u = [rng.choice(names) + rng.choice(("", "^-1")) for _ in range(4)]
        u_inv = [t[:-3] if t.endswith("^-1") else t + "^-1"
                 for t in reversed(u)]
        turned = []
        for blk in blocks:
            r = rng.randrange(6)
            turned += blk[r:] + blk[:r]
        assert conjugate_test(g, w, " ".join(u_inv + turned + u))
        # invert the leading x-run of the last block: the exponent sum of
        # x_{b-1} changes, the core's length and support do not
        flipped = turned[:-6] + [f"x{b - 1}^-1", f"x{b - 1}^-1"] + blocks[-1][2:]
        assert not conjugate_test(g, w, " ".join(u_inv + flipped + u))
        # x y x x y^-1 y^-1 in the last block: the same letters as
        # x x y x y^-1 y^-1, and no rotation of it, so only the
        # dependent-pair projections tell the cores apart
        i = b - 1
        swapped = turned[:-6] + [f"x{i}", f"y{i}", f"x{i}", f"x{i}",
                                 f"y{i}^-1", f"y{i}^-1"]
        swapped = " ".join(u_inv + swapped + u)
        assert not conjugate_test(g, w, swapped)
        if b <= 3:
            assert not _in_rotation_closure(g, w, swapped)


def test_conjugate_test_on_the_wide_block():
    # vertices a, b1..bm, the b's commuting pairwise and a commuting with
    # none of them: the core b1...bm a is one block whose rotation closure
    # has 2^m forms, so only a test that never walks it ends in time
    rng = random.Random(46)
    for m in (8, 13, 20, 40):
        bs = [f"b{i}" for i in range(1, m + 1)]
        g = build_graph(["a"] + bs, list(itertools.combinations(bs, 2)))
        u = [rng.choice(["a"] + bs) + rng.choice(("", "^-1")) for _ in range(4)]
        u_inv = [t[:-3] if t.endswith("^-1") else t + "^-1"
                 for t in reversed(u)]
        w = " ".join(bs + ["a"])
        # b1...bm a a against b1 a b2...bm a: the same letters, but each
        # rotation of the first keeps every b in one cyclic gap between
        # the two a's, and the second puts b1 and b2 in different gaps
        twice = " ".join(bs + ["a", "a"])
        apart = " ".join(u_inv + bs[:1] + ["a"] + bs[1:] + ["a"] + u)
        start = time.perf_counter()
        assert conjugate_test(g, w, " ".join(u_inv + ["a"] + bs + u))
        assert not conjugate_test(g, w, " ".join(u_inv + ["a^-1"] + bs + u))
        assert not conjugate_test(g, twice, apart)
        assert time.perf_counter() - start < 1.0, m
        if m == 8:
            assert not _in_rotation_closure(g, twice, apart)


def _free_block_cases(rng):
    """(graph, cyclic core) pairs whose blocks all have an independent
    support: random words over free groups of rank 1-5, over joins of
    2-4 free pairs, and over the free group of rank 140, whose cores
    hold more than 128 generators."""
    for _ in range(300):
        rank = rng.randint(1, 5)
        g = build_graph([f"g{i}" for i in range(rank)], [])
        yield g, random_letters(rng, rank, rng.randrange(1, 30))
    for _ in range(80):
        g = _block_join(rng.randint(2, 4))
        yield g, random_letters(rng, len(g), rng.randrange(1, 40))
    wide = build_graph([f"g{i}" for i in range(140)], [])
    for _ in range(4):
        yield wide, tuple(range(1, 141)) + random_letters(rng, 140, 200)


def test_conjugate_test_on_free_blocks_matches_the_projections():
    # each core against a rotation, a shuffle of its letters, a swap of
    # two neighbouring letters, a reversed segment and an inverted run of
    # one letter, each conjugated by a random word: conjugate_test agrees
    # with conjugate_test_reference, which runs _block_conjugate on every
    # block, and on short cores with the rotation closure
    rng = random.Random(49)
    answers = []
    wide_seen = 0
    for g, w in _free_block_cases(rng):
        adj = g._adj_idx
        core = _cyclic_core(adj, reduce_letters(adj, w))[1]
        if not core:
            continue
        wide_seen += len({abs(x) for x in core}) > 128
        r, p, q = (rng.randrange(len(core)) for _ in range(3))
        turned = core[r:] + core[:r]
        shuffled = list(core)
        rng.shuffle(shuffled)
        p, q = min(p, q), max(p, q) + 1
        run = p
        while run < len(turned) and turned[run] == turned[p]:
            run += 1
        u = random_letters(rng, len(g), rng.randrange(0, 5))
        for other in (turned, tuple(shuffled),
                      turned[:p] + turned[p + 1:p + 2] + turned[p:p + 1]
                      + turned[p + 2:],
                      turned[:p] + turned[p:q][::-1] + turned[q:],
                      turned[:p] + invert_letters(turned[p:run])
                      + turned[run:]):
            v1 = Word(g, core)
            v2 = Word(g, invert_letters(u) + other + u)
            claimed = conjugate_test(g, v1, v2)
            assert claimed == conjugate_test_reference(g, v1, v2), (g, core)
            if len(core) <= 12:
                assert claimed == _in_rotation_closure(g, v1, v2)
            answers.append(claimed)
    assert wide_seen == 4
    assert 0.25 * len(answers) <= answers.count(True) < len(answers)


def _in_rotation_closure(g, w1, w2):
    """Whether the canonical core of w2 is in the rotation closure of
    the canonical core of w1."""
    c1, c2 = (cyclic_reduce(g, w).core.idx for w in (w1, w2))
    return c2 in conjugacy_class_closure(g._adj_idx, c1)


def _core_cases(rng):
    """(graph, word) pairs: random words conjugated by random words, up
    to 60 letters deep, on the catalog and on random graphs with at most
    seven vertices."""
    graphs = list(catalog().values())
    for i in range(1500):
        g = graphs[i % len(graphs)] if i % 2 else random_graph(rng, 7)
        w = random_letters(rng, len(g), rng.randrange(0, 16))
        u = random_letters(rng, len(g), rng.choice((0, 3, 8, 60)))
        yield g, invert_letters(u) + w + u


def test_cyclic_core_matches_the_peeling_reference():
    # the core of the pass over w.w against the peeling reference, fed
    # canonical forms and the non-canonical geodesics of reduce_letters
    rng = random.Random(47)
    for g, w in _core_cases(rng):
        adj = g._adj_idx
        canonical = canon_letters(adj, w)
        want = cyclic_core_reference(adj, canonical)
        geodesic = reduce_letters(adj, w)
        for form in (canonical, geodesic):
            assert cyclic_core_letters(adj, form) == want, (g.vertices, w)
            ys, v = _cyclic_core(adj, form)
            assert 2 * len(ys) + len(v) == len(form)
            kept = iter(form)
            assert all(x in kept for x in v)  # a subsequence of form


def _graphs_up_to_isomorphism(n):
    """One labelled graph per isomorphism class on n vertices (11 for
    n = 4): the first edge set, in subset order, of each class."""
    names = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(range(n), 2))
    seen, out = set(), []
    for mask in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        if frozenset(edges) in seen:
            continue
        for perm in itertools.permutations(range(n)):
            seen.add(frozenset(tuple(sorted((perm[a], perm[b])))
                               for a, b in edges))
        out.append(build_graph(names, [(names[a], names[b])
                                       for a, b in edges]))
    return out


def test_cyclic_core_of_the_square_matches_the_reference():
    # every word of up to four letters over each graph on four vertices,
    # fed as its canonical form and as the geodesic reduce_letters keeps:
    # the core against the peeling reference, its lengths, v a
    # subsequence of the geodesic, and the cyclic-minimality verdict
    graphs = _graphs_up_to_isomorphism(4)
    assert len(graphs) == 11
    words_seen = 0
    for g in graphs:
        adj = g._adj_idx
        want = {}  # canonical form -> (core, verdict) of the references
        for n in range(5):
            for w in all_words(4, n):
                words_seen += 1
                canonical = canon_letters(adj, w)
                if canonical not in want:
                    want[canonical] = (
                        cyclic_core_reference(adj, canonical),
                        is_cyclically_minimal_reference(adj, canonical))
                core, minimal = want[canonical]
                for form in {canonical, reduce_letters(adj, w)}:
                    assert cyclic_core_letters(adj, form) == core, (g, w)
                    ys, v = _cyclic_core(adj, form)
                    assert 2 * len(ys) + len(v) == len(form), (g, w)
                    kept = iter(form)
                    assert all(x in kept for x in v), (g, w)
                assert is_cyclically_minimal(g, Word(g, w)) == minimal, (g, w)
    assert words_seen == 51491


def test_reduce_letters_matches_the_scanning_reference():
    # the position pass cancels the pairs the back-scan cancels, on
    # unreduced and conjugated words and on the shapes where the scan
    # is quadratic
    rng = random.Random(20)
    graphs = [build_graph(["v0"], [])]
    graphs += [random_graph(rng) for _ in range(80)]
    for g in graphs:
        adj = g._adj_idx
        for _ in range(40):
            w = random_letters(rng, len(g), rng.randrange(0, 61))
            u = random_letters(rng, len(g), rng.randrange(0, 21))
            for v in (w, invert_letters(u) + w[:20] + u):
                assert reduce_letters(adj, v) == reduce_reference(adj, v), \
                    (g, v)
    for g in (FREE2, AB):
        adj = g._adj_idx
        for n in (1, 2, 7, 300):
            for v in ((1, -1) * n, (1,) * n + (2,) * n + (-1,) * n):
                assert reduce_letters(adj, v) == reduce_reference(adj, v)


def _cancelling_words(rng, n):
    """Words over n generators that cancel a lot: a random word, its
    square, its conjugate by a random word, and a word put before a
    shuffle of its inverse, so letters meet their inverses after blockers
    that were themselves cancelled or lie before the partner."""
    w = random_letters(rng, n, rng.randrange(0, 41))
    u = random_letters(rng, n, rng.randrange(0, 16))
    shuffled = list(invert_letters(w))
    rng.shuffle(shuffled)
    return (w, w + w, invert_letters(u) + w + u, w + tuple(shuffled),
            w + invert_letters(w) + w)


def test_cancel_matches_the_seen_order_pass_and_the_scan():
    # the pass, letter for letter (cancelled positions included), against
    # the pass that reads every generator seen and against the back-scan,
    # on graphs of up to 20 vertices, and on w.w as cyclic reduction
    # feeds it
    rng = random.Random(28)
    for _ in range(150):
        g = random_graph(rng, 20)
        adj = g._adj_idx
        for _ in range(10):
            for v in _cancelling_words(rng, len(g)):
                assert _cancel(adj, v) == cancel_reference(adj, v), (g, v)
                assert reduce_letters(adj, v) == reduce_reference(adj, v)
                vv = reduce_letters(adj, v) * 2
                assert _cancel(adj, vv) == cancel_reference(adj, vv), (g, v)


def test_cancel_with_a_stale_blocker():
    # a^-1 is blocked by b; the next candidate of a meets b before its
    # partner (a b a^-1 a), then after b was cancelled (... b^-1 a^-1);
    # with c commuting with a only, and with c blocked by b in between
    a, b, c = 1, 2, 3
    free3 = build_graph(["a", "b", "c"], [])
    ac = build_graph(["a", "b", "c"], [("a", "c")])
    cases = {
        (a, b, -a, a): (a, b),
        (a, b, -a, a, -b, -a): (),
        (a, c, b, -a, a, -b, -c, -a): (),
        (c, a, b, -c, -b, c, -a): (c, a, b, -c, -b, c, -a),
    }
    for g in (free3, ac):
        adj = g._adj_idx
        for w, want in cases.items():
            assert _cancel(adj, w) == cancel_reference(adj, w), (g, w)
            assert reduce_letters(adj, w) == reduce_reference(adj, w)
            if g is free3:
                assert reduce_letters(adj, w) == want, w


def _pair_rule_cases(rng):
    """(adj, u, v) with supp(v) within supp(u): random words and their
    rotations, conjugates, one-letter and whole-run sign flips, shuffles
    and random words over the same support (projections of unequal
    length), over random graphs; the blocks of conjugated cores as
    conjugate_test pairs them."""
    for _ in range(300):
        g = random_graph(rng)
        adj = g._adj_idx
        u = reduce_letters(adj, random_letters(rng, len(g),
                                               rng.randrange(1, 25)))
        if not u:
            continue
        r = rng.randrange(len(u))
        turned = u[r:] + u[:r]
        p = rng.randrange(len(u))
        flipped = u[:p] + (-u[p],) + u[p + 1:]
        i = j = p
        while i and u[i - 1] == u[p]:
            i -= 1
        while j < len(u) and u[j] == u[p]:
            j += 1
        run_flipped = u[:i] + invert_letters(u[i:j]) + u[j:]
        gen_flipped = tuple(-x if abs(x) == abs(u[p]) else x for x in u)
        shuffled = list(u)
        rng.shuffle(shuffled)
        gens = sorted({abs(x) for x in u})
        other = tuple(rng.choice(gens) * rng.choice((1, -1)) for _ in u)
        for v in (u, turned, flipped, run_flipped, gen_flipped,
                  tuple(shuffled), other,
                  turned[:-1]):
            yield adj, u, v
        c = random_letters(rng, len(g), rng.randrange(0, 6))
        cores = [_cyclic_core(adj, reduce_letters(adj, x))[1]
                 for x in (u, invert_letters(c) + turned + c)]
        comps = [_complement_components(adj, {abs(x) for x in core})
                 for core in cores]
        for x, y in zip(*map(words._blocks, cores, comps)):
            if {abs(z) for z in y} <= {abs(z) for z in x}:
                yield adj, x, y


def test_pair_rules_match_the_string_reference():
    # rule for rule, in the same order, and None on the same pairs
    rng = random.Random(29)
    seen_none = seen_rules = 0
    for adj, u, v in _pair_rule_cases(rng):
        want = pair_rules_reference(adj, u, v)
        assert words._pair_rules(adj, u, v) == want, (adj, u, v)
        seen_none += want is None
        seen_rules += want is not None
    assert seen_none > 100 and seen_rules > 100


def test_pair_rules_past_the_byte_alphabet():
    # blocks over 201 and 140 generators: codes 2 * rank + sign run past
    # 255, and the rules must still equal the reference's
    rng = random.Random(30)
    bs = [f"b{i}" for i in range(1, 201)]
    wide = build_graph(["a"] + bs, list(itertools.combinations(bs, 2)))
    names = [f"v{i}" for i in range(140)]
    dense = build_graph(names, [e for e in itertools.combinations(names, 2)
                                if rng.random() < 0.97])
    u_wide = tuple(range(2, 202)) + (1,)
    u_dense = reduce_letters(dense._adj_idx, tuple(range(1, 141)) +
                             random_letters(rng, 140, 200))
    for g, u in ((wide, u_wide), (dense, u_dense)):
        adj = g._adj_idx
        assert len({abs(x) for x in u}) > 128
        for _ in range(6):
            r = rng.randrange(len(u))
            p = rng.randrange(len(u))
            turned = u[r:] + u[:r]
            for v in (turned, turned[:p] + (-turned[p],) + turned[p + 1:]):
                want = pair_rules_reference(adj, u, v)
                assert words._pair_rules(adj, u, v) == want
        assert words._pair_rules(adj, u, u[1:] + u[:1]) is not None


def test_conjugate_test_of_a_long_cancelling_word_stays_fast():
    # each a^-1 cancels across the b block it commutes with; a back-scan
    # walks the whole block for each (about 3.5 s at 8000 letters a part)
    start = time.perf_counter()
    assert conjugate_test(AB, "a^8000 b^8000 a^-8000", "b^8000")
    assert not conjugate_test(AB, "a^8000 b^8000 a^-8000", "b^7999 a")
    assert time.perf_counter() - start < 1.0


def test_cyclic_core_of_a_deep_conjugator():
    # 20000 pairs to remove: a core that rescans the word for each pair
    # it removes takes minutes here
    start = time.perf_counter()
    assert conjugate_test(FREE2, "a^20000 b a^-20000", "b")
    assert not conjugate_test(FREE2, "a^20000 b a^-20000", "b^-1")
    dec = cyclic_reduce(FREE2, "a^20000 b a^-20000")
    assert str(dec.core) == "b" and str(dec.conjugator) == "a^-20000"
    assert time.perf_counter() - start < 10.0


def test_cyclic_core_of_a_deep_conjugator_over_many_generators():
    # rank 300: each letter of the second copy of w.w that meets its
    # inverse reads up to 300 generators in the one cancellation pass
    g = build_graph([f"g{i}" for i in range(300)], [])
    adj = g._adj_idx
    rng = random.Random(1814)
    u = reduce_letters(adj, random_letters(rng, 300, 600))
    w = reduce_letters(adj, invert_letters(u) + (1, 2) + u)
    ys, v = _cyclic_core(adj, w)
    assert v == (1, 2) and 2 * len(ys) + 2 == len(w)
    assert cyclic_core_letters(adj, w) == cyclic_core_reference(adj, w)


def test_cyclic_core_of_the_slowest_shape_stays_fast():
    # c1 ... c300 (x z x^-1 z^-1)^5000, x commuting with every c_i and z
    # with nothing: in the cancellation pass over w.w nearly every letter
    # meets its inverse and reads the 300 c_i before z or x blocks it, the
    # pass's slowest shape (cyclic_reduce about 0.3 s and
    # conjugate_test(w, w) about 0.8 s on a 2-CPU machine)
    cs = [f"c{i}" for i in range(1, 301)]
    g = build_graph(cs + ["x", "z"], [(c, "x") for c in cs])
    w = parse_word(" ".join(cs) + " x z x^-1 z^-1" * 5000, g)
    start = time.perf_counter()
    dec = cyclic_reduce(g, w)
    assert time.perf_counter() - start < 1.0
    assert not dec.conjugator.idx and len(dec.core) == len(w)
    start = time.perf_counter()
    assert conjugate_test(g, w, w)
    assert time.perf_counter() - start < 3.0


def test_cyclic_core_of_the_slowest_shape_stays_fast_at_ten_times_the_length():
    # the same shape with (x z x^-1 z^-1)^50000: each blocked candidate
    # first reads the generator that last blocked its own, z for x and x
    # for z, which still blocks it, so it never reads the c_i.  On a 2-CPU
    # machine cyclic_reduce takes about 0.3 s and conjugate_test(w, w)
    # about 0.2-0.4 s; a pass that reads every generator seen for each
    # candidate took 3.0-3.1 s and 7.9-8.5 s
    cs = [f"c{i}" for i in range(1, 301)]
    g = build_graph(cs + ["x", "z"], [(c, "x") for c in cs])
    w = parse_word(" ".join(cs) + " x z x^-1 z^-1" * 50000, g)
    start = time.perf_counter()
    dec = cyclic_reduce(g, w)
    assert time.perf_counter() - start < 1.0
    assert not dec.conjugator.idx and len(dec.core) == len(w)
    start = time.perf_counter()
    assert conjugate_test(g, w, w)
    assert time.perf_counter() - start < 3.0


def test_cancellation_over_a_large_free_group_reads_the_generators_seen():
    # rank 20000, a word over two generators: each cancelling g0 has 19999
    # blockers but only two generators seen, and reads those.  About 0.1 s
    # on a 2-CPU machine; a pass that read every blocker took about 46 s
    g = build_graph([f"g{i}" for i in range(20000)], [])
    start = time.perf_counter()
    assert conjugate_test(g, "g0^50000 g1 g0^-50000", "g1")
    assert not conjugate_test(g, "g0^50000 g1 g0^-50000", "g1^-1")
    assert time.perf_counter() - start < 1.0


def test_cancellation_over_many_generators_of_a_free_group_stays_fast():
    # rank 5000, g1 ... gm g1^-1 ... gm^-1: each gi^-1 is blocked by the
    # first generator seen after gi, or by its hint, so the pass reads
    # about two generators a letter and keeps nothing after the call.
    # About 0.02 s on a 2-CPU machine; building each candidate's row of
    # blockers took 3.6 s and held 0.9 GB, and testing each first letter
    # against the list of generators seen took 0.36 s
    m = 5000
    g = build_graph([f"g{i}" for i in range(1, m + 1)], [])
    w = tuple(range(1, m + 1)) + tuple(range(-1, -m - 1, -1))
    start = time.perf_counter()
    assert reduce_letters(g._adj_idx, w) == w
    dec = cyclic_reduce(g, Word(g, w))
    assert not dec.conjugator.idx and dec.core.idx == w
    assert time.perf_counter() - start < 0.2


def test_conjugate_test_prices_its_dependent_pairs_before_projecting():
    # g1 ... gm g1^-1 ... gm^-1 against its rotation by one letter: over
    # the free group of rank m one free block, decided by one substring
    # test at any rank.  With the one edge g1-g2 the block is not free,
    # and at rank 5000 its m(m + 1)/2 - 1 dependent pairs, each one
    # projection of its 2m letters (1.25e11 work units), are refused
    # before the first projection.  A block equal on both sides needs no
    # projection.
    def rotated(m, edges=()):
        g = build_graph([f"g{i}" for i in range(1, m + 1)], edges)
        w = tuple(range(1, m + 1)) + tuple(range(-1, -m - 1, -1))
        return g, Word(g, w), Word(g, w[1:] + w[:1])

    for m in (200, 5000):
        g, w, turned = rotated(m)
        start = time.perf_counter()
        assert conjugate_test(g, w, turned)
        assert not conjugate_test(g, w, Word(g, w.idx[1::-1] + w.idx[2:]))
        assert time.perf_counter() - start < 1.0, m
    g, w, turned = rotated(5000, [("g1", "g2")])
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="conjugacy needs"):
        conjugate_test(g, w, turned)
    assert conjugate_test(g, w, w)
    assert time.perf_counter() - start < 1.0
    rng = random.Random(71)
    for _ in range(200):
        g = random_graph(rng)
        adj = g._adj_idx
        supp = set(rng.sample(range(1, len(g) + 1), rng.randint(1, len(g))))
        assert words._dependent_pairs(adj, supp) == sum(
            a == b or b not in adj[a]
            for a, b in itertools.combinations_with_replacement(supp, 2))


def test_conjugate_test_on_a_long_free_core_stays_linear(monkeypatch):
    # the cyclic core of a random 10^5-letter word over the free group of
    # rank 50 against its rotation by half its length: one free block,
    # decided by one substring test, where the projections would cost
    # 1275 dependent pairs times the core's length.  About 0.25 s on a
    # 2-CPU machine
    calls = []
    monkeypatch.setattr(words, "_pair_rules", lambda *args: calls.append(0))
    g = build_graph([f"g{i}" for i in range(50)], [])
    adj = g._adj_idx
    w = reduce_letters(adj, random_letters(random.Random(73), 50, 10**5))
    core = _cyclic_core(adj, w)[1]
    h = len(core) // 2
    assert len(core) > 90000
    start = time.perf_counter()
    assert conjugate_test(g, Word(g, core), Word(g, core[h:] + core[:h]))
    assert time.perf_counter() - start < 1.0
    assert calls == []


def test_conjugate_test_projects_only_cores_with_the_same_letters(
        monkeypatch):
    # counts calls of _pair_rules, not seconds: cores that differ in
    # their letter counts, or are equal, are answered before any block
    # is projected; a pair with the same letters that is not conjugate
    # is answered False by the projections
    calls = []
    pair_rules = words._pair_rules

    def counted(adj, u, v):
        calls.append(len(u))
        return pair_rules(adj, u, v)

    monkeypatch.setattr(words, "_pair_rules", counted)
    join = _block_join(3)
    w = "x0 x0 y0 x0 y0^-1 y0^-1 x1 x1 y1 x1 y1^-1 y1^-1 x2 y2"
    for other in ("x0^-1 x0^-1 y0 x0 y0^-1 y0^-1 x1 x1 y1 x1 y1^-1 y1^-1 "
                  "x2 y2", "x0 x0 y0 x0 y0^-1 x1 x1 y1 x1 y1^-1 y1^-1 x2 y2",
                  "x0 y0 x0 x0 y0^-1 y0^-1 x1 x1 y1 x1 y1^-1 y1^-1 x2 y2^-1",
                  "y2 " + w, "1"):
        assert not conjugate_test(join, w, other)
    assert calls == []
    adj = join._adj_idx
    for other in (w, "y0 " + w + " y0^-1", "x1 " + w + " x1^-1"):
        cores = [_cyclic_core(adj, reduce_letters(adj, parse_word(x, join).idx))
                 for x in (w, other)]
        assert cores[0][1] == cores[1][1]
        assert conjugate_test(join, w, other)
    assert calls == []
    # the blocks of a join are free: a same-letter negative is answered
    # by a substring test, with no projection
    swapped = "x0 y0 x0 x0 y0^-1 y0^-1 x1 x1 y1 x1 y1^-1 y1^-1 y2 x2"
    assert not conjugate_test(join, w, swapped)
    assert calls == []
    # the wide block b1...b40 a is not free (the b's commute): b1...b40 a a
    # against b1 a b2...b40 a has the same letters and needs the projections
    bs = [f"b{i}" for i in range(1, 41)]
    wide = build_graph(["a"] + bs, list(itertools.combinations(bs, 2)))
    assert not conjugate_test(wide, " ".join(bs + ["a", "a"]),
                              " ".join(bs[:1] + ["a"] + bs[1:] + ["a"]))
    assert len(calls) >= 1
    rng = random.Random(72)
    for _ in range(200):
        g = random_graph(rng)
        v = random_letters(rng, len(g), rng.randrange(1, 20))
        p = rng.randrange(len(v))
        flipped = v[:p] + (-v[p],) + v[p + 1:]
        calls.clear()
        assert not conjugate_test(g, word_from_idx(g, v),
                                  word_from_idx(g, flipped))
        assert calls == []
    # rank 5000: g1 ... g5000 g1^-1 ... g5000^-1 against the same word
    # with g1 inverted; the letter counts differ, so no block is split
    m = 5000
    free = build_graph([f"g{i}" for i in range(1, m + 1)], [])
    v = tuple(range(1, m + 1)) + tuple(range(-1, -m - 1, -1))
    start = time.perf_counter()
    assert not conjugate_test(free, Word(free, v),
                              Word(free, (-1,) + v[1:]))
    assert time.perf_counter() - start < 1.0
    assert calls == []


def test_conjugate_test_matches_the_reference_and_the_partition():
    # every element of the radius-4 ball of each catalog graph against a
    # random member of its class and a random element of its length
    rng = random.Random(48)
    for g in catalog().values():
        oracle, class_of = conjugacy_partition(g, 4)
        members, by_length = {}, {}
        for node, cid in class_of.items():
            members.setdefault(cid, []).append(node)
            by_length.setdefault(len(node), []).append(node)
        for node in sorted(oracle.dist):
            for other in (rng.choice(members[class_of[node]]),
                          rng.choice(by_length[len(node)])):
                v1, v2 = word_from_idx(g, node), word_from_idx(g, other)
                claimed = conjugate_test(g, v1, v2)
                assert claimed == (class_of[node] == class_of[other])
                assert claimed == conjugate_test_reference(g, v1, v2)


# ---------------------------------------------------------------------------
# properties

letters_c5p = st.sampled_from([s * i for i in range(1, 6) for s in (1, -1)])


def _parse_outcome(parse, text, g):
    try:
        return tuple(parse(text, g))
    except PcgError as exc:
        return type(exc), str(exc)


_c5p_names = st.sampled_from(C5P.vertices)
_exponents = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1", "-1", "-01", "0", "-0", "00", "+2", "1" * 30,
                     str(MAX_WORD_LETTERS), str(MAX_WORD_LETTERS // 2 + 1),
                     str(-MAX_WORD_LETTERS - 1)]))
_tokens = st.one_of(
    _c5p_names,
    _c5p_names.map(lambda v: v + "^-1"),
    st.tuples(_c5p_names, _exponents).map("^".join),
    st.sampled_from(["a5", "b", "a1_", "T", "zz^-1", "zz^0"]),
    st.just("1"),
    st.sampled_from(["a1^", "^2", "a1-a2", "a1^^2", "2a", "a1^x", "-1"]))


@given(st.lists(_tokens, max_size=8),
       st.lists(st.sampled_from([" ", "  ", "\t", "\n"]), min_size=9,
                max_size=9))
@settings(max_examples=400, deadline=None)
@example([f"a1^{MAX_WORD_LETTERS}", "t^-1"], [" "] * 9)
@example([f"a1^{MAX_WORD_LETTERS - 1}", "t", "a2^1"], [" "] * 9)
def test_parse_word_matches_the_regex_parser(tokens, gaps):
    # the letter table must not change a parse or an error: same letters,
    # or the same exception class and message as the regex-only reference
    text = "".join(gap + tok for gap, tok in zip(gaps, tokens))
    assert (_parse_outcome(lambda t, g: parse_word(t, g).idx, text, C5P)
            == _parse_outcome(parse_word_reference, text, C5P))


# Tokens where a hand parser could part from the regex: Unicode decimal
# digits (\d) and other digits, underscores and signs that int() takes,
# and empty names or exponents.
_ODD_TOKENS = ["a^\u0663", "a^-\u0663", "a^\u00b2", "a^1_0", "a^+3", "a^-0",
               "a^007", "a^", "^3", "a^^1", "a^10000000000", "_c^-2",
               "a^--1", "a^-", "a^3^1", "_c", "b^\U0001d7d8\u0661"]
_DIGITS = "0123456789\u0660\u0663\u00b2\U0001d7d8\u2167\u00bd"


def _random_token(rng):
    if rng.random() < 0.5:
        chars = "ab_c19^-+\u00e9\u00df" + _DIGITS
        return "".join(rng.choice(chars) for _ in range(rng.randrange(1, 8)))
    exponent = "".join(rng.choice(_DIGITS + "-+_^")
                       for _ in range(rng.randrange(0, 5)))
    return rng.choice(["a", "_c", "b", "a1", ""]) + "^" + exponent


def test_parse_word_matches_the_regex_on_odd_and_random_tokens():
    g = build_graph(["a", "_c", "b"], [("a", "b")])
    assert parse_word("a^\u0663", g).idx == (1, 1, 1)
    assert parse_word("a^-\u0663 _c^-2", g).idx == (-1, -1, -1, -2, -2)
    for tok in ("a^\u00b2", "a^1_0", "a^+3", "a^", "^3", "a^^1"):
        with pytest.raises(WordSyntaxError):
            parse_word(tok, g)
    rng = random.Random(23)
    tokens = _ODD_TOKENS + [_random_token(rng) for _ in range(4000)]
    for tok in tokens:
        assert (_parse_outcome(lambda t, g: parse_word(t, g).idx, tok, g)
                == _parse_outcome(parse_word_reference, tok, g)), tok
    for i in range(0, len(tokens), 3):
        text = " ".join(tokens[i:i + 3])
        assert (_parse_outcome(lambda t, g: parse_word(t, g).idx, text, g)
                == _parse_outcome(parse_word_reference, text, g)), text


@given(st.lists(letters_c5p, max_size=10))
@settings(max_examples=200, deadline=None)
def test_format_parse_roundtrip(letters):
    word = word_from_idx(C5P, tuple(letters))
    assert parse_word(format_word(word), C5P).idx == word.idx


@given(st.lists(letters_c5p, max_size=8))
@settings(max_examples=200, deadline=None)
def test_minimal_form_idempotent_and_sound(letters):
    word = word_from_idx(C5P, tuple(letters))
    nf = minimal_form(C5P, word)
    assert minimal_form(C5P, nf.word).idx == nf.idx
    assert equal(C5P, word, nf.word)
    assert len(nf) <= len(letters)


_CATALOG = catalog()


@given(st.sampled_from(sorted(_CATALOG)), st.data())
@settings(max_examples=300, deadline=None)
def test_conjugate_test_holds_on_conjugates_and_is_symmetric(name, data):
    g = _CATALOG[name]
    letters = st.lists(st.sampled_from(
        [s * i for i in range(1, len(g) + 1) for s in (1, -1)]), max_size=10)
    w, c, other = (tuple(data.draw(letters)) for _ in range(3))
    conj = invert_letters(c) + w + c
    word, conj_word, other_word = (word_from_idx(g, x)
                                   for x in (w, conj, other))
    assert conjugate_test(g, word, conj_word)
    assert conjugate_test(g, conj_word, word)
    assert (conjugate_test(g, word, other_word)
            == conjugate_test(g, other_word, word))


def small_corpus(g, max_len):
    n = len(g)
    for length in range(max_len + 1):
        yield from all_words(n, length)


def test_confluence_and_geodesic_on_catalog_sample():
    rng = random.Random(7)
    for name, g in catalog().items():
        adj = g._adj_idx
        n = len(g)
        letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
        for _ in range(200):
            w = tuple(rng.choice(letters)
                      for _ in range(rng.randrange(0, 7)))
            c = canon_letters(adj, w)
            assert canon_letters(adj, c) == c
            assert c == closure_canonical(adj, w)


def test_canonical_forms_on_random_graphs():
    # random 6- and 7-vertex graphs exercise adjacency patterns the fixed
    # catalog misses; the move-closure oracle stays the ground truth
    rng = random.Random(2024)
    from pcgroups.graphs import build_graph
    for trial in range(12):
        n = rng.choice((6, 7))
        names = [f"v{i}" for i in range(n)]
        edges = [(names[i], names[j])
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < rng.choice((0.2, 0.5, 0.8))]
        g = build_graph(names, edges)
        adj = g._adj_idx
        letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
        for _ in range(120):
            w = tuple(rng.choice(letters)
                      for _ in range(rng.randrange(0, 9)))
            c = canon_letters(adj, w)
            assert c == closure_canonical(adj, w)
            assert canon_letters(adj, c) == c


def test_equal_is_equivalence_on_sample():
    g = catalog()["P3"]
    adj = g._adj_idx
    words = [word_from_idx(g, w) for w in small_corpus(g, 3)]
    canon = {w.idx: canon_letters(adj, w.idx) for w in words}
    for w1 in words[:50]:
        for w2 in words[:50]:
            assert equal(g, w1, w2) == (canon[w1.idx] == canon[w2.idx])


def test_support_invariance_and_conjugation_growth():
    g = C5P
    rng = random.Random(3)
    letters = [s * i for i in range(1, 6) for s in (1, -1)]
    for _ in range(150):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 5)))
        word = word_from_idx(g, w)
        assert support(g, word) == support(g, minimal_form(g, word).word)
        if is_cyclically_minimal(g, word):
            conj = tuple(rng.choice(letters) for _ in range(2))
            conjugated = word_from_idx(
                g, tuple(-x for x in reversed(conj)) + w + conj)
            assert support(g, conjugated) >= support(g, word)


def test_power_length_additivity():
    for g in (FREE2, AB, C5P):
        n_gens = len(g)
        for w in all_words(n_gens, 2):
            word = word_from_idx(g, w)
            if not is_cyclically_minimal(g, word):
                continue
            base = len(minimal_form(g, word))
            for p in range(1, 5):
                assert len(minimal_form(g, word_from_idx(g, w * p))) == p * base


def test_cyclic_reduce_length_additive():
    rng = random.Random(11)
    letters = [s * i for i in range(1, 6) for s in (1, -1)]
    for _ in range(300):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 7)))
        word = word_from_idx(C5P, w)
        dec = cyclic_reduce(C5P, word)
        total = len(minimal_form(C5P, word))
        assert total == 2 * len(dec.conjugator) + len(dec.core)
        assert is_cyclically_minimal(C5P, dec.core.word)
        recon = (tuple(-x for x in reversed(dec.conjugator.idx))
                 + dec.core.idx + dec.conjugator.idx)
        assert equal(C5P, word, word_from_idx(C5P, recon))


def test_block_decomposition_product_and_supports():
    g = C5P
    for w in all_words(5, 3):
        word = word_from_idx(g, w)
        if not is_cyclically_minimal(g, word):
            continue
        blocks = block_decomposition(g, word)
        joined = tuple(x for b in blocks for x in b.idx)
        assert equal(g, word, word_from_idx(g, joined))
        supports = [support(g, b.word) for b in blocks]
        for s1, s2 in itertools.combinations(supports, 2):
            assert not (s1 & s2)
            assert all(g.adjacent(u, v) for u in s1 for v in s2)


# ---------------------------------------------------------------------------
# long words: the engine against closed-form answers and invariances


def test_long_words_free_group_is_free_reduction():
    rng = random.Random(41)
    for n in (1, 2, 3, 5):
        g = build_graph([f"x{i}" for i in range(n)], [])
        for length in (50, 100, 200, 400):
            w = random_letters(rng, n, length)
            stack = []
            for x in w:
                if stack and stack[-1] == -x:
                    stack.pop()
                else:
                    stack.append(x)
            assert minimal_form(g, word_from_idx(g, w)).idx == tuple(stack)


def test_long_words_free_abelian_is_exponent_sum_form():
    rng = random.Random(42)
    for n in (1, 3, 6):
        names = [f"x{i}" for i in range(n)]
        g = build_graph(names, list(itertools.combinations(names, 2)))
        for length in (50, 100, 200, 400):
            w = random_letters(rng, n, length)
            expected = []
            for i in range(1, n + 1):
                e = sum(1 if x == i else -1 for x in w if abs(x) == i)
                expected.extend([i if e > 0 else -i] * abs(e))
            assert minimal_form(g, word_from_idx(g, w)).idx == tuple(expected)


def test_long_words_invariant_under_swaps_and_inserted_pairs():
    rng = random.Random(43)
    for _ in range(12):
        g = random_graph(rng)
        adj = g._adj_idx
        for length in (25, 100, 400):
            w = random_letters(rng, len(g), length)
            nf = minimal_form(g, word_from_idx(g, w))
            moved = list(w)
            for _ in range(length):
                i = rng.randrange(len(moved) - 1)
                if abs(moved[i + 1]) in adj[abs(moved[i])]:
                    moved[i], moved[i + 1] = moved[i + 1], moved[i]
            for _ in range(length // 10):
                x = random_letters(rng, len(g), 1)[0]
                i = rng.randrange(len(moved) + 1)
                moved[i:i] = [x, -x]
            assert minimal_form(g, word_from_idx(g, moved)).idx == nf.idx
            assert minimal_form(g, nf.word).idx == nf.idx
            inverse = tuple(-x for x in reversed(w))
            assert minimal_form(g, word_from_idx(g, w + inverse)).idx == ()


# ---------------------------------------------------------------------------
# the lex-least insertion against the heap walk and the move closure


def test_lexmin_insertion_matches_the_heap_walk_and_the_closure():
    # both engines of canon_letters on the same words, reduced or not;
    # on a geodesic both equal the heap walk that never cancels
    rng = random.Random(2026)
    closures = 0
    for _ in range(100):
        g = random_graph(rng)
        adj = g._adj_idx
        for _ in range(30):
            length = rng.choice((rng.randrange(0, 9), rng.randrange(0, 61)))
            w = random_letters(rng, len(g), length)
            r = reduce_letters(adj, w)
            assert _insert(adj, w) == _canon_heap(adj, w) == canon_letters(
                adj, w)
            assert _insert(adj, r) == _canon_heap(adj, r) \
                == lexmin_reference(adj, r)
            if length <= 8:
                assert canon_letters(adj, w) == closure_canonical(adj, w)
                closures += 1
    assert closures >= 1000


def _count_heap_walks(monkeypatch):
    calls = []
    heap_walk = words._canon_heap

    def counted(adj, w):
        calls.append(len(w))
        return heap_walk(adj, w)

    monkeypatch.setattr(words, "_canon_heap", counted)
    return calls


def test_lexmin_long_commuting_runs_fall_back_to_the_heap_walk(monkeypatch):
    calls = _count_heap_walks(monkeypatch)
    names = [f"z{i}" for i in range(12)]
    free_abelian = build_graph(names, list(itertools.combinations(names, 2)))
    rng = random.Random(12)
    w = tuple(rng.randrange(1, 13) for _ in range(3000))
    adj = free_abelian._adj_idx
    assert canon_letters(adj, w) == _canon_heap(adj, w) == tuple(sorted(w))
    # x and y are central over the free pair a, b
    g = build_graph(["a", "b", "x", "y"],
                    [(u, v) for u in "abx" for v in "xy" if u != v])
    w = (1, 2) * 30 + (3, 4) * 1000
    adj = g._adj_idx
    assert (canon_letters(adj, w) == _canon_heap(adj, w)
            == (1, 2) * 30 + (3,) * 1000 + (4,) * 1000)
    assert calls == [3000, 2060]


def test_lexmin_needs_no_heap_walk_on_random_words(monkeypatch):
    # the words-long shape: random words of up to 400 letters on C'5 and
    # on G(12, 0.5), through every layer that canonicalises
    calls = _count_heap_walks(monkeypatch)
    rng = random.Random(12)
    names = ["t"] + [f"b{i}" for i in range(1, 12)]
    g12 = build_graph(names, [e for e in itertools.combinations(names, 2)
                              if rng.random() < 0.5])
    for g in (C5P, g12):
        u = parabolic(g, g.neighbours("t"))
        for length in range(25, 401, 25):
            for _ in range(4):
                w = word_from_idx(g, random_letters(rng, len(g), length))
                assert _insert(g._adj_idx, w.idx) == _canon_heap(
                    g._adj_idx, w.idx)
                minimal_form(g, w)
                strip_divisors(u, w)
                sigma(g, "t", hnn_factorize(g, "t", w))
    assert calls == []


# ---------------------------------------------------------------------------
# canon_letters: one insertion pass against reduce, then linearise


def test_one_pass_canon_matches_two_passes_and_the_closure():
    # seeded random graphs on 2-12 vertices, words of up to 400 letters,
    # plain and wrapped as a . b . a^-1 so that long cancellations run
    # through commuting letters
    rng = random.Random(1811)
    closures = wrapped = 0
    for _ in range(120):
        g = random_graph(rng)
        adj = g._adj_idx
        for _ in range(12):
            length = rng.choice((rng.randrange(0, 9), rng.randrange(0, 61),
                                 rng.randrange(0, 401)))
            w = random_letters(rng, len(g), length)
            if rng.random() < 0.3:
                a = random_letters(rng, len(g), rng.randrange(0, 41))
                w = a + w + invert_letters(a)
                wrapped += 1
            c = canon_letters(adj, w)
            assert c == canon_reference(adj, w) == _canon_heap(adj, w)
            assert canon_letters(adj, c) == c
            if len(w) <= 8:
                assert c == closure_canonical(adj, w)
                closures += 1
    assert closures >= 300 and wrapped >= 300


def _reduced_mixed_signs(rng, n, length):
    """A reduced word over the free-abelian graph on n generators: one
    sign per generator, letters in random order."""
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(signs[g - 1] * g
                 for g in (rng.randrange(1, n + 1) for _ in range(length)))


def test_one_pass_canon_falls_back_on_free_abelian_mixed_signs(monkeypatch):
    # every letter commutes, so each scan runs to the start of the word
    # or to its own generator, the budget runs out and the heap walk
    # starts over on the whole word, cancelling as it walks; the answer
    # is the exponent-sum form
    calls = _count_heap_walks(monkeypatch)
    rng = random.Random(1812)
    for n in (12, 40):
        adj = _free_abelian(n)._adj_idx
        for length in (80, 140, 260, 500, 1000, 3000):
            for w in (_reduced_mixed_signs(rng, n, length),
                      random_letters(rng, n, length)):
                want = []
                for i in range(1, n + 1):
                    e = sum(1 if x == i else -1 for x in w if abs(x) == i)
                    want += [i if e > 0 else -i] * abs(e)
                before = len(calls)
                assert canon_letters(adj, w) == tuple(want)
                assert calls[before:] == [len(w)]
                assert canon_reference(adj, w) == tuple(want)


def test_canon_heap_matches_the_references_on_unreduced_words():
    # the heap walk alone, cancelling as it walks, on seeded random
    # unreduced words over random graphs on 2-12 vertices, plain and
    # wrapped as a . b . a^-1, against reduce-then-linearise and, on
    # short words, the move closure; the free-abelian words that force
    # it are in test_one_pass_canon_falls_back_on_free_abelian_mixed_signs
    rng = random.Random(1901)
    closures = cancelled = 0
    for _ in range(150):
        g = random_graph(rng)
        adj = g._adj_idx
        for _ in range(12):
            length = rng.choice((rng.randrange(0, 9), rng.randrange(0, 121)))
            w = random_letters(rng, len(g), length)
            if rng.random() < 0.3:
                a = random_letters(rng, len(g), rng.randrange(0, 41))
                w = a + w + invert_letters(a)
            c = _canon_heap(adj, w)
            assert c == canon_reference(adj, w), (g.vertices, w)
            cancelled += len(c) < len(w)
            if len(w) <= 8:
                assert c == closure_canonical(adj, w)
                closures += 1
    assert closures >= 300 and cancelled >= 500
    # a^k b^k a^-k and its interleaved kin on the free-abelian pair: the
    # a letters cancel across b blocks, and the insertion scans pass
    # their budget, so canon_letters answers through the heap walk
    adj = AB._adj_idx
    for k in (100, 400, 1500):
        for w in ((1,) * k + (2,) * k + (-1,) * k,
                  (1, 2) * k + (-1,) * k + (2, -1) * k):
            assert _insert(adj, w) is None
            assert canon_letters(adj, w) == _canon_heap(adj, w) \
                == canon_reference(adj, w)


def test_minimal_form_of_a_long_cancelling_word_stays_fast():
    # the a letters cancel across a b block they commute with: a scan
    # back over the block for each cancellation is quadratic here (about
    # 20 s), and the heap walk that cancels as it walks is linear
    text = "a^20000 b^20000 a^-20000"
    start = time.perf_counter()
    assert str(minimal_form(AB, text)) == "b^20000"
    word = parse_word(text, AB)
    assert support(AB, word) == {"b"} and length(AB, word) == 20000
    assert time.perf_counter() - start < 2.0


def test_is_cyclically_minimal_matches_the_divisor_letter_reference():
    # random words conjugated by random words on the catalog and on
    # random graphs, and every word of up to three letters on the
    # catalog, against the test on left- and right-divisor letters
    rng = random.Random(1903)
    verdicts = set()
    for g, w in _core_cases(rng):
        want = is_cyclically_minimal_reference(
            g._adj_idx, canon_reference(g._adj_idx, w))
        assert is_cyclically_minimal(g, Word(g, w)) == want, (g.vertices, w)
        verdicts.add(want)
    for g in catalog().values():
        adj = g._adj_idx
        for n in range(4):
            for w in all_words(len(g), n):
                assert is_cyclically_minimal(g, Word(g, w)) \
                    == is_cyclically_minimal_reference(adj,
                                                       canon_reference(adj, w))
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# _peel: the early exit against testing every letter


class _CountedLetters(tuple):
    """A letter tuple that counts the letters its iterator hands out."""

    def __iter__(self):
        self.seen = 0
        for x in tuple.__iter__(self):
            self.seen += 1
            yield x


def _edgeless(n):
    return build_graph([f"v{i}" for i in range(n)], [])


def _free_abelian(n):
    names = [f"v{i}" for i in range(n)]
    return build_graph(names, list(itertools.combinations(names, 2)))


def test_peel_matches_the_reference():
    # seeded random graphs on 2-12 vertices, words of up to 60 letters,
    # reduced or not, against every subset size from empty to all; the
    # split of the canonical form against two reference peels, the core
    # linearised again
    rng = random.Random(1207)
    for _ in range(300):
        g = random_graph(rng)
        adj = g._adj_idx
        for _ in range(10):
            yidx = frozenset(rng.sample(range(1, len(g) + 1),
                                        rng.randrange(0, len(g) + 1)))
            w = random_letters(rng, len(g), rng.randrange(0, 61))
            for v in (w, reduce_letters(adj, w)):
                side, kept, hole = words._peel(adj, v, yidx)
                assert (side, kept, hole) == peel_reference(adj, v, yidx)
            c = canon_letters(adj, w)
            left, core, right = split_reference(adj, c, yidx)
            assert canonical_split(adj, c, yidx) == (
                list(left), lexmin_reference(adj, core), list(right))


def test_peel_stops_reading_after_one_kept_letter_on_edgeless_graphs():
    # nothing commutes, so no letter after the first kept one can peel
    rng = random.Random(1208)
    exits = 0
    for _ in range(200):
        g = _edgeless(rng.randrange(2, 13))
        adj = g._adj_idx
        yidx = frozenset(rng.sample(range(1, len(g) + 1),
                                    rng.randrange(1, len(g) + 1)))
        w = _CountedLetters(random_letters(rng, len(g), rng.randrange(1, 61)))
        side, kept, hole = words._peel(adj, w, yidx)
        seen = w.seen
        assert (side, kept, hole) == peel_reference(adj, w, yidx)
        if kept:
            assert seen == len(side) + 1
            exits += seen < len(w)
        else:
            assert seen == len(w)
    assert exits >= 100


def test_peel_reads_every_letter_on_free_abelian_graphs():
    # everything commutes, so a generator of yidx never leaves `free`
    rng = random.Random(1209)
    for _ in range(200):
        g = _free_abelian(rng.randrange(2, 13))
        adj = g._adj_idx
        yidx = frozenset(rng.sample(range(1, len(g) + 1),
                                    rng.randrange(1, len(g) + 1)))
        w = _CountedLetters(random_letters(rng, len(g), rng.randrange(0, 61)))
        side, kept, hole = words._peel(adj, w, yidx)
        assert w.seen == len(w)
        assert (side, kept, hole) == peel_reference(adj, w, yidx)
        assert sorted(side + kept) == sorted(w)
        assert all(abs(x) in yidx for x in side)


# Frozen dataclass twins of Word and NormalForm: the behaviour the
# slotted classes keep.
_DataWord = make_dataclass("Word", [("graph", object), ("idx", tuple)],
                           frozen=True)
_DataNormalForm = make_dataclass("NormalForm", [("word", object)], frozen=True)


def test_word_and_normal_form_keep_the_frozen_dataclass_behaviour():
    # slotted value classes: equality, hashing, repr and immutability as
    # the frozen dataclasses had them
    g, h = cycle_with_chord(5), plain_cycle(5)
    for graph, idx in ((g, ()), (g, (1, -2, 3)), (h, (1, -2, 3))):
        w, nf = Word(graph, idx), NormalForm(Word(graph, idx))
        dw = _DataWord(graph, idx)
        dnf = _DataNormalForm(dw)
        assert repr(w) == repr(dw) and repr(nf) == repr(dnf)
        assert hash(w) == hash(dw) and hash(nf) == hash(dnf)
        assert w == Word(graph, idx) and nf == NormalForm(Word(graph, idx))
        assert w != Word(graph, idx + (4,)) and w != Word(plain_cycle(6), idx)
        assert w != nf and nf != w and w != dw and w != (graph, idx)
        assert w.__eq__((graph, idx)) is NotImplemented
        assert len({w, Word(graph, idx)}) == 1
        for obj, name in ((w, "idx"), (w, "graph"), (w, "other"),
                          (nf, "word"), (nf, "other")):
            with pytest.raises(AttributeError):
                setattr(obj, name, ())
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert not hasattr(w, "__dict__") and not hasattr(nf, "__dict__")
        for twin in (copy.copy(nf), copy.deepcopy(nf),
                     pickle.loads(pickle.dumps(nf))):
            assert twin == nf and twin.idx == idx


def _twin(cls, names, frozen=True, **special):
    """The dataclass a value class stands in for, with the same name."""
    return make_dataclass(cls.__name__, [
        (n, object, special[n]) if n in special else (n, object)
        for n in names], frozen=frozen)


# Each value class and the dataclass it must behave as: field names,
# order, defaults and compare/repr flags, frozen or not.
_VALUE_TWINS = {
    HnnWord: _twin(HnnWord, ["graph", "t", "chunks", "exps", "u_idx"],
                   u_idx=field(compare=False, repr=False)),
    SigmaWord: _twin(SigmaWord, ["graph", "t", "units"]),
    UniquePositionSplit: _twin(UniquePositionSplit, ["a", "b", "rotation"]),
    ParabolicContext: _twin(ParabolicContext, ["graph", "subset"]),
    DoubleCosetRep: _twin(DoubleCosetRep, ["left", "core", "right"]),
    CyclicDecomposition: _twin(CyclicDecomposition, ["conjugator", "core"]),
    TheoremMainRecord: _twin(TheoremMainRecord, [
        "t", "lk_clique", "t_thick", "cyclically_t_thick", "not_in_star",
        "t_root", "verdict"], frozen=False),
    AmalgamRecord: _twin(AmalgamRecord, [
        "synchronised", "supp_clique", "supp_independent", "decomposition"],
        frozen=False),
    Conclusion: _twin(Conclusion, [
        "subset", "status", "justification", "witness"], frozen=False,
        witness=field(default=None)),
    FreiReport: _twin(FreiReport, [
        "graph", "s", "n", "per_t", "amalgam", "conclusions", "order_of_s",
        "word_problem", "conjugacy_problem", "advisories"], frozen=False,
        advisories=field(default_factory=list)),
    census.CensusRow: _twin(census.CensusRow, [
        "n", "d", "k", "enumerated", "formula", "mode", "seed", "samples",
        "rho_se"], frozen=False, mode=field(default="exhaustive"),
        seed=field(default=""), samples=field(default=0),
        rho_se=field(default=0.0)),
}


def _value_pairs():
    """Two instances of each value class, over one graph where a field
    holds a graph."""
    g = cycle_with_chord(5)
    hs = [hnn_factorize(g, "t", w) for w in ("a2 t a3 t", "a1 t a4 t^-1")]
    sigmas = [sigma(g, "t", h) for h in hs]
    reports = [magnus_verdict(g, "a1 a2 a3 t", 3),
               magnus_verdict(plain_cycle(5), "a1 a2 a3 t", 3)]
    plain = reports[1]
    plain.graph = g
    return {
        HnnWord: hs,
        SigmaWord: sigmas,
        UniquePositionSplit: [unique_position_factorization(s)
                              for s in (sigmas[0], sigma(g, "t", hnn_factorize(
                                  g, "t", "a2 t")))],
        ParabolicContext: [parabolic(g, {"a1", "a2"}), parabolic(g, {"t"})],
        DoubleCosetRep: [strip_divisors(parabolic(g, {"a1", "a2"}), w)
                         for w in ("a1 a3 t a2", "a2 a4 a1")],
        CyclicDecomposition: [cyclic_reduce(g, w)
                              for w in ("a3 a1 t a3^-1", "a2 t")],
        TheoremMainRecord: [r.per_t[0] for r in reports],
        AmalgamRecord: [magnus_verdict(g, w, 2).amalgam
                        for w in ("a1 a2", "a1 a3")],
        Conclusion: [reports[0].conclusions[0], plain.advisories[0]],
        FreiReport: reports,
        census.CensusRow: [census.census_row(5, 2, 1),
                           census.census_row(5, 1, 2, mode="sample",
                                             samples=5, seed=1)],
    }


def test_value_classes_keep_their_dataclass_behaviour():
    pairs = _value_pairs()
    assert set(pairs) == set(_VALUE_TWINS)
    for cls, (obj, other) in pairs.items():
        twin_cls = _VALUE_TWINS[cls]
        names = [f.name for f in fields(twin_cls)]
        frozen = twin_cls.__hash__ is not None
        args = [getattr(obj, n) for n in names]
        twin = twin_cls(*args)
        # repr, equality, hashing
        assert repr(obj) == repr(twin)
        assert obj == cls(*args) and obj != other and obj != twin
        assert obj.__eq__(twin) is NotImplemented
        if frozen:
            assert hash(obj) == hash(twin) == hash(cls(*args))
        else:
            with pytest.raises(TypeError):
                hash(obj)
        # assignment: refused on a frozen class, and beyond the fields
        for name in names + ["other"]:
            if frozen or name == "other":
                with pytest.raises(AttributeError):
                    setattr(obj, name, getattr(obj, name, None))
            if frozen:
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert not hasattr(obj, "__dict__")
        # copies keep every field, the hidden ones too
        for copied in (copy.copy(obj), copy.deepcopy(obj),
                       pickle.loads(pickle.dumps(obj))):
            assert copied == obj and copied.__class__ is cls
            assert [getattr(copied, n) for n in names] == args
        # dataclasses introspection
        assert is_dataclass(cls) and is_dataclass(obj)
        assert ([(f.name, f.compare, f.repr, f.default, f.default_factory)
                 for f in fields(obj)]
                == [(f.name, f.compare, f.repr, f.default, f.default_factory)
                    for f in fields(twin)])
        assert asdict(obj) == asdict(twin)
        assert replace(obj) == obj and replace(obj) is not obj
        for name in names:
            changed = replace(obj, **{name: getattr(other, name)})
            want = cls(*[getattr(other if n == name else obj, n)
                         for n in names])
            assert changed == want and repr(changed) == repr(want)
        if hasattr(copy, "replace"):  # Python 3.13
            change = {names[-1]: getattr(other, names[-1])}
            assert copy.replace(obj, **change) == replace(obj, **change)
        # defaults: the required fields alone, a fresh list each time
        required = [f for f in fields(twin_cls)
                    if f.default is f.default_factory]  # both MISSING
        least = args[:len(required)]
        assert repr(cls(*least)) == repr(twin_cls(*least))
        if cls is FreiReport:
            assert cls(*least).advisories is not cls(*least).advisories
    # field types are the annotations, as the dataclasses declared them
    assert [f.type for f in fields(HnnWord)] == [
        "CommutationGraph", "str", "tuple", "tuple", "frozenset"]
    assert [f.type for f in fields(TheoremMainRecord)][2:4] == [
        "bool | None", "bool | None"]
    assert fields(FreiReport)[6].type == "object"
    assert not is_dataclass(words._Frozen)
