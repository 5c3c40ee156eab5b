import random

import pytest

from pcgroups.cosets import (
    double_coset_rep,
    in_maln,
    oriented_symbol,
    parabolic,
    parabolic_member,
    strip_divisors,
)
from pcgroups.errors import NotAClique
from pcgroups.graphs import build_graph, cycle_with_chord
from pcgroups import cosets
from pcgroups.words import (
    _peel,
    canon_letters,
    equal,
    format_word,
    minimal_form,
    support,
    Word,
    word_from_idx,
)

from oracles import (
    all_words,
    left_divisor_reference,
    oriented_symbol_reference,
    random_graph,
    random_letters,
    right_divisor_reference,
    strip_divisors_reference,
)

C5P = cycle_with_chord(5)
U_CTX = parabolic(C5P, {"a1", "a4"})


def test_parabolic_member():
    g = build_graph(["a", "b"], [("a", "b")])
    assert parabolic_member(parabolic(g, {"a", "b"}), "a b^-1")
    assert not parabolic_member(parabolic(g, {"a"}), "a b a^-1")
    assert parabolic_member(parabolic(g, set()), "1")


def test_strip_divisors_basic():
    rep = strip_divisors(U_CTX, "a1 a2")
    assert (str(rep.left), str(rep.core), str(rep.right)) == ("a1", "a2", "1")


def test_strip_divisors_whole_word():
    rep = strip_divisors(U_CTX, "a4 a1^-2")
    assert str(rep.core) == "1"
    assert equal(C5P, "a4 a1^-2", str(rep.left) + " " + str(rep.right)
                 if str(rep.right) != "1" else str(rep.left))


def test_strip_divisors_left_greedy():
    rep = strip_divisors(U_CTX, "a2 a1")
    assert (str(rep.left), str(rep.core), str(rep.right)) == ("a1", "a2", "1")


def test_strip_divisors_roundtrip_lengths():
    for w in all_words(5, 4):
        word = word_from_idx(C5P, w)
        rep = strip_divisors(U_CTX, word)
        total = len(minimal_form(C5P, word))
        assert total == len(rep.left) + len(rep.core) + len(rep.right)
        recombined = rep.left.idx + rep.core.idx + rep.right.idx
        assert equal(C5P, word, word_from_idx(C5P, recombined))
        assert not (support(C5P, rep.core.word) <= {"a1", "a4"}) \
            or len(rep.core) == 0


def test_double_coset_rep_identity_cases():
    assert str(double_coset_rep(U_CTX, "a1 a4^-1")) == "1"
    assert str(double_coset_rep(U_CTX, "a1 a2 a4")) == "a2"


def test_double_coset_rep_inverse_closed():
    for w in all_words(5, 3):
        word = word_from_idx(C5P, w)
        d = double_coset_rep(U_CTX, word)
        d_inv = double_coset_rep(
            U_CTX, word_from_idx(C5P, tuple(-x for x in reversed(w))))
        assert equal(C5P, d_inv.word,
                     word_from_idx(C5P, tuple(-x for x in reversed(d.idx))))


def test_in_maln_examples():
    assert in_maln(C5P, {"a1", "a4"}, "a2 a3")
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert not in_maln(g, {"b"}, "a c")
    assert not in_maln(C5P, {"a1", "a4"}, "a1 a4^2")


def test_in_maln_requires_clique():
    with pytest.raises(NotAClique):
        in_maln(C5P, {"a1", "a3"}, "a2")
    with pytest.raises(NotAClique):
        in_maln(C5P, set(), "a2")


def test_in_maln_coset_stability():
    u_words = [(), (2,), (-5,), (2, 5)]  # 1, a1, a4^-1, a1 a4
    for w in all_words(5, 2):
        word = word_from_idx(C5P, w)
        if not in_maln(C5P, {"a1", "a4"}, word):
            continue
        for u in u_words:
            for v in u_words:
                assert in_maln(C5P, {"a1", "a4"}, word_from_idx(C5P, u + w + v))


def _u_ball(max_len):
    """Elements a4^x a1^y with |x| + |y| <= max_len as letter tuples."""
    out = []
    for x in range(-max_len, max_len + 1):
        for y in range(-max_len, max_len + 1):
            if abs(x) + abs(y) <= max_len:
                out.append((5,) * x if False else
                           tuple([5 if x > 0 else -5] * abs(x))
                           + tuple([2 if y > 0 else -2] * abs(y)))
    return out


def test_double_coset_invariance_small():
    u_ball = _u_ball(2)
    for w in all_words(5, 2):
        word = word_from_idx(C5P, w)
        d = double_coset_rep(U_CTX, word)
        for u in u_ball[:9]:
            for v in u_ball[:9]:
                other = word_from_idx(C5P, u + w + v)
                assert double_coset_rep(U_CTX, other).idx == d.idx


def test_strip_divisors_invariants_on_random_graphs():
    rng = random.Random(61)
    for _ in range(400):
        g = random_graph(rng)
        Y = set(rng.sample(g.vertices, rng.randrange(0, len(g) + 1)))
        yidx = {g.index(v) for v in Y}
        w = random_letters(rng, len(g), rng.randrange(0, 61))
        word = word_from_idx(g, w)
        rep = strip_divisors(parabolic(g, Y), word)
        assert support(g, rep.left.word) <= Y
        assert support(g, rep.right.word) <= Y
        core = rep.core.idx
        assert not any(abs(x) in yidx
                       for x in left_divisor_reference(g._adj_idx, core))
        assert not any(abs(x) in yidx
                       for x in right_divisor_reference(g._adj_idx, core))
        assert (len(rep.left) + len(rep.core) + len(rep.right)
                == len(minimal_form(g, word)))
        product = word_from_idx(g, rep.left.idx + core + rep.right.idx)
        assert equal(g, word, product)


def test_oriented_symbol_matches_comparing_whole_keys():
    # seeded random graphs on 2-12 vertices plus the edgeless and the
    # free-abelian graph, canonical cores of up to 60 letters and every
    # one-letter core
    rng = random.Random(67)
    names = [f"v{i}" for i in range(6)]
    graphs = [random_graph(rng) for _ in range(150)]
    graphs += [build_graph(names, []),
               build_graph(names, [(u, v) for i, u in enumerate(names)
                                   for v in names[i + 1:]])]
    signs = set()
    for g in graphs:
        adj = g._adj_idx
        for _ in range(20):
            core = canon_letters(adj, random_letters(
                rng, len(g), rng.randrange(0, 61)))
            got = oriented_symbol(adj, core)
            assert got == oriented_symbol_reference(adj, core)
            signs.add(got[1])
        for x in range(1, len(g) + 1):  # every one-letter core
            for core in ((x,), (-x,)):
                assert oriented_symbol(adj, core) == (
                    oriented_symbol_reference(adj, core))
    assert signs == {1, -1}


def test_strip_divisors_matches_the_always_lexmin_reference():
    # seeded random graphs and subsets, words of up to 80 letters given
    # as text, as a NormalForm and as a Word, against a reference that
    # linearises all three parts of the canonical form's split; every
    # input is split on its canonical letters, which skips the left and
    # (without an interior hole) the core linearising
    rng = random.Random(1816)
    holes = set()
    for _ in range(300):
        g = random_graph(rng)
        ctx = parabolic(g, rng.sample(g.vertices,
                                      rng.randrange(0, len(g) + 1)))
        w = random_letters(rng, len(g), rng.randrange(0, 81))
        word = Word(g, w)
        nf = minimal_form(g, word)
        want = strip_divisors_reference(ctx, word)
        for given in (format_word(word), nf, word):
            rep = strip_divisors(ctx, given)
            assert (rep.left.idx, rep.core.idx, rep.right.idx) == want
        holes.add(_peel(g._adj_idx, nf.idx, ctx.subset_idx)[2])
    assert holes == {True, False}


def test_oriented_symbol_builds_the_inverse_only_when_needed(monkeypatch):
    # core is the symbol without building core^-1 when every inverse of a
    # right-divisor letter comes after core[0]
    built = []
    canon = cosets.canon_letters

    def counted(adj, w):
        built.append(w)
        return canon(adj, w)

    monkeypatch.setattr(cosets, "canon_letters", counted)
    adj = C5P._adj_idx  # t, a1, a2, a3, a4 are 1..5
    # a1 a2: both letters are right divisors, and a1^-1, a2^-1 come
    # after a1
    assert oriented_symbol(adj, (2, 3)) == ((2, 3), 1)
    assert built == []
    # a3 a1^-1: the inverse starts with a1, before a3
    assert oriented_symbol(adj, (4, -2)) == ((2, -4), -1)
    # a1 a3 a1^-1: both start with a1, and a3 comes before a3^-1
    assert oriented_symbol(adj, (2, 4, -2)) == ((2, 4, -2), 1)
    assert built == [(2, -4), (2, -4, -2)]
