import itertools
import random
import time
from dataclasses import replace

import pytest

from pcgroups.cosets import (in_maln, oriented_symbol, parabolic,
                             parabolic_member)
from pcgroups.errors import (BadParameter, LinkNotClique, NoSplitFound,
                             PcgError)
from pcgroups.graphs import build_graph, cycle_with_chord, is_clique, plain_cycle
from pcgroups.hnn import (
    HnnWord,
    cyclically_reduce_units,
    hnn_factorize,
    is_cyclically_reduced_hnn,
    is_cyclically_t_thick,
    is_t_root,
    is_t_thick,
    sigma,
    smallest_period,
    t_length,
    unique_position_factorization,
)
from pcgroups import hnn, words
from pcgroups.words import (
    canon_letters,
    canonical_split,
    equal,
    invert_letters,
    minimal_form,
    parse_word,
    word_from_idx,
)

from oracles import (all_words, catalog, coset_symbol_reference,
                     cyclically_reduce_units_reference, is_t_root_reference,
                     lexmin_reference, random_graph, random_letters,
                     sigma_reference, split_reference)

C5P = cycle_with_chord(5)


def fact(text, g=C5P, t="t"):
    return hnn_factorize(g, t, parse_word(text, g))


def test_factorize_builds_canonical_chunks():
    # sigma and is_t_root read the chunks as canonical letter tuples and
    # do not check them: every chunk hnn_factorize builds, for every
    # choice of t, is a fixed point of canon_letters
    rng = random.Random(75)
    seen = 0
    for g in catalog().values():
        adj = g._adj_idx
        for _ in range(40):
            w = word_from_idx(g, random_letters(rng, len(g),
                                                rng.randrange(0, 40)))
            for t in g.vertices:
                for chunk in hnn_factorize(g, t, w).chunks:
                    assert canon_letters(adj, chunk) == chunk, (g, t, w)
                    seen += len(chunk) > 1
    assert seen > 1000


def test_factorize_pinches_through_link():
    h = fact("a2 t a1 t^-1")
    assert t_length(h) == 0
    assert equal(C5P, h.to_word(), "a2 a1")


def test_factorize_single_t():
    h = fact("t")
    assert h.chunks == ((), ()) and h.exps == (1,)
    assert t_length(h) == 1


def test_factorize_irreducible():
    h = fact("t a2 t^-1")
    assert t_length(h) == 2


def test_factorize_invariants_on_random_graphs():
    # chunks are canonical and the factorisation is reduced: no inner
    # chunk between opposite t-exponents lies in U = <lk(t)>
    rng = random.Random(62)
    for _ in range(400):
        g = random_graph(rng)
        t = rng.choice(g.vertices)
        u_idx = {g.index(v) for v in g.neighbours(t)}
        w = random_letters(rng, len(g), rng.randrange(0, 61))
        h = hnn_factorize(g, t, word_from_idx(g, w))
        # two factorisations of one word are equal, equally hashed and
        # equally printed
        again = hnn_factorize(g, t, word_from_idx(g, w))
        assert h == again and hash(h) == hash(again) and str(h) == str(again)
        assert len(h.chunks) == len(h.exps) + 1
        for chunk in h.chunks:
            assert canon_letters(g._adj_idx, chunk) == chunk
            assert g.index(t) not in {abs(x) for x in chunk}
        for i in range(1, len(h.exps)):
            if h.exps[i] == -h.exps[i - 1]:
                assert not all(abs(x) in u_idx for x in h.chunks[i])
        assert equal(g, h.to_word(), word_from_idx(g, w))


def test_t_length_examples():
    assert t_length(fact("t^3")) == 3
    assert t_length(fact("a2")) == 0
    assert t_length(fact("a2 t a3 t")) == 2


def test_t_length_is_class_function():
    rng = random.Random(5)
    letters = [s * i for i in range(1, 6) for s in (1, -1)]
    u_letters = [2, -2, 5, -5]  # a1, a4 generate the association subgroup
    for _ in range(200):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
        base = t_length(hnn_factorize(C5P, "t", word_from_idx(C5P, w)))
        pos = rng.randrange(0, len(w) + 1)
        u = tuple(rng.choice(u_letters) for _ in range(rng.randrange(0, 3)))
        eps = rng.choice((1, -1))
        stuffed = w[:pos] + (eps,) + u + (-eps,) + w[pos:]
        assert t_length(hnn_factorize(C5P, "t", word_from_idx(C5P, stuffed))) == base


def test_cyclically_reduced():
    assert not is_cyclically_reduced_hnn(C5P, "t", fact("t a2 t^-1"))
    assert is_cyclically_reduced_hnn(C5P, "t", fact("a2 t a3 t"))
    assert is_cyclically_reduced_hnn(C5P, "t", fact("a2 a3"))


def test_wrap_chunk_cancelling_across_a_long_commuting_block_stays_fast():
    # g_m g_0 = a^N c^N a^-N: the a letters cancel across the c block they
    # commute with and leave c^N in U = lk(t), a pinch of h.h.  A back-scan
    # walks the whole c block for each a^-1 (about 3.5 s at N = 8000).
    g = build_graph(["t", "a", "c"], [("a", "c"), ("t", "c")])
    for n in (3, 8000):
        h = fact(f"a^-{n} t a t^-1 a^{n} c^{n}", g)
        assert h.chunks[-1] == (2,) * n + (3,) * n and h.exps == (1, -1)
        start = time.perf_counter()
        assert not is_cyclically_reduced_hnn(g, "t", h)
        assert time.perf_counter() - start < 1.0


def test_sigma_strips_link_letters():
    sw = sigma(C5P, "t", fact("a1 a2 t a4 t"))
    assert str(sw) == "[a2] t t"
    assert len(sw) == 3


def test_sigma_of_link_element_is_empty():
    assert len(sigma(C5P, "t", fact("a1 a4^-2"))) == 0


def test_sigma_repeated_symbol():
    sw = sigma(C5P, "t", fact("a2 t a2 t"))
    assert str(sw) == "[a2] t [a2] t"


def test_sigma_orientation_pairs_inverses():
    sw_pos = sigma(C5P, "t", fact("a2 t"))
    sw_neg = sigma(C5P, "t", fact("a2^-1 t"))
    (sym1, e1), (sym2, e2) = sw_pos.units[0], sw_neg.units[0]
    assert sym1 == sym2 and e1 == -e2


def test_coset_symbol_matches_linearising_every_core():
    # canonical chunks on seeded random graphs, every t: the symbol sigma
    # gives a chunk, its canonical_split core oriented by oriented_symbol,
    # against a reference that linearises every U-core again;
    # canonical_split linearises a core again only after an interior hole
    # (a left letter that comes after a kept letter)
    rng = random.Random(31)
    cases = set()
    for g in [C5P, cycle_with_chord(7)] + [random_graph(rng) for _ in range(25)]:
        adj = g._adj_idx
        for t in range(1, len(g) + 1):
            u_idx = frozenset(adj[t])
            others = [i for i in range(1, len(g) + 1) if i != t]
            for _ in range(60):
                chunk = canon_letters(adj, tuple(
                    rng.choice(others) * rng.choice((1, -1))
                    for _ in range(rng.randint(0, 40))))
                left, core, right = canonical_split(adj, chunk, u_idx)
                assert (oriented_symbol(adj, core) if core else None) \
                    == coset_symbol_reference(adj, u_idx, chunk)
                parts = split_reference(adj, chunk, u_idx)
                # left is lex-least as peeled, right is left as it lies
                assert tuple(left) == lexmin_reference(adj, parts[0]) \
                    == parts[0]
                assert core == lexmin_reference(adj, parts[1])
                assert tuple(right) == parts[2]
                # only an interior hole can leave the core out of order
                hole = words._peel(adj, chunk, u_idx)[2]
                assert hole or core == parts[1]
                cases.add((hole, bool(left), bool(right), core == parts[1]))
    assert {(True, True, False, False), (False, True, False, True),
            (False, False, True, True)} <= cases


def test_thickness_examples():
    assert is_t_thick(C5P, "t", fact("a2 a3 t"))
    assert is_cyclically_t_thick(C5P, "t", fact("a2 a3 t"))
    assert is_t_thick(C5P, "t", fact("t^3"))
    assert not is_t_thick(C5P, "t", fact("a2 t"))  # a2 alone is not maln
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    h = hnn_factorize(g, "c", parse_word("a b c", g))
    assert not is_t_thick(g, "c", h)


def test_thickness_needs_clique_link():
    c5 = plain_cycle(5)
    with pytest.raises(LinkNotClique):
        is_t_thick(c5, "t", hnn_factorize(c5, "t", parse_word("a2 t", c5)))


def test_checks_refuse_a_t_other_than_the_factorisations():
    # each check answers for h.t alone: asked about a2, is_t_thick once
    # answered for t with True, where lk(a2) is no clique
    h = fact("a2 a3 t")
    checks = (is_t_thick, is_t_root, is_cyclically_reduced_hnn,
              is_cyclically_t_thick, sigma)
    for check in checks:
        check(C5P, "t", h)
        with pytest.raises(BadParameter):
            check(C5P, "a2", h)


def _answers(g, t, h):
    """What each check answers on h, or the class of the error it raises."""
    out = []
    for check in (is_t_thick, is_cyclically_t_thick, is_t_root, sigma,
                  is_cyclically_reduced_hnn):
        try:
            out.append(check(g, t, h))
        except PcgError as exc:
            out.append(exc.__class__)
    return out


def test_equal_factorisations_give_equal_answers():
    # an HnnWord is its four fields: one built along another generator
    # t2 and given h's t, chunks and exps equals h, and every check gives
    # it h's answer.  C'5, w = a2 a3 t a1 a4 along a2: lk(a2) = {t, a3}
    # is no clique, and the core of the chunk a4 is read against it
    g = C5P
    w = parse_word("a2 a3 t a1 a4", g)
    h = hnn_factorize(g, "a2", w)
    other = replace(hnn_factorize(g, "t", w), t="a2", chunks=h.chunks,
                    exps=h.exps)
    assert other == h and hash(other) == hash(h)
    with pytest.raises(LinkNotClique):
        is_t_thick(g, "a2", other)
    assert str(sigma(g, "a2", other)) == str(sigma(g, "a2", h)) == "a2 [t a4]"
    rng = random.Random(34)
    answers = set()
    for g in catalog().values():
        for _ in range(25):
            w = word_from_idx(g, random_letters(rng, len(g),
                                                rng.randrange(0, 16)))
            for t, t2 in itertools.permutations(g.vertices, 2):
                h = hnn_factorize(g, t, w)
                assert HnnWord(g, t, h.chunks, h.exps) == h
                other = replace(hnn_factorize(g, t2, w), t=t,
                                chunks=h.chunks, exps=h.exps)
                assert other == h and hash(other) == hash(h)
                want = _answers(g, t, h)
                assert _answers(g, t, other) == want, (g, t, t2, w)
                answers.add(want[0])
    assert answers == {True, False, LinkNotClique}


def test_thickness_empty_link():
    g = build_graph(["a", "b"], [])
    h = hnn_factorize(g, "a", parse_word("b a", g))
    assert is_t_thick(g, "a", h)
    assert is_cyclically_t_thick(g, "a", h)


def test_thickness_matches_the_parabolic_and_maln_tests():
    # thickness reads supports; the reference asks cosets about each chunk
    # as a word, and the wrap chunk g_m g_0 as the unreduced concatenation
    rng = random.Random(64)
    for _ in range(300):
        g = random_graph(rng, 8)
        t = rng.choice(g.vertices)
        lk_t = g.neighbours(t)
        u = parabolic(g, lk_t)
        h = hnn_factorize(g, t, word_from_idx(
            g, random_letters(rng, len(g), rng.randrange(0, 25))))
        wrap = word_from_idx(g, h.chunks[-1] + h.chunks[0])
        reduced = (len(h.exps) <= 1 or h.exps[-1] == h.exps[0]
                   or not parabolic_member(u, wrap))
        assert is_cyclically_reduced_hnn(g, t, h) == reduced
        if not is_clique(g, lk_t):
            continue

        def thick(w):
            return not lk_t or parabolic_member(u, w) or in_maln(g, lk_t, w)

        expect = all(thick(word_from_idx(g, c)) for c in h.chunks)
        assert is_t_thick(g, t, h) == expect
        assert is_cyclically_t_thick(g, t, h) == (
            expect and reduced and (not h.exps or thick(wrap)))


def test_t_root_examples():
    assert not is_t_root(C5P, "t", fact("a2 t a2 t"))
    assert is_t_root(C5P, "t", fact("a2 t a3 t"))
    assert is_t_root(C5P, "t", fact("a2 t"))
    assert not is_t_root(C5P, "t", fact("t^2"))
    assert is_t_root(C5P, "t", fact("a2"))


def _hand_built(g, t, chunks, exps):
    """An HnnWord as given, reduced or not; hnn_factorize never makes a
    pinch, so these reach the paths it cannot."""
    return HnnWord(g, t, tuple(tuple(c) for c in chunks), tuple(exps))


def test_t_root_reads_the_exponents_only_where_they_decide():
    # C'5: lk(t) = {a1, a4}; a2 and a3 lie outside it
    t, a1, a2, a3 = 1, 2, 3, 4
    cases = {
        # t a1 t^-1 . t a2 t a2: the pinch t a1 t^-1 cancels in sigma,
        # which is then (t [a2])^2, although e_1 = e_m and the
        # exponents (1, -1, 1, 1) are primitive
        "pinch": (((), (a1,), (), (a2,), (a2,)), (1, -1, 1, 1), False),
        # t^-1 (a3 t)^2 t: the end t-letters cancel cyclically, leaving
        # ([a3] t)^2, although (-1, 1, 1, 1) is primitive
        "e_1 != e_m": (((), (a3,), (a3,), (), ()), (-1, 1, 1, 1), False),
        "e_1 != e_m, a root": (((a2,), (a3,), (-a2,)), (1, -1), True),
        "m = 0": (((a2, a3),), (), True),
        "m = 0, empty": (((),), (), True),
        "m = 1": (((a3,), (a2,)), (1,), True),
        "m = 1 in U": (((a1,), ()), (-1,), True),
        "exps a power, a root": (((a2,), (a3,), (-a2,)), (1, 1), True),
        "power": (((a2,), (a2,), ()), (1, 1), False),
    }
    for name, (chunks, exps, want) in cases.items():
        h = _hand_built(C5P, "t", chunks, exps)
        assert is_t_root_reference(C5P, "t", h) == want, name
        assert is_t_root(C5P, "t", h) == want, name


def test_t_root_matches_the_symbol_reference_on_random_words():
    # each word w comes with its powers w^2 and w^3, whose sigma is a
    # proper power unless it is trivial, and a conjugate u^-1 w u, whose
    # sigma has inverse end pairs to strip; a random w alone is almost
    # always a t-root with nothing to strip
    rng = random.Random(37)
    rng_u = random.Random(38)  # the words w stay those of rng alone
    answers, stripped = set(), 0
    for g in [C5P, cycle_with_chord(6)] + [random_graph(rng) for _ in range(15)]:
        for t in g.vertices:
            for _ in range(30):
                w = random_letters(rng, len(g), rng.randint(0, 14))
                u = random_letters(rng_u, len(g), rng_u.randint(1, 4))
                for x in (w, w * 2, w * 3, invert_letters(u) + w + u):
                    h = hnn_factorize(g, t, word_from_idx(g, x))
                    want = is_t_root_reference(g, t, h)
                    assert is_t_root(g, t, h) == want, (g, t, x)
                    answers.add(want)
                    units = sigma(g, t, h).units
                    assert units == sigma_reference(g, t, h), (g, t, x)
                    stripped += len(cyclically_reduce_units(units)) < len(units)
    assert answers == {True, False} and stripped > 100


def test_sigma_matches_the_symbol_reference_on_hand_built_words():
    # hnn_factorize never makes a pinch t^e u t^-e (u in U): its t-units
    # cancel in sigma, and the cores around it meet, as in
    # a2 t a1 t^-1 a2^-1, whose sigma is empty
    t, a1, a2, a3 = 1, 2, 3, 4
    cases = {
        "cores cancel": (((a2,), (a1,), (-a2,)), (1, -1), "1"),
        "empty pinch": (((a2, a3), (), (-a2, -a3)), (-1, 1), "1"),
        "U between t^-1 and t": (((a3,), (a1, a1), (a3,)), (-1, 1),
                                  "[a3] [a3]"),
        "pinch in a pinch": (((a2,), (a3,), (a1,), (-a3,), (a3,)),
                             (1, 1, -1, -1), "[a2] [a3]"),
    }
    for name, (chunks, exps, want) in cases.items():
        h = _hand_built(C5P, "t", chunks, exps)
        assert sigma(C5P, "t", h).units == sigma_reference(C5P, "t", h), name
        assert str(sigma(C5P, "t", h)) == want, name
    # random chunks from two cores and their inverses, each between random
    # U-elements, so cores that meet across a pinch often cancel
    rng = random.Random(43)
    met = 0
    for g in [C5P, cycle_with_chord(6)] + [random_graph(rng) for _ in range(10)]:
        adj = g._adj_idx
        for t in g.vertices:
            t_idx = g.index(t)
            u_idx = frozenset(adj[t_idx])
            u_letters = [s * i for i in u_idx for s in (1, -1)]
            others = [s * i for i in range(1, len(g) + 1) if i != t_idx
                      for s in (1, -1)]
            cores = [tuple(rng.choice(others) for _ in range(rng.randint(1, 3)))
                     for _ in range(2)]
            cores += [invert_letters(c) for c in cores]

            def u_element():
                return tuple(rng.choice(u_letters) for _ in range(
                    rng.randint(0, 2) if u_letters else 0))

            for _ in range(30):
                m = rng.randint(0, 8)
                chunks = [canon_letters(adj, u_element() + (
                    rng.choice(cores) if rng.random() < 0.6 else ())
                    + u_element()) for _ in range(m + 1)]
                exps = [rng.choice((1, -1)) for _ in range(m)]
                h = _hand_built(g, t, chunks, exps)
                want = sigma_reference(g, t, h)
                assert sigma(g, t, h).units == want, (g, t, chunks, exps)
                assert is_t_root(g, t, h) == is_t_root_reference(g, t, h)
                cores_in = sum(coset_symbol_reference(adj, u_idx, c) is not None
                               for c in chunks)
                met += sum(sym is not None for sym, _ in want) < cores_in
    assert met > 100


def test_sigma_orients_each_surviving_core_once(monkeypatch):
    # [a2 a3] (t a1 t^-1 [a2 a3])^N [a2 a3]^-1, each t a1 t^-1 a pinch:
    # sigma is [a2 a3]^(N - 1).  Orienting every chunk before the free
    # reduction made N + 1 oriented_symbol calls; is_t_root orients none
    t, a1, a2, a3 = 1, 2, 3, 4
    n = 20000
    h = _hand_built(C5P, "t", ((a2, a3), (a1,)) * n + ((-a2, -a3),),
                    (1, -1) * n)
    real, calls = hnn.oriented_symbol, []

    def counting(adj, core):
        calls.append(core)
        return real(adj, core)

    monkeypatch.setattr(hnn, "oriented_symbol", counting)
    start = time.perf_counter()
    units = sigma(C5P, "t", h).units
    assert time.perf_counter() - start < 1.0
    assert units == (((a2, a3), 1),) * (n - 1)
    assert len(calls) == n - 1
    calls.clear()
    start = time.perf_counter()
    assert not is_t_root(C5P, "t", h)
    assert time.perf_counter() - start < 1.0
    assert not calls


def test_cyclically_reduce_units_strips_each_inverse_end_pair():
    rng = random.Random(39)
    syms = [None, (1,), (2, 3)]
    for _ in range(2000):
        half = [(rng.choice(syms), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 5))]
        mid = [(rng.choice(syms), rng.choice((1, -1)))
               for _ in range(rng.randint(0, 3))]
        units = tuple(half + mid + [(s, -e) for s, e in reversed(half)])
        assert cyclically_reduce_units(units) == \
            cyclically_reduce_units_reference(units)
    long = ((None, 1),) * 20000 + ((None, -1),) * 20000
    assert cyclically_reduce_units(long) == ()


def test_smallest_period_matches_the_rotations():
    rng = random.Random(41)
    for _ in range(3000):
        n = rng.randint(0, 12)
        if rng.random() < 0.5:  # periodic, up to a cut
            base = [rng.choice("ab") for _ in range(rng.randint(1, 4))]
            seq = tuple((base * 12)[:n])
        else:
            seq = tuple(rng.choice("ab") for _ in range(n))
        want = next((p for p in range(1, n)
                     if n % p == 0 and seq == seq[p:] + seq[:p]), n)
        assert smallest_period(seq) == smallest_period(list(seq)) == want


def test_t_root_constructed_powers_fail():
    pieces = ["a2 t", "a3 t^-1", "a2 a3 t", "a3^2 t"]
    for piece, k in itertools.product(pieces, (2, 3)):
        word = " ".join([piece] * k)
        assert not is_t_root(C5P, "t", fact(word))


def test_t_root_means_no_proper_power():
    # cyclically reduced, ends in a t-letter, positive t-length, t-root:
    # then no proper power expression exists in the whole group
    for text in ("a2 t", "a2 t a3 t", "a3 t^-1", "a2 a3 t"):
        h = fact(text)
        assert h.chunks[-1] == () and is_t_root(C5P, "t", h)
        target = minimal_form(C5P, text).idx
        for j in (2, 3):
            if len(target) % j:
                continue
            for cand in all_words(5, len(target) // j):
                assert minimal_form(
                    C5P, word_from_idx(C5P, cand * j)).idx != target


def test_sigma_u_conjugation_rotation_stability():
    u_ball = [(), (2,), (-2,), (5,), (-5,), (2, 5), (2, -5)]
    for text in ("a2 t a3 t", "a2 a3 t", "a2 t a3 t^-1"):
        h = fact(text)
        base_units = sigma(C5P, "t", h).units
        rotations = {base_units[i:] + base_units[:i]
                     for i in range(len(base_units))}
        word = h.to_word().idx
        # rotate the word at t-boundaries, then conjugate by link elements
        cuts = [i + 1 for i, x in enumerate(word) if abs(x) == 1]
        for cut in cuts:
            rotated = word[cut:] + word[:cut]
            for u in u_ball:
                conj = tuple(-x for x in reversed(u)) + rotated + u
                sw = sigma(C5P, "t",
                           hnn_factorize(C5P, "t", word_from_idx(C5P, conj)))
                assert sw.units in rotations


def test_periodic_position_property():
    # cyclically reduced t-thick t-roots ending in t: rotations of s^n
    # with equal sigma images are equal in the group, and common prefixes
    # leave equal residues
    roots = ["a2 a3 t", "a2 a3 t a2^2 a3 t", "a2 a3 t^-1 a2^2 a3 t^-1",
             "a2 a3 t a2 a3 t^-1"]
    qualified = 0
    for text in roots:
        h = fact(text)
        assert h.chunks[-1] == ()
        if not (is_cyclically_t_thick(C5P, "t", h)
                and is_t_root(C5P, "t", h)):
            continue
        qualified += 1
        for n in (1, 2, 3):
            word = minimal_form(C5P, " ".join([text] * n)).idx
            rots = [word[i:] + word[:i] for i in range(len(word))]
            sigmas = [sigma(C5P, "t",
                            hnn_factorize(C5P, "t", word_from_idx(C5P, r))).units
                      for r in rots]
            for i, j in itertools.combinations(range(len(rots)), 2):
                if sigmas[i] != sigmas[j]:
                    continue
                assert equal(C5P, word_from_idx(C5P, rots[i]),
                             word_from_idx(C5P, rots[j]))
                for cut in range(len(word)):
                    if rots[i][:cut] == rots[j][:cut]:
                        assert equal(C5P, word_from_idx(C5P, rots[i][cut:]),
                                     word_from_idx(C5P, rots[j][cut:]))
    assert qualified >= 3


def test_unique_position_split_two_symbols():
    split = unique_position_factorization(sigma(C5P, "t", fact("a2 t a3 t")))
    assert str(split.a) == "[a2] t" and str(split.b) == "[a3] t"


def test_unique_position_split_short():
    split = unique_position_factorization(sigma(C5P, "t", fact("a2 t")))
    assert str(split.a) == "[a2]" and str(split.b) == "t"


def test_unique_position_rejects_powers():
    with pytest.raises(NoSplitFound):
        unique_position_factorization(sigma(C5P, "t", fact("a2 t a2 t")))


def test_unique_position_exists_for_all_small_roots():
    # every primitive sigma image of a composed word admits a split into
    # two nonempty uniquely positioned cyclic subwords
    from oracles import iter_strict_composed

    found = 0
    for stratum, letters in iter_strict_composed(5, 2, 2):
        if stratum != "L2":
            continue
        h = hnn_factorize(C5P, "t", word_from_idx(C5P, letters))
        sw = sigma(C5P, "t", h)
        if len(sw) < 2 or not is_t_root(C5P, "t", h):
            continue
        split = unique_position_factorization(sw)
        found += 1
        units = sw.units
        rot = units[split.rotation:] + units[:split.rotation]
        assert split.a.units and split.b.units
        assert split.a.units + split.b.units == rot
        # uniqueness: the parts occur exactly once in the cyclic root
        n = len(units)
        for part in (split.a.units, split.b.units):
            hits = sum(all(units[(off + i) % n] == part[i]
                           for i in range(len(part))) for off in range(n))
            assert hits == 1
    assert found > 2500
