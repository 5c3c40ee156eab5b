import ast
import json
import random
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcgroups import freiheitssatz, hnn, words
from pcgroups.errors import (BadParameter, LinkNotClique, NotCyclicallyMinimal,
                             TNotInSupport)
from pcgroups.freiheitssatz import (
    DECIDABLE,
    DOES_NOT_EMBED,
    EMBEDS,
    RESTRICTED_EMBEDS,
    UNKNOWN,
    AmalgamRecord,
    Conclusion,
    FreiReport,
    TheoremMainRecord,
    check_amalgam,
    check_theorem_main,
    magnus_verdict,
)
from pcgroups.graphs import (CommutationGraph, build_graph, central_vertices,
                             cycle_with_chord, is_synchronised, link,
                             plain_cycle, star)
from pcgroups.hnn import hnn_factorize, is_cyclically_t_thick, is_t_thick
from pcgroups.words import (NormalForm, Word, cyclic_reduce, equal,
                            format_word, invert_letters,
                            is_cyclically_minimal, minimal_form, support)
from oracles import catalog, is_t_root_reference, random_graph
from test_golden import _verdict_graphs as golden_verdict_graphs
from test_golden import verdict_cases as golden_verdict_cases

P4 = build_graph(["a", "b", "c", "t"], [("t", "a"), ("a", "b"), ("b", "c")])
F2XZ = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
C5P = cycle_with_chord(5)


def conclusion(report, subset):
    c = report.conclusion_for(subset)
    assert c is not None, f"no conclusion for {subset}"
    return c


def test_path_graph_relator():
    report = magnus_verdict(P4, "c t", 3)
    c = conclusion(report, ("a", "b", "c"))
    assert c.status == EMBEDS and "theorem_main" in c.justification
    assert report.order_of_s == 3
    assert report.word_problem == "unknown"  # n = 3 < 4


def test_chorded_cycle_relator():
    report = magnus_verdict(C5P, "a2 a3 t", 3)
    rec = next(r for r in report.per_t if r.t == "t")
    assert rec.lk_clique and rec.t_thick and rec.cyclically_t_thick
    assert rec.not_in_star and rec.t_root and rec.verdict == EMBEDS
    assert conclusion(report, ("a1", "a2", "a3", "a4")).status == EMBEDS
    assert report.order_of_s == 3
    for other in ("a2", "a3"):
        rec = next(r for r in report.per_t if r.t == other)
        assert not rec.lk_clique and rec.verdict == UNKNOWN
    assert report.word_problem == "unknown"

    report4 = magnus_verdict(C5P, "a2 a3 t", 4)
    assert report4.word_problem == DECIDABLE
    assert report4.order_of_s == 4


def test_not_thick_candidate():
    rec = check_theorem_main(F2XZ, "a b c", "c", 3)
    assert rec.lk_clique and rec.t_thick is False
    assert rec.verdict == UNKNOWN
    report = magnus_verdict(F2XZ, "a b c", 3)
    assert all(c.status == UNKNOWN for c in report.conclusions)
    assert report.order_of_s == "unknown"


def test_chorded_square_synchronised_clique():
    g = catalog()["C4'"]
    report = magnus_verdict(g, "a c", 2)
    assert report.amalgam.synchronised and report.amalgam.supp_clique
    assert report.amalgam.decomposition == {
        "Y": ["a", "c"], "lk_Y": ["b", "d"], "X": []}
    for t in ("a", "c"):
        subset = tuple(v for v in g.vertices if v != t)
        c = conclusion(report, subset)
        assert c.status == EMBEDS and "corollary_clique" in c.justification
    assert report.order_of_s == 2
    assert report.word_problem == DECIDABLE
    assert report.conjugacy_problem == DECIDABLE


def test_square_synchronised_independent():
    g = catalog()["C4"]
    report = magnus_verdict(g, "b d", 1)
    assert report.amalgam.synchronised
    assert report.amalgam.supp_independent and not report.amalgam.supp_clique
    for t in ("b", "d"):
        subset = tuple(v for v in g.vertices if v != t)
        c = conclusion(report, subset)
        assert c.status == EMBEDS and "corollary_independent" in c.justification
    assert report.order_of_s == 1
    assert report.word_problem == DECIDABLE
    assert report.conjugacy_problem == "unknown"  # n = 1

    report2 = magnus_verdict(g, "b d", 2)
    assert report2.conjugacy_problem == DECIDABLE


def test_clique_converse_witness():
    g = build_graph(["a", "t", "x", "b"],
                    [("a", "t"), ("a", "b"), ("x", "t")])
    report = magnus_verdict(g, "a t", 2)
    c = conclusion(report, ("a", "x", "b"))
    assert c.status == DOES_NOT_EMBED
    assert "corollary_clique_converse" in c.justification
    w = c.witness
    assert w["t"] == "t" and w["x"] == "x" and w["a"] == "a"
    # witness data re-checkable from the graph alone
    from pcgroups.graphs import link
    supp = {"a", "t"}
    assert w["x"] not in supp | link(g, supp)
    assert g.adjacent(w["x"], w["t"])
    assert not g.adjacent(w["x"], w["a"])
    assert w["relation"] == "[x, a^2]"
    # the candidate t=a has its own witness x=b, so that side fails too
    other = conclusion(report, ("t", "x", "b"))
    assert other.status == DOES_NOT_EMBED
    assert other.witness == {"t": "a", "x": "b", "a": "t",
                             "relation": "[b, t^2]"}


def test_single_letter_relator():
    report = magnus_verdict(C5P, "t", 5)
    rec = report.per_t[0]
    assert not rec.not_in_star and rec.verdict == UNKNOWN
    # singleton supports are synchronised cliques
    c = conclusion(report, ("a1", "a2", "a3", "a4"))
    assert c.status == EMBEDS and "corollary_clique" in c.justification
    assert report.order_of_s == 5
    assert report.conjugacy_problem == DECIDABLE


def test_free_group_empty_link():
    g = build_graph(["a", "b"], [])
    report = magnus_verdict(g, "a b", 3)
    for t in ("a", "b"):
        rec = next(r for r in report.per_t if r.t == t)
        assert rec.lk_clique and rec.t_thick and rec.verdict == EMBEDS
    assert conclusion(report, ("b",)).status == EMBEDS
    assert report.order_of_s == 3


def test_requires_cyclically_minimal():
    with pytest.raises(NotCyclicallyMinimal):
        magnus_verdict(P4, "a c a^-1", 3)
    with pytest.raises(TNotInSupport):
        check_theorem_main(P4, "c t", "b", 3)


def test_exponent_must_be_positive():
    for n in (0, -3):
        with pytest.raises(BadParameter):
            magnus_verdict(P4, "c t", n)
        with pytest.raises(BadParameter):
            check_theorem_main(P4, "c t", "t", n)
        with pytest.raises(BadParameter):
            check_amalgam(P4, "c t", n)
    assert magnus_verdict(P4, "c t", 1).n == 1


def test_amalgam_trivial_part_embeds():
    # synchronised support {a,b,c}, neither clique nor independent; the
    # generators away from the support still embed
    g = build_graph(["a", "b", "c", "z", "w"],
                    [("a", "b"), ("a", "z"), ("b", "z"), ("c", "z"),
                     ("z", "w")])
    rec, conclusions, order, wp, cp = check_amalgam(g, "a b c", 1)
    assert rec.synchronised and not rec.supp_clique \
        and not rec.supp_independent
    assert rec.decomposition == {"Y": ["a", "b", "c"], "lk_Y": ["z"],
                                 "X": ["w"]}
    assert any(c.subset == ("z", "w") and c.status == EMBEDS
               for c in conclusions)
    assert order is None and wp is None and cp is None


def test_centre_reduction_agrees_with_direct_factor():
    # z is central: the group splits off its centre, verdicts must match
    # the ones computed on the complement
    g = build_graph(["a", "b", "z"], [("a", "z"), ("b", "z")])
    g0 = build_graph(["a", "b"], [])
    report = magnus_verdict(g, "a b", 3)
    report0 = magnus_verdict(g0, "a b", 3)
    for t in ("a", "b"):
        lifted = conclusion(report, tuple(v for v in g.vertices if v != t))
        base = conclusion(report0, tuple(v for v in g0.vertices if v != t))
        assert lifted.status == base.status == EMBEDS
        assert "centre_split" in lifted.justification
    assert report.order_of_s == report0.order_of_s == 3
    assert report.word_problem == report0.word_problem


def test_verdicts_invariant_under_relabelling():
    rng = random.Random(17)
    g = C5P
    base = magnus_verdict(g, "a2 a3 t", 3)
    base_map = {frozenset(c.subset): c.status for c in base.conclusions}
    for _ in range(5):
        names = list(g.vertices)
        perm = names[:]
        rng.shuffle(perm)
        rename = dict(zip(names, perm))
        g2 = build_graph(sorted(perm, key=lambda v: rng.random()),
                         [(rename[u], rename[v]) for (u, v) in map(tuple, g.edges)])
        s2 = " ".join(rename[x] for x in ("a2", "a3", "t"))
        report = magnus_verdict(g2, s2, 3)
        got = {frozenset(rename[v] for v in key): status
               for key, status in base_map.items()}
        theirs = {frozenset(c.subset): c.status for c in report.conclusions}
        assert got == theirs
        assert report.order_of_s == base.order_of_s


def test_cycle_chord_advisory():
    c5 = plain_cycle(5)
    report = magnus_verdict(c5, "a2 a3 t", 3)
    # the main theorem does not apply (link of t is no clique) ...
    rec = next(r for r in report.per_t if r.t == "t")
    assert not rec.lk_clique
    assert conclusion(report, ("a1", "a2", "a3", "a4")).status == UNKNOWN
    # ... but the chord reduction still embeds the inner chain
    assert any(c.status == RESTRICTED_EMBEDS and set(c.subset) == {"a2", "a3"}
               for c in report.advisories)


# The JSON keys of each record of a report, in order.
KEY_ORDER = {
    "report": ["s", "n", "per_t", "amalgam", "conclusions", "order_of_s",
               "word_problem", "conjugacy_problem"],
    "per_t": ["t", "lk_clique", "t_thick", "cyclically_t_thick",
              "not_in_star", "t_root", "verdict"],
    "amalgam": ["synchronised", "supp_clique", "supp_independent",
                "decomposition"],
    "decomposition": ["Y", "lk_Y", "X"],
    "conclusion": ["subset", "status", "justification"],
}


def _key_orders(data):
    """The key lists of every object of a report's JSON, by record."""
    yield "report", list(data)
    for rec in data["per_t"]:
        yield "per_t", list(rec)
    yield "amalgam", list(data["amalgam"])
    if data["amalgam"]["decomposition"] is not None:
        yield "decomposition", list(data["amalgam"]["decomposition"])
    for c in data["conclusions"]:
        yield "conclusion", list(c)


def test_json_schema_fields():
    report = magnus_verdict(C5P, "a2 a3 t", 3)
    data = json.loads(report.to_json())
    assert data["s"] == "a2 a3 t"
    seen = set()
    for record, keys in _key_orders(data):
        assert keys == KEY_ORDER[record], record
        seen.add(record)
    assert seen == set(KEY_ORDER) - {"decomposition"}


def _centred(g):
    """g with a vertex z adjacent to every vertex: a central generator."""
    return build_graph(list(g.vertices) + ["z"], [tuple(e) for e in g.edges]
                       + [(v, "z") for v in g.vertices])


def _verdict_graphs():
    """The catalog, C'6, C'5 with a central vertex z, and seeded random
    graphs: every route of magnus_verdict runs on some of them."""
    rng = random.Random(41)
    graphs = list(catalog().values()) + [cycle_with_chord(6), _centred(C5P)]
    graphs += [random_graph(rng, 8) for _ in range(6)]
    return graphs


def _random_root(g, rng):
    names = [v for v in g.vertices if v != "z"]
    w = " ".join(rng.choice(names) + rng.choice(("", "^-1"))
                 for _ in range(rng.randint(1, 10)))
    return cyclic_reduce(g, w).core


def _scrambled(g, nf, rng):
    """Text of the element of nf with cancelling pairs inserted and
    commuting neighbours swapped: neither reduced nor canonical."""
    letters = list(nf.idx)
    for _ in range(3):
        x = rng.randint(1, len(g)) * rng.choice((1, -1))
        p = rng.randint(0, len(letters))
        letters[p:p] = [x, -x]
    for _ in range(2 * len(letters)):
        i = rng.randrange(len(letters) - 1)
        if abs(letters[i + 1]) in g._adj_idx[abs(letters[i])]:
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
    return format_word(Word(g, tuple(letters)))


def test_verdict_is_the_same_for_every_form_of_the_root():
    rng = random.Random(43)
    for g in _verdict_graphs():
        for _ in range(6):
            nf = _random_root(g, rng)
            n = rng.randint(1, 4)
            reports = [magnus_verdict(g, root, n)
                       for root in (str(nf), _scrambled(g, nf, rng), nf)]
            assert len({r.to_json() for r in reports}) == 1
            assert len({r.to_text() for r in reports}) == 1


def test_theorem_main_thickness_flags_match_the_public_tests():
    # the per-t report reads both flags from one test of the chunks; a
    # cyclically minimal root is never thick but not cyclically thick
    rng = random.Random(53)
    seen = set()
    for g in _verdict_graphs():
        for _ in range(12):
            nf = _random_root(g, rng)
            for t in support(g, nf):
                rec = check_theorem_main(g, nf, t, 3)
                flags = (rec.t_thick, rec.cyclically_t_thick)
                if rec.lk_clique:
                    h = hnn_factorize(g, t, nf)
                    assert flags == (is_t_thick(g, t, h),
                                     is_cyclically_t_thick(g, t, h))
                seen.add(flags)
    assert seen == {(True, True), (False, False), (None, None)}


def test_one_canonical_form_per_graph_per_verdict(monkeypatch):
    # the root is canonicalised once over g and at most once over each
    # chorded graph (not when the chord screen rejects it first); every
    # layer below takes that NormalForm as it is
    real = words.canon_letters
    calls = []  # holds each adjacency, so no id is reused during the test
    # canon_letters also linearises the geodesic pieces these callers
    # cut from a canonical form (cores, their inverses, right divisors);
    # such a call does not canonicalise the root (hnn._inverse builds the
    # canonical inverse of a U-core that sigma and is_t_root compare)
    pieces = {"canonical_split", "oriented_symbol", "cyclic_core_letters",
              "block_decomposition", "strip_divisors", "_inverse"}

    def counting(adj, w):
        if sys._getframe(1).f_code.co_name not in pieces:
            calls.append(adj)
        return real(adj, w)

    for name, mod in list(sys.modules.items()):
        if name == "pcgroups" or name.startswith("pcgroups."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    rng = random.Random(47)
    for g in _verdict_graphs() + [plain_cycle(5), plain_cycle(6)]:
        for _ in range(4):
            root = str(_random_root(g, rng))
            words._canon_text.cache_clear()  # a repeated root starts cold
            calls.clear()
            magnus_verdict(g, root, rng.randint(1, 4))
            ids = [id(adj) for adj in calls]
            assert ids and len(set(ids)) == len(ids), (g, root)
            # the same text again is not canonicalised over g again
            calls.clear()
            magnus_verdict(g, root, rng.randint(1, 4))
            assert not any(adj is g._adj_idx for adj in calls), (g, root)


def _chord_advisory_reference(g, nf, n):
    """The advisory justifications of a plain-cycle root, each chorded
    graph built afresh."""
    out = []
    for t in sorted(support(g, nf), key=g.index):
        p, q = sorted(g.neighbours(t), key=g.index)
        chorded = build_graph(g.vertices, [tuple(e) for e in g.edges] + [(p, q)])
        try:
            rec = check_theorem_main(chorded, Word(chorded, nf.idx), t, n)
        except (NotCyclicallyMinimal, TNotInSupport):
            continue
        if rec.verdict == EMBEDS:
            out.append(f"cycle_chord_reduction(t={t})")
    return out


def test_chord_advisories_build_each_chorded_graph_once(monkeypatch):
    # one graph per (cycle, chord), however many roots meet it, and the
    # same advisories as with every chorded graph built afresh
    built = []
    real_init = CommutationGraph.__init__

    def counting(self, vertices, edges):
        built.append(self)
        real_init(self, vertices, edges)

    cycles = [plain_cycle(5), plain_cycle(6)]
    freiheitssatz._chorded.cache_clear()
    monkeypatch.setattr(CommutationGraph, "__init__", counting)
    rng = random.Random(59)
    runs = []
    for g in cycles:
        for _ in range(30):
            nf = _random_root(g, rng)
            report = magnus_verdict(g, str(nf), 3)
            runs.append((g, nf, [c.justification for c in report.advisories]))
    assert 0 < len(built) <= 5 + 6
    assert len(built) == freiheitssatz._chorded.cache_info().currsize
    monkeypatch.undo()
    assert sum(bool(got) for _, _, got in runs) >= 10
    for g, nf, got in runs:
        assert got == _chord_advisory_reference(g, nf, 3), (g, nf)


def test_chord_advisories_equal_the_main_theorem_on_each_chorded_graph():
    # the advisory skips n < 3 and every t with supp(s) inside st(t); the
    # reference tries every t of the support on its chorded graph
    rng = random.Random(67)
    found = set()
    for g in (plain_cycle(5), plain_cycle(6), plain_cycle(7)):
        for n in range(1, 6):
            for _ in range(12):
                nf = _random_root(g, rng)
                got = [c.justification
                       for c in magnus_verdict(g, str(nf), n).advisories]
                assert got == _chord_advisory_reference(g, nf, n), (g, nf, n)
                if got:
                    found.add(n)
    assert found == {3, 4, 5}


def test_chord_advisory_needs_one_cycle():
    # C5 + C3 and C6 + C3 are 2-regular with as many edges as vertices,
    # but no plain cycle, so no root gets a chord advisory
    rng = random.Random(71)
    for k in (5, 6):
        names = [f"a{i}" for i in range(k)] + ["b0", "b1", "b2"]
        edges = [(names[i], names[(i + 1) % k]) for i in range(k)]
        g = build_graph(names, edges + [("b0", "b1"), ("b1", "b2"),
                                        ("b2", "b0")])
        for _ in range(100):
            nf = _random_root(g, rng)
            assert not magnus_verdict(g, str(nf), 3).advisories, (g, nf)


def _embeds_cases():
    """(kind, graph, validated root): the golden verdict corpus, seeded
    roots over plain C5-C8 and over centred random graphs, each plain
    root over the chorded graph of each t in its support, and each
    centred root over the graph without the centre."""
    for g, root, _, _ in golden_verdict_cases():
        yield "golden", g, freiheitssatz._relator_root(g, root, 1)
    rng = random.Random(97)
    cycles = [plain_cycle(m) for m in (5, 6, 7, 8)]
    centred = [_centred(random_graph(rng, 7)) for _ in range(8)]
    for g in cycles + centred:
        for _ in range(15):
            nf = _random_root(g, rng)
            yield "graph", g, nf
            chords = freiheitssatz._cycle_chords(g)
            for t in (sorted(support(g, nf), key=g.index) if chords else ()):
                chorded = freiheitssatz._chorded(g, *chords[t])
                there = minimal_form(chorded, Word(chorded, nf.idx))
                if is_cyclically_minimal(chorded, there):
                    yield "chorded", chorded, there
            centre, sub_g = freiheitssatz._centre_split(g)
            if sub_g is not None and not support(g, nf) & centre:
                yield "split", sub_g, freiheitssatz._project_root(sub_g, g, nf)


def test_embeds_predicate_equals_the_main_theorem_record():
    # the verdict-only test stops at the first failed hypothesis; it
    # answers as the full record does for every candidate t and n
    seen = set()
    for kind, g, nf in _embeds_cases():
        supp = support(g, nf)
        for t in sorted(supp, key=g.index):
            for n in range(1, 6):
                rec = freiheitssatz._theorem_main(g, nf, supp, t, n)
                got = freiheitssatz._embeds(g, nf, supp, t, n)
                assert got == (rec.verdict == EMBEDS), (g, nf, t, n)
                seen.add((kind, got))
    # a plain cycle's link is never a clique; over a centred graph the
    # central z lies in every other link and commutes with every chunk,
    # so only a chunk inside U is thick
    assert {kind for kind, got in seen if got} == {
        "golden", "chorded", "split"}
    assert {kind for kind, got in seen if not got} == {
        "golden", "graph", "chorded", "split"}


def _commutator_roots(g, rng, t):
    """Cyclic cores of words ending in p q p^-1 q^-1, for the two
    neighbours p, q of t: that factor is geodesic over the plain cycle g
    and cancels over g + pq."""
    p, q = freiheitssatz._cycle_chords(g)[t]
    names = list(g.vertices)
    for _ in range(4):
        w = " ".join(rng.choice(names) + rng.choice(("", "^-1"))
                     for _ in range(rng.randint(0, 6)))
        core = cyclic_reduce(g, f"{t} {w} {p} {q} {p}^-1 {q}^-1").core
        if len(core):
            yield core


def test_chord_screen_equals_thickness_over_the_chorded_canonical_form():
    # a root geodesic over g + pq keeps the letters outside st(t) of each
    # t-segment (chord screen lemma); one that is not falls back to None
    rng = random.Random(101)
    seen = {True: 0, False: 0, None: 0}
    for m in (5, 6, 7, 8):
        g = plain_cycle(m)
        chords = freiheitssatz._cycle_chords(g)
        for _ in range(40):
            nf = _random_root(g, rng)
            t = rng.choice(g.vertices)
            for root in [nf, *_commutator_roots(g, rng, t)]:
                p, q = chords[t]
                chorded = freiheitssatz._chorded(g, p, q)
                word = Word(chorded, root.idx)
                got = freiheitssatz._chord_screen(chorded, root, t, p, q)
                seen[got] += 1
                if got is None:
                    assert len(minimal_form(chorded, word)) < len(root)
                    continue
                h = hnn_factorize(chorded, t, word)
                assert got == is_t_thick(chorded, t, h), (g, root, t)
    assert min(seen.values()) >= 20, seen


def _check_short_graphs():
    """The graphs of the check-short benchmark: P4, C4, C4 with a chord,
    the plain 5-cycle (chord advisories), C'5, C'6 and C'5 with a central
    vertex z (the centre split)."""
    c4 = plain_cycle(4)
    return [
        build_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")]),
        c4,
        build_graph(c4.vertices, [tuple(e) for e in c4.edges] + [("t", "a2")]),
        plain_cycle(5),
        C5P,
        cycle_with_chord(6),
        _centred(C5P),
    ]


# ---------------------------------------------------------------------------
# the validated root: public checks against the verdict's private helpers


def test_public_checks_validate_as_before():
    for n in (0, -3):
        with pytest.raises(BadParameter, match="n must be >= 1"):
            check_theorem_main(P4, "a c a^-1", "c", n)
        with pytest.raises(BadParameter, match="n must be >= 1"):
            check_amalgam(P4, "a c a^-1", n)
    with pytest.raises(NotCyclicallyMinimal, match="not cyclically minimal"):
        check_theorem_main(P4, "a c a^-1", "c", 3)
    with pytest.raises(NotCyclicallyMinimal, match="not cyclically minimal"):
        check_amalgam(P4, "a c a^-1", 3)
    for t in ("b", "zz"):
        with pytest.raises(TNotInSupport, match=f"{t} does not occur in c t"):
            check_theorem_main(P4, "c t", t, 3)
        with pytest.raises(TNotInSupport):
            magnus_verdict(P4, "c t", 3, t=t)


def test_verdict_records_equal_the_public_checks():
    rng = random.Random(61)
    for g in _verdict_graphs() + _check_short_graphs():
        for _ in range(6):
            nf = _random_root(g, rng)
            n = rng.randint(1, 5)
            report = magnus_verdict(g, str(nf), n)
            supp = sorted(support(g, nf), key=g.index)
            assert [r.t for r in report.per_t] == supp
            for rec in report.per_t:
                assert rec == check_theorem_main(g, str(nf), rec.t, n)
            assert report.amalgam == check_amalgam(g, str(nf), n)[0]
            if supp:
                t = rng.choice(supp)
                assert magnus_verdict(g, nf, n, t=t).per_t == [
                    check_theorem_main(g, nf, t, n)]


def _validated_over_chord(g, nf, t):
    """Whether the chord advisory validates nf over g + pq: when nf is not
    geodesic there, or when it is t-thick over its canonical form there."""
    p, q = sorted(g.neighbours(t), key=g.index)
    chorded = build_graph(g.vertices, [tuple(e) for e in g.edges] + [(p, q)])
    word = Word(chorded, nf.idx)
    if len(minimal_form(chorded, word)) < len(nf):
        return True
    return is_t_thick(chorded, t, hnn_factorize(chorded, t, word))


def test_one_validation_per_graph_and_one_link_per_candidate(monkeypatch):
    # magnus_verdict validates its root once over g and once over each
    # chorded graph of the advisory that its thickness screen passes; the
    # centre split takes the projected root as it is; lk(t) is read once
    # per (graph, candidate t)
    validated, links = [], []
    real_check, real_link = (freiheitssatz.is_cyclically_minimal,
                             hnn._u_indices)

    def check(g, w):
        validated.append(g)
        return real_check(g, w)

    def link_of(g, t):
        links.append((g, t))
        return real_link(g, t)

    monkeypatch.setattr(freiheitssatz, "is_cyclically_minimal", check)
    monkeypatch.setattr(hnn, "_u_indices", link_of)
    rng = random.Random(71)
    plain = (plain_cycle(5), plain_cycle(6))
    split = screened = 0
    for g in _verdict_graphs() + _check_short_graphs() + list(plain):
        for _ in range(12 if g in plain else 4):
            nf = _random_root(g, rng)
            validated.clear()
            links.clear()
            n = rng.randint(1, 4)
            report = magnus_verdict(g, str(nf), n)
            pairs = [(id(h), t) for h, t in links]
            assert len(set(pairs)) == len(pairs)
            assert [t for h, t in links if h is g] == [r.t for r in report.per_t]
            split += any(h not in validated for h, _ in links)
            assert validated[0] is g
            if g not in plain or n < 3:
                assert validated == [g]
            chorded = validated[1:]
            assert len({id(h) for h in chorded}) == len(chorded)
            assert len(chorded) <= len(report.per_t)
            if g in plain and n >= 3:
                # one chorded graph per t whose star leaves out some of
                # supp, unless the root is geodesic there and not t-thick
                supp = support(g, nf)
                tried = [t for t in supp if not supp <= star(g, t)]
                kept = [t for t in tried if _validated_over_chord(g, nf, t)]
                assert len(chorded) == len(kept), (g, nf)
                screened += len(tried) - len(kept)
    assert screened
    assert split
    # below n = 3 the main theorem cannot conclude EMBEDS, so a plain
    # cycle tries no chorded graph, though some of these roots get an
    # advisory at n = 3
    advised = 0
    for g in plain:
        for _ in range(8):
            nf = _random_root(g, rng)
            for n in (1, 2):
                validated.clear()
                report = magnus_verdict(g, str(nf), n)
                assert validated == [g], (g, nf, n)
                assert not any("cycle_chord_reduction" in c.justification
                               for c in report.advisories)
            advised += bool(magnus_verdict(g, str(nf), 3).advisories)
    assert advised


def test_t_root_matches_the_symbol_reference_on_verdict_roots():
    # hnn.is_t_root decides some roots from the t-exponents alone; the
    # reference builds sigma every time
    rng = random.Random(83)
    answers = set()
    for g in _verdict_graphs() + _check_short_graphs():
        for _ in range(20):
            nf = _random_root(g, rng)
            for t in support(g, nf):
                h = hnn_factorize(g, t, nf)
                want = is_t_root_reference(g, t, h)
                assert hnn.is_t_root(g, t, h) == want, (g, nf, t)
                answers.add((len(h.exps) > 1, want))
    assert answers == {(False, True), (True, True), (True, False)}


def test_verdict_runs_the_public_hypothesis_checks(monkeypatch):
    # the spans hnn.is_t_thick and hnn.is_t_root see every candidate t of
    # a verdict over g: is_t_root once per candidate, is_t_thick once per
    # candidate, returning where the record has lk_clique set and raising
    # LinkNotClique (counted apart) where it has not
    calls = []

    def traced(real):
        def call(g, t, h):
            try:
                out = real(g, t, h)
            except LinkNotClique:
                calls.append((real.__name__ + " raised", g, t))
                raise
            calls.append((real.__name__, g, t))
            return out
        return call

    for real in (hnn.is_t_thick, hnn.is_t_root):
        wrapper = traced(real)
        for name, mod in list(sys.modules.items()):
            if name == "pcgroups" or name.startswith("pcgroups."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, wrapper)
    rng = random.Random(73)
    cliques = set()
    for g in _check_short_graphs():
        for _ in range(8):
            nf = _random_root(g, rng)
            calls.clear()
            per_t = magnus_verdict(g, str(nf), rng.randint(1, 4)).per_t
            on_g = [(name, t) for name, h, t in calls if h is g]
            for name, ts in (
                    ("is_t_root", [r.t for r in per_t]),
                    ("is_t_thick", [r.t for r in per_t if r.lk_clique]),
                    ("is_t_thick raised",
                     [r.t for r in per_t if not r.lk_clique])):
                assert [t for got, t in on_g if got == name] == ts, (g, nf)
            cliques.update(r.lk_clique for r in per_t)
    assert cliques == {True, False}


def test_freiheitssatz_reads_no_private_name_of_hnn():
    tree = ast.parse(Path(freiheitssatz.__file__).read_text(encoding="utf-8"))
    modules, imported = {"hnn", "pcgroups.hnn"}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "hnn")
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "pcgroups.hnn")
    assert "hnn_factorize" in imported
    assert not [name for name in imported if name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            assert ast.unparse(node.value) not in modules, ast.unparse(node)


def test_centre_split_builds_each_induced_graph_once(monkeypatch):
    # one graph without the centre per centred graph, however many roots
    # meet it, and the same reports as with that graph built afresh
    built = []
    real_init = CommutationGraph.__init__

    def counting(self, vertices, edges):
        built.append(self)
        real_init(self, vertices, edges)

    c4chord = _check_short_graphs()[2]
    graphs = [c4chord, _centred(C5P), _centred(P4), _centred(cycle_with_chord(6))]
    freiheitssatz._centre_split.cache_clear()
    monkeypatch.setattr(CommutationGraph, "__init__", counting)
    rng = random.Random(79)
    runs = []
    for g in graphs:
        for _ in range(25):
            nf = _random_root(g, rng)
            n = rng.randint(1, 4)
            runs.append((g, nf, n, magnus_verdict(g, str(nf), n).to_json()))
    assert len(built) == len(graphs)
    monkeypatch.undo()
    assert sum("centre_split" in got for *_, got in runs) >= 20
    monkeypatch.setattr(freiheitssatz, "_centre_split",
                        freiheitssatz._centre_split.__wrapped__)
    for g, nf, n, got in runs:
        assert got == magnus_verdict(g, str(nf), n).to_json(), (g, nf)


def test_a_given_t_restricts_the_centre_split_and_the_chord_advisories():
    g = build_graph(["a", "b", "c", "z"],
                    [("a", "z"), ("b", "z"), ("c", "z"), ("a", "b")])
    report = magnus_verdict(g, "a c b^-1 c^-1", 3, t="a")
    base = magnus_verdict(g.induced("abc"), "a c b^-1 c^-1", 3, t="a")
    assert [c.subset for c in base.conclusions] == [("b", "c")]
    assert [(c.subset, c.justification) for c in report.conclusions
            if "centre_split" in c.justification] == [
        (("b", "c", "z"), "theorem_main; centre_split")]
    advisories = magnus_verdict(plain_cycle(6), "a2 a3 a5 t a4", 3,
                                t="a2").advisories
    assert [c.justification for c in advisories] == [
        "cycle_chord_reduction(t=a2)"]
    assert len(magnus_verdict(plain_cycle(6), "a2 a3 a5 t a4", 3).advisories) == 4


def test_theorem_main_conclusions_and_advisories_name_only_candidates():
    # over the golden verdict corpus (every fifth root with a given t)
    # and the report corpus: a theorem_main conclusion, lifted or not,
    # leaves out one candidate of per_t, and an advisory names one
    reports = [magnus_verdict(g, root, n, t)
               for g, root, n, t in golden_verdict_cases()]
    given = 0
    for report in reports + list(_report_corpus()):
        g = report.graph
        candidates = {r.t for r in report.per_t}
        given += len(candidates) < len(support(g, report.s))
        for c in report.conclusions:
            if "theorem_main" in c.justification:
                left_out = set(g.vertices) - set(c.subset)
                assert len(left_out) == 1 and left_out <= candidates, c
        for c in report.advisories:
            assert c.justification[len("cycle_chord_reduction(t="):-1] \
                in candidates, c
    assert given >= 100


def _with_centre(g, k):
    """g with k new vertices z0, z1, ... adjacent to every vertex and to
    each other: k more central generators."""
    zs = [f"z{i}" for i in range(k)]
    return build_graph(list(g.vertices) + zs,
                       [tuple(e) for e in g.edges]
                       + [(v, z) for v in g.vertices for z in zs]
                       + [(z, y) for i, z in enumerate(zs) for y in zs[i + 1:]])


def test_the_centre_split_is_the_amalgam_splitting_over_the_rest():
    # the lemma of the freiheitssatz docstring: for a centre C neither
    # empty nor V, Y = V - C is synchronised, lk(Y) = C and X is empty,
    # and the graph the centre split recurses on has no central vertex
    rng = random.Random(83)
    graphs = golden_verdict_graphs() + [
        _with_centre(random_graph(rng, 7), rng.randint(1, 3))
        for _ in range(60)]
    checked = 0
    for g in graphs:
        centre = central_vertices(g)
        if not centre or len(centre) == len(g):
            continue
        ys = [v for v in g.vertices if v not in centre]
        assert is_synchronised(g, ys), g
        assert link(g, ys) == centre, g
        rec = check_amalgam(g, " ".join(ys), 1)[0]
        assert rec.synchronised and rec.decomposition == {
            "Y": ys, "lk_Y": [v for v in g.vertices if v in centre],
            "X": []}, g
        assert freiheitssatz._centre_split(g) == (centre, g.induced(ys))
        assert not central_vertices(g.induced(ys)), g
        checked += 1
    assert checked >= 60


def _relation_word(relation):
    """x body x^-1 body^-1 for the text [x, body] of a clique-converse
    witness, body a product of powers v^k."""
    x, body = relation[1:-1].split(", ")
    powers = [p.split("^") for p in body.split()]
    inverse = " ".join(f"{v}^{-int(k)}" for v, k in reversed(powers))
    return f"{x} {body} {x}^-1 {inverse}"


def _clique_root_reports():
    """Reports over the golden verdict corpus, then over seeded graphs
    with roots on a clique, where the clique converse fires."""
    for g, root, n, t in golden_verdict_cases():
        yield magnus_verdict(g, root, n, t)
    rng = random.Random(89)
    for _ in range(300):
        g = random_graph(rng, 8)
        clique = []
        for u in rng.sample(g.vertices, len(g)):
            if all(g.adjacent(u, v) for v in clique):
                clique.append(u)
        root = " ".join(f"{u}^{rng.choice((-3, -2, -1, 1, 2, 3))}"
                        for u in clique if rng.random() < 0.7) or clique[0]
        yield magnus_verdict(g, root, rng.randint(1, 4))


def test_clique_converse_witness_is_nontrivial_and_avoids_t():
    # [x, body] multiplied out is a nontrivial element of A(V - {t}), the
    # subset declared not to embed, and equals x r x^-1 r^-1 with
    # r = s^n (x commutes with t, supp(s) is a clique), which is trivial
    # in the quotient
    checked = 0
    for report in _clique_root_reports():
        g = report.graph
        for c in report.conclusions:
            if c.witness is None:
                continue
            w = c.witness
            assert c.status == DOES_NOT_EMBED
            assert set(c.subset) == set(g.vertices) - {w["t"]}
            rel = minimal_form(g, _relation_word(w["relation"]))
            assert len(rel), w
            assert w["t"] not in support(g, rel) and w["x"] in support(g, rel)
            x, r = g.index(w["x"]), report.s.idx * report.n
            assert equal(g, rel, Word(g, (x, *r, -x, *invert_letters(r)))), w
            checked += 1
    assert checked >= 200


# ---------------------------------------------------------------------------
# JSON: direct record dicts and the report writer


def _report_corpus():
    """Reports over the catalog and the check-short graphs: seeded roots,
    n = 1..5, with and without a given t."""
    rng = random.Random(59)
    for g in list(catalog().values()) + _check_short_graphs():
        for n in range(1, 6):
            for _ in range(4):
                nf = _random_root(g, rng)
                yield magnus_verdict(g, nf, n)
                supp = sorted(support(g, nf), key=g.index)
                if supp:
                    yield magnus_verdict(g, str(nf), n, t=rng.choice(supp))


def test_report_json_is_json_dumps_byte_for_byte():
    # the report writes its text from its records; the corpus reaches
    # every record shape
    count = 0
    routes, decomposed = set(), set()
    for report in _report_corpus():
        data = report.to_json_dict()
        for k in (None, 0, 1, 2, 4):
            assert report.to_json(indent=k) == json.dumps(data, indent=k)
        assert report.to_json() == json.dumps(data, indent=2)
        for record, keys in _key_orders(data):
            assert keys == KEY_ORDER[record], record
        for rec in report.per_t:
            assert rec.to_json_dict() == asdict(rec)
            assert list(rec.to_json_dict()) == [f.name for f in fields(rec)]
            if not rec.lk_clique:
                assert rec.t_thick is rec.cyclically_t_thick is None
                routes.add("lk_clique false")
        am = report.amalgam
        assert am.to_json_dict() == asdict(am)
        assert list(am.to_json_dict()) == [f.name for f in fields(am)]
        count += 1
        for c in data["conclusions"]:
            routes.update(r for r in ("centre_split", "cycle_chord_reduction",
                                      "corollary_clique_converse(")
                          if r in c["justification"])
        decomposed.add(am.decomposition is not None)
    assert count >= 700
    assert routes == {"lk_clique false", "centre_split",
                      "cycle_chord_reduction", "corollary_clique_converse("}
    assert decomposed == {True, False}


_TEXT = st.text(max_size=6)
_CONCLUSIONS = st.lists(st.builds(
    Conclusion, st.lists(_TEXT, max_size=3).map(tuple), _TEXT, _TEXT,
    st.none() | st.dictionaries(_TEXT, _TEXT, max_size=2)), max_size=3)


@st.composite
def _hand_built_reports(draw):
    """Reports of any field values of the declared types, the letters of
    the root over C'5."""
    flag = st.sampled_from([True, False, None])
    letters = draw(st.lists(st.sampled_from([1, -1, 2, -3, 5]), max_size=6))
    per_t = draw(st.lists(st.builds(
        TheoremMainRecord, _TEXT, st.booleans(), flag, flag, st.booleans(),
        st.booleans(), _TEXT), max_size=3))
    amalgam = draw(st.builds(
        AmalgamRecord, st.booleans(), st.booleans(), st.booleans(),
        st.none() | st.dictionaries(_TEXT, st.lists(_TEXT, max_size=3),
                                    max_size=3)))
    return FreiReport(
        C5P, NormalForm(Word(C5P, tuple(letters))), draw(st.integers()),
        per_t, amalgam, draw(_CONCLUSIONS),
        draw(st.integers() | st.floats() | _TEXT), draw(_TEXT), draw(_TEXT),
        draw(_CONCLUSIONS))


_ODD_TEXT = ["%s", "100%", "é", "\U0001f600\n\"", "%(x)s", ""]


@settings(max_examples=200, deadline=None)
@given(_hand_built_reports(), st.integers(-2, 8))
@example(FreiReport(
    C5P, NormalForm(Word(C5P, (1, 1, -2))), -10**30,
    [TheoremMainRecord("%s", False, None, None, True, False, "%%")],
    AmalgamRecord(True, False, True, {k: _ODD_TEXT for k in _ODD_TEXT}),
    [Conclusion(tuple(_ODD_TEXT), "%", "%d", {"%": "%%"})], 1.5, "é",
    "%s", [Conclusion((), "", "")]), 0)
def test_json_writer_is_json_dumps_byte_for_byte(report, indent):
    assert report.to_json(indent=indent) == json.dumps(
        report.to_json_dict(), indent=indent)


def test_json_dicts_hand_out_no_part_of_the_report():
    # asdict gave deep copies; the direct dicts must not share the
    # record's own lists either
    report = magnus_verdict(F2XZ, "a c", 2)
    decomposition = {k: list(v) for k, v in report.amalgam.decomposition.items()}
    before = report.to_json()
    for data in (report.to_json_dict(), {"amalgam": report.amalgam.to_json_dict()}):
        parts = data["amalgam"]["decomposition"]
        for part in parts.values():
            part.append("x")
        parts["W"] = []
        for rec in data.get("per_t", []):
            rec["verdict"] = EMBEDS
        for c in data.get("conclusions", []):
            c["subset"].append("x")
    assert report.amalgam.decomposition == decomposition
    assert report.to_json() == before
