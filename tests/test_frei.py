import json
import random
import sys

import pytest

from pcgroups import words
from pcgroups.errors import BadParameter, NotCyclicallyMinimal, TNotInSupport
from pcgroups.freiheitssatz import (
    DECIDABLE,
    DOES_NOT_EMBED,
    EMBEDS,
    RESTRICTED_EMBEDS,
    UNKNOWN,
    check_amalgam,
    check_theorem_main,
    magnus_verdict,
)
from pcgroups.graphs import build_graph, cycle_with_chord, plain_cycle
from pcgroups.hnn import hnn_factorize, is_cyclically_t_thick, is_t_thick
from pcgroups.words import Word, cyclic_reduce, format_word, support
from oracles import catalog, random_graph

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


def test_json_schema_fields():
    report = magnus_verdict(C5P, "a2 a3 t", 3)
    data = json.loads(report.to_json())
    assert list(data) == ["s", "n", "per_t", "amalgam", "conclusions",
                          "order_of_s", "word_problem", "conjugacy_problem"]
    assert data["s"] == "a2 a3 t"
    assert {"t", "lk_clique", "t_thick", "cyclically_t_thick",
            "not_in_star", "t_root", "verdict"} == set(data["per_t"][0])
    assert {"subset", "status", "justification"} == set(data["conclusions"][0])
    assert {"synchronised", "supp_clique", "supp_independent",
            "decomposition"} == set(data["amalgam"])


def _verdict_graphs():
    """The catalog, C'6, C'5 with a central vertex z, and seeded random
    graphs: every route of magnus_verdict runs on some of them."""
    rng = random.Random(41)
    graphs = list(catalog().values()) + [cycle_with_chord(6)]
    graphs.append(build_graph(list(C5P.vertices) + ["z"],
                              [tuple(e) for e in C5P.edges]
                              + [(v, "z") for v in C5P.vertices]))
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
    # the root is canonicalised once over g and once over each chorded or
    # centre-split graph; every layer below takes that NormalForm as it is
    real = words.canon_letters
    calls = []  # holds each adjacency, so no id is reused during the test

    def counting(adj, w):
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
            calls.clear()
            magnus_verdict(g, root, rng.randint(1, 4))
            ids = [id(adj) for adj in calls]
            assert ids and len(set(ids)) == len(ids), (g, root)
