"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they appear; they are also captured on failure.
"""

import itertools
import random
import time

from pcgroups import census as C
from pcgroups import census_slots
from pcgroups.cosets import double_coset_rep, in_maln, parabolic
from pcgroups.freiheitssatz import magnus_verdict
from pcgroups.graphs import build_graph, cycle_with_chord
from pcgroups.hnn import (
    hnn_factorize,
    is_cyclically_t_thick,
    is_t_root,
    sigma,
    t_length,
)
from pcgroups.words import (
    canon_letters,
    cyclic_core_letters,
    equal,
    minimal_form,
    word_from_idx,
)

from oracles import (
    CayleyOracle,
    catalog,
    conjugacy_class_closure,
    conjugacy_partition,
    iter_strict_composed,
    reduce_reference,
)

C5P = cycle_with_chord(5)


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {num}: {status}  {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_1_formula_reproduction():
    t0 = time.time()
    ok = True
    for d in range(0, 7):
        lh = C.enumerate_LH(5, d)
        lhu = C.enumerate_LHU(5, d)
        expected_lh = 1 if d == 0 else 1 + 8 * d * 3 ** (d - 1)
        expected_lhu = 1 if d == 0 else 3 ** (d - 1) * (3 + 2 * d)
        ok &= lh["l_H"] == C.formula_lH_5(d) == expected_lh
        ok &= lhu["l_HU"] == C.formula_lHU_5(d) == expected_lhu
        ok &= lhu["e"] == C.formula_e(d) == 2 * (3 ** d - 1)
        ok &= C.enumerate_LU(d) == C.formula_lU(d) == 1 + 2 * d * (d + 1)
    elapsed = time.time() - t0
    ok &= elapsed < 120
    assert report(1, ok, f"n=5 exact formulas d=0..6 in {elapsed:.1f}s")


def test_criterion_2_bounds():
    details = []
    ok = True
    for n in (6, 7):
        rows = C.bounds_hold(n, d_list=[1, 2, 3, 4, 5], m_list=[1, 2, 3, 4, 5])
        bad = [r for r in rows if not r[-1]]
        ok &= not bad
        details.append(f"n={n}: {len(rows)} sandwiches")
        if bad:
            details.append(f"violations: {bad}")
    assert report(2, ok, "; ".join(details))


def test_criterion_3_composed_formulas():
    ok = True
    residuals = []
    for d in range(0, 4):
        for k in range(1, 4):
            comp = C.enumerate_composed(5, d, k)
            lH, lHU = C.formula_lH_5(d), C.formula_lHU_5(d)
            ok &= comp["l1"] == C.formula_l1(d, k)
            ok &= comp["l2"] == C.formula_l2(lH, lHU, k)
            residuals.append(comp["l2"] - comp["l2_strict"])
    detail = ("selected convention: trivial slots allowed (reproduces the "
              f"closed product formulas); strict-set residuals {residuals}")
    assert report(3, ok, detail)


def test_criterion_4_z_identities():
    ok = True
    notes = []
    for d in range(0, 4):
        for k in range(1, 4):
            comp = C.enumerate_composed(5, d, k)
            l_u = C.enumerate_LU(d)
            # Z1 complement is exactly the t-length-0 stratum
            ok &= (comp["l_dk"] - (comp["l_dk"] - comp["l_d0"])) == comp["l_d0"]
            # Z3 complement is exactly L_U plus the type (i) words
            z3 = comp["l_dk"] - l_u - comp["l1"]
            ok &= comp["l_dk"] - z3 == l_u + comp["l1"]
            # z2 tally against the thick product formula
            tH = C.formula_lH_5(d) - C.formula_e_prime(d)
            tHU = C.formula_lHU_5(d) - C.formula_e(d)
            ok &= comp["l1"] + comp["z2_l2"] == \
                C.formula_l1(d, k) + C.formula_z2ii(tH, tHU, k)
            # exact t-power count against the bound chain
            if d >= 1:
                bound = C.tpower_bound(C.formula_lHU_5(d), C.formula_lH_5(d),
                                       2 * d, k)
                ok &= comp["tpowers_strict"] <= bound
            else:
                ok &= comp["tpowers_strict"] == 0
    # the set-level identities, verified per word on a materialised grid
    for d, k in ((1, 1), (1, 2), (2, 2)):
        comp = C.enumerate_composed(5, d, k)
        z1c = z3c = total = 0
        for stratum, letters in iter_strict_composed(5, d, k):
            f = C.classify_Z(5, letters)
            total += 1
            z1c += not f["z1"]
            z3c += not f["z3"]
        ok &= total == comp["l_dk"]
        ok &= z1c == comp["l_d0"]
        ok &= z3c == C.enumerate_LU(d) + comp["l1"]
        notes.append(f"(d={d},k={k}) |Z1^c|={z1c} |Z3^c|={z3c}")
    assert report(4, ok, "; ".join(notes))


def test_criterion_5_genericity_trend():
    grid = {}
    for d in range(1, 5):
        for k in range(1, 5):
            comp = C.enumerate_composed(5, d, k)
            grid[(d, k)] = comp["zY_strict"] / comp["l_dk"]
    mono_d = all(grid[(d, k)] <= grid[(d + 1, k)]
                 for d in range(1, 4) for k in range(1, 5))
    corner = grid[(4, 4)] > grid[(1, 1)]
    # At a fixed d the density decays in k: a later slot is thick with
    # probability below one, so rho(d, k+1)/rho(d, k) tends to
    # (2(l_HU - e) - 1)/(2 l_HU - 1) < 1.  That factor rises with d
    # (roughly 1 - 6/(2d + 3)), so the decay weakens as d grows.
    decay_k = (all(grid[(1, k)] == 0 for k in range(1, 5))
               and all(grid[(d, k + 1)] < grid[(d, k)]
                       for d in range(2, 5) for k in range(1, 4)))
    step = {(d, k): grid[(d, k + 1)] / grid[(d, k)]
            for d in range(2, 5) for k in range(1, 4)}
    step_up_d = all(step[(d, k)] < step[(d + 1, k)]
                    for d in range(2, 4) for k in range(1, 4))
    factors = []
    for d in range(2, 5):
        lhu, e = C.formula_lHU_5(d), C.formula_e(d)
        num, den = 2 * (lhu - e) - 1, 2 * lhu - 1
        steps = ", ".join(f"{step[(d, k)]:.4f}" for k in range(1, 4))
        factors.append(f"d={d} [{steps}] -> {num}/{den} = {num / den:.4f}")
    detail = (f"nondecreasing in d: {mono_d}; rho(1, k) = 0 and decreasing"
              f" in k: {decay_k}; step factor rises with d: {step_up_d};"
              f" corner: {corner}. Step factors rho(d, k+1)/rho(d, k),"
              f" k=1..3, and their limit (2(l_HU - e) - 1)/(2 l_HU - 1): "
              + "; ".join(factors))
    assert report(5, mono_d and decay_k and step_up_d and corner, detail)


# ---------------------------------------------------------------------------

def test_criterion_6a_geodesic_oracle():
    cat = catalog()
    assert len(cat) == 12
    checked = 0
    ok = True
    for name, g in cat.items():
        oracle = CayleyOracle(g, 6)
        adj = g._adj_idx
        letters = oracle.letters
        stack = [((), ())]
        while stack:
            word, node = stack.pop()
            if word:
                checked += 1
                if len(minimal_form(g, word_from_idx(g, word))) \
                        != oracle.dist[node]:
                    ok = False
            if len(word) < 6:
                for x in letters:
                    stack.append((word + (x,), oracle.step(node, x)))
        if not ok:
            break
    assert report("6a", ok, f"{checked} words against BFS over 12 graphs")


def _c5p_elements(max_len):
    adj = C5P._adj_idx
    letters = [s * i for i in range(1, 6) for s in (1, -1)]
    elements = {()}
    words = [()]
    for _ in range(max_len):
        words = [w + (x,) for w in words for x in letters]
        elements.update(canon_letters(adj, w) for w in words)
    return sorted(elements, key=lambda w: (len(w), w))


def _u_ball(max_len):
    out = []
    for x in range(-max_len, max_len + 1):
        for y in range(-max_len, max_len + 1):
            if abs(x) + abs(y) <= max_len:
                out.append(tuple([5 if x > 0 else -5] * abs(x))
                           + tuple([2 if y > 0 else -2] * abs(y)))
    return out


def test_criterion_6b_double_coset_oracle():
    ctx = parabolic(C5P, {"a1", "a4"})
    adj = C5P._adj_idx
    elements = _c5p_elements(4)
    big_ball = _u_ball(4)
    small_ball = _u_ball(2)
    ok = True
    for w in elements:
        word = word_from_idx(C5P, w)
        core = double_coset_rep(ctx, word)
        best = min(len(reduce_reference(adj, u + w + v))
                   for u in big_ball for v in big_ball)
        if len(core) != best:
            ok = False
            break
        for u in small_ball[:7]:
            for v in small_ball[:7]:
                other = word_from_idx(C5P, u + w + v)
                if double_coset_rep(ctx, other).idx != core.idx:
                    ok = False
    assert report("6b", ok,
                  f"{len(elements)} elements, minimality + invariance")


def test_criterion_6c_maln_oracle():
    adj = C5P._adj_idx
    b_idx = {2, 5}  # a1, a4
    v_ball = [v for v in _u_ball(3) if v]
    ok = True
    for w in _c5p_elements(4):
        claimed = in_maln(C5P, {"a1", "a4"}, word_from_idx(C5P, w))
        w_inv = tuple(-x for x in reversed(w))
        direct = all(
            not ({abs(x) for x in reduce_reference(adj, w_inv + v + w)} <= b_idx)
            for v in v_ball)
        if claimed != direct:
            ok = False
            break
    assert report("6c", ok, "malnormality vs direct conjugation test")


def test_criterion_6d_conjugacy_oracle():
    names = ["P3", "K3", "P4", "C4", "C4'", "K4", "N4"]
    cat = catalog()
    ok = True
    total = 0
    for name in names:
        g = cat[name]
        adj = g._adj_idx
        oracle, class_of = conjugacy_partition(g, 4)
        production = {}
        for node in oracle.dist:
            _, core = cyclic_core_letters(adj, node)
            production[node] = min(conjugacy_class_closure(adj, core))
        total += len(production)
        by_oracle = {}
        for node, cid in class_of.items():
            by_oracle.setdefault(cid, set()).add(production[node])
        # same oracle class -> one production id; distinct classes -> distinct
        if any(len(v) != 1 for v in by_oracle.values()):
            ok = False
        ids = [next(iter(v)) for v in by_oracle.values()]
        if len(set(ids)) != len(ids):
            ok = False
        # exercise the public api on a sample of pairs
        rng = random.Random(23)
        nodes = sorted(oracle.dist)
        for _ in range(60):
            w1, w2 = rng.choice(nodes), rng.choice(nodes)
            claimed = class_of[w1] == class_of[w2]
            from pcgroups.words import conjugate_test
            if conjugate_test(g, word_from_idx(g, w1),
                              word_from_idx(g, w2)) != claimed:
                ok = False
    assert report("6d", ok, f"{total} elements over {len(names)} graphs")


# ---------------------------------------------------------------------------

def test_criterion_7_normal_form_uniqueness():
    ok = True
    for n, square in ((5, True), (6, False)):
        m = n - 1
        adj = census_slots.h_adj(n)
        letters = [s * i for i in range(1, m + 1) for s in (1, -1)]
        buckets = {}
        frontier = [()]
        words = [()]
        for _ in range(5):
            frontier = [w + (y,) for w in frontier for y in letters
                        if not w or w[-1] != -y]
            words.extend(frontier)
        for w in words:
            key = canon_letters(adj, w)
            entry = buckets.setdefault(key, [0, 0])
            if C.is_normal_form(n, w):
                entry[0] += 1
            if square and C.is_normal_form(n, w, square=True):
                entry[1] += 1
        for key, (general, sq) in buckets.items():
            if general != 1 or (square and sq != 1):
                ok = False
    assert report(7, ok, "one normal form per element, square==general at n=5")


def test_criterion_8_golden_verdicts():
    ok = True
    notes = []

    def per_t(rep, t):
        return next(r for r in rep.per_t if r.t == t)

    def status(rep, subset):
        c = rep.conclusion_for(subset)
        return None if c is None else c.status

    # path graph, relator (c t)^3
    p4 = build_graph(["a", "b", "c", "t"],
                     [("t", "a"), ("a", "b"), ("b", "c")])
    rep = magnus_verdict(p4, "c t", 3)
    fixture = {"s": "c t", "n": 3, "order_of_s": 3,
               "word_problem": "unknown", "conjugacy_problem": "unknown"}
    data = rep.to_json_dict()
    ok &= all(data[key] == val for key, val in fixture.items())
    ok &= status(rep, ("a", "b", "c")) == "EMBEDS"
    notes.append("path-graph ct")

    # chorded cycle, relator (a2 a3 t)^3 and ^4
    rep = magnus_verdict(C5P, "a2 a3 t", 3)
    rec = per_t(rep, "t")
    ok &= rec.to_json_dict() == {
        "t": "t", "lk_clique": True, "t_thick": True,
        "cyclically_t_thick": True, "not_in_star": True, "t_root": True,
        "verdict": "EMBEDS"}
    ok &= status(rep, ("a1", "a2", "a3", "a4")) == "EMBEDS"
    ok &= rep.order_of_s == 3 and rep.word_problem == "unknown"
    rep4 = magnus_verdict(C5P, "a2 a3 t", 4)
    ok &= rep4.order_of_s == 4 and rep4.word_problem == "decidable"
    notes.append("chorded-cycle a2a3t")

    # thin relator on the f2-by-z graph: thickness fails, nothing claimed
    f2z = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    rep = magnus_verdict(f2z, "a b c", 3)
    rec = per_t(rep, "c")
    ok &= rec.lk_clique and rec.t_thick is False and rec.verdict == "UNKNOWN"
    ok &= all(c.status == "UNKNOWN" for c in rep.conclusions)
    ok &= rep.order_of_s == "unknown"
    notes.append("abc not c-thick")

    # chorded square: synchronised clique
    c4p = catalog()["C4'"]
    rep = magnus_verdict(c4p, "a c", 2)
    ok &= rep.amalgam.to_json_dict() == {
        "synchronised": True, "supp_clique": True,
        "supp_independent": False,
        "decomposition": {"Y": ["a", "c"], "lk_Y": ["b", "d"], "X": []}}
    ok &= status(rep, ("b", "c", "d")) == "EMBEDS"
    ok &= status(rep, ("a", "b", "d")) == "EMBEDS"
    ok &= rep.order_of_s == 2 and rep.word_problem == "decidable" \
        and rep.conjugacy_problem == "decidable"
    notes.append("chorded-square clique")

    # plain square: synchronised independent pair
    c4 = catalog()["C4"]
    rep = magnus_verdict(c4, "b d", 1)
    ok &= rep.amalgam.synchronised and rep.amalgam.supp_independent
    ok &= status(rep, ("a", "c", "d")) == "EMBEDS"
    ok &= status(rep, ("a", "b", "c")) == "EMBEDS"
    ok &= rep.order_of_s == 1 and rep.word_problem == "decidable" \
        and rep.conjugacy_problem == "unknown"
    notes.append("square independent")

    # abelian support with a leaking star: the clique converse witness
    g = build_graph(["a", "t", "x", "b"],
                    [("a", "t"), ("a", "b"), ("x", "t")])
    rep = magnus_verdict(g, "a t", 2)
    c = rep.conclusion_for(("a", "x", "b"))
    ok &= c is not None and c.status == "DOES_NOT_EMBED"
    ok &= c.witness == {"t": "t", "x": "x", "a": "a", "relation": "[x, a^2]"}
    notes.append("clique converse")

    assert report(8, ok, "; ".join(notes))


# ---------------------------------------------------------------------------

def test_criterion_9_hnn_invariants():
    ok = True
    adj = C5P._adj_idx
    letters = [s * i for i in range(1, 6) for s in (1, -1)]
    u_letters = [2, -2, 5, -5]

    # t-length is a class function under associated-subgroup pinches
    rng = random.Random(101)
    for _ in range(400):
        w = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        base = t_length(hnn_factorize(C5P, "t", word_from_idx(C5P, w)))
        pos = rng.randrange(0, len(w) + 1)
        u = tuple(rng.choice(u_letters) for _ in range(rng.randrange(0, 3)))
        eps = rng.choice((1, -1))
        stuffed = w[:pos] + (eps,) + u + (-eps,) + w[pos:]
        if t_length(hnn_factorize(C5P, "t", word_from_idx(C5P, stuffed))) != base:
            ok = False

    # sigma is stable under rotation at t-boundaries plus link conjugation
    u_ball = [(), (2,), (-2,), (5,), (-5,), (2, 5), (-2, 5)]
    for text in ("a2 t a3 t", "a2 a3 t", "a2 t a3 t^-1", "a2 a3 t a3 t"):
        h = hnn_factorize(C5P, "t", minimal_form(C5P, text).word)
        base_units = sigma(C5P, "t", h).units
        rotations = {base_units[i:] + base_units[:i]
                     for i in range(len(base_units))}
        word = h.to_word().idx
        cuts = [i + 1 for i, x in enumerate(word) if abs(x) == 1]
        for cut in cuts:
            rotated = word[cut:] + word[:cut]
            for u in u_ball:
                conj = tuple(-x for x in reversed(u)) + rotated + u
                sw = sigma(C5P, "t",
                           hnn_factorize(C5P, "t", word_from_idx(C5P, conj)))
                if sw.units not in rotations:
                    ok = False

    # periodic position: exhaustive over roots with small chunks,
    # |s|_t <= 2, power exponent <= 3
    chunk_words = [()]
    for _ in range(2):
        chunk_words = [w + (y,) for w in chunk_words
                       for y in (2, -2, 3, -3, 4, -4, 5, -5)
                       if not w or w[-1] != -y] + chunk_words
    chunk_words = sorted(set(chunk_words))
    candidates = []
    for g0 in chunk_words:
        for e1 in (1, -1):
            candidates.append(g0 + (e1,))
            for g1 in chunk_words:
                for e2 in (1, -1):
                    candidates.append(g0 + (e1,) + g1 + (e2,))
    tested = 0
    for cand in candidates:
        word = word_from_idx(C5P, cand)
        nf = minimal_form(C5P, word)
        if nf.idx != cand:
            continue  # not the reduced spelling of itself
        h = hnn_factorize(C5P, "t", nf.word)
        if h.chunks[-1] != ():
            continue
        if not is_cyclically_t_thick(C5P, "t", h):
            continue
        if not is_t_root(C5P, "t", h):
            continue
        tested += 1
        for n_pow in (1, 2, 3):
            power = canon_letters(adj, cand * n_pow)
            rots = [power[i:] + power[:i] for i in range(len(power))]
            sigmas = []
            for r in rots:
                hr = hnn_factorize(C5P, "t", word_from_idx(C5P, r))
                sigmas.append(sigma(C5P, "t", hr).units)
            for i, j in itertools.combinations(range(len(rots)), 2):
                if sigmas[i] != sigmas[j]:
                    continue
                if not equal(C5P, word_from_idx(C5P, rots[i]),
                             word_from_idx(C5P, rots[j])):
                    ok = False
                for cut in range(len(power)):
                    if rots[i][:cut] == rots[j][:cut]:
                        if not equal(C5P, word_from_idx(C5P, rots[i][cut:]),
                                     word_from_idx(C5P, rots[j][cut:])):
                            ok = False

    # a t-root ending in a t-letter is not a proper power in the group
    from oracles import all_words
    power_checked = 0
    for text in ("a2 t", "a3 t^-1", "a2 a3 t", "a2 t a3 t"):
        h = hnn_factorize(C5P, "t", minimal_form(C5P, text).word)
        if not is_t_root(C5P, "t", h):
            continue
        target = minimal_form(C5P, text).idx
        power_checked += 1
        for j in (2, 3):
            if len(target) % j:
                continue
            for candidate in all_words(5, len(target) // j):
                if canon_letters(adj, candidate * j) == target:
                    ok = False

    assert report(9, ok,
                  f"class function, sigma stability, {tested} periodic-"
                  f"position roots, {power_checked} power cross-checks")
