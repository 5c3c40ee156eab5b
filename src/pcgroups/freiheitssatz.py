"""Mechanical hypothesis checking for Freiheitssatz-type embedding results.

Given a cyclically minimal relator root s and an exponent n, the report
records, per candidate generator t, whether the main embedding theorem's
four hypotheses hold (link a clique, s t-thick, s outside the star
parabolic, s a t-root), evaluates the amalgam route over a synchronised
support, and emits three-valued conclusions per Magnus subset.  Nothing
is claimed beyond the hypotheses actually verified.

magnus_verdict validates the root once (canonical over the graph,
cyclically minimal, n >= 1), takes its support once, and hands both to
the private helpers _theorem_main and _amalgam, which take a validated
root as it is.  _theorem_main calls the public hnn checks on one HnnWord
per candidate t.  The public check_theorem_main and check_amalgam
validate and call the same helpers.
The chord advisories of a plain cycle run only when n >= 3, since the
main theorem's EMBEDS needs n >= 3, and only for candidates t with
supp(s) outside st(t).  magnus_verdict computes the candidate list once:
the given t, or else every generator of supp(s).  The main theorem, the
centre split's verdict and the chord advisories run over that list; the
amalgam corollaries depend only on supp(s) and list every t.

Only the report's own per_t records are built in full, since the JSON
prints every field.  The centre split's factor and the chorded graphs
of the advisories read one bit per candidate t, whether the main
theorem gives EMBEDS, and _embeds answers it: it tests n >= 3, then
supp(s) outside st(t), then factorises and tests t-thickness and the
t-root, and stops at the first hypothesis that fails.

Lemma (the chord screen).  Let g be a plain cycle, p and q the two
neighbours of t, g' = g + pq, U = lk(t) = {p, q} in both graphs, and
let the root s be geodesic over g' as written.  Then the chunks of the
factorisation of s over g' (its canonical form there) are t-thick iff
each t-segment of s as written is thick, by hnn's rule read with U.
Proof: any two geodesics of one element are related by swaps of
adjacent commuting letters.  A letter outside st(t) commutes with no
t-letter in g or g', since the chord leaves lk(t) as it is, so no swap
moves it past a t-letter: the canonical form over g' has the same
number of t-letters as s, and the same letters outside st(t) between
each two of them.  The rule reads only the letters of a chunk outside
U and their adjacency to p and q, and adj' differs from adj only on
the pair p, q inside U.  So _chord_screen reads thickness from s as
it stands, and a candidate whose screen fails is neither canonicalised
nor validated over g'; a root that is not geodesic over g' takes the
full path.

A route that decides a Magnus subset Z' over the factor A(Y) of a
splitting maps it to the whole vertex set V by one lift,
_lift(g, Y, Z') = Z' | (V - Y).  Over a synchronised support
Y = supp(s), the clique and independent corollaries are the lifts of
Y - {t}, which give V - {t}, and theorem_amalgam_trivial_part is the
lift of the empty set, which gives V - Y.

Lemma (the centre split).  Let C be the set of central vertices, with
C nonempty and C != V, and let Y = V - C.  Then Y is synchronised,
lk(Y) = C and X = V - (Y | lk(Y)) is empty, so A(V) = A(Y) x A(C) is
the amalgam splitting over Y.  Proof: each vertex of C is adjacent to
every vertex of Y, so C lies in lk(Y); no vertex lies in its own link,
so lk(Y) misses Y and equals C; then st(y) lies in V = Y | lk(Y) for
each y in Y.  When supp(s) lies in Y, G = A(Y)/N(s^n) x A(C), so A(Z')
embeds in the first factor iff A(Z' | C) embeds in G.  The verdict over
the induced graph on Y is therefore lifted by the same _lift, with
"; centre_split" added to each justification.  The induced graph has
no central vertex (one would be central in g), so the recursion stops
there.

FreiReport.to_json(indent=k) writes its text straight from its records
for an int k: each record writes its own fields in its JSON key order,
_KEYS (the field order of TheoremMainRecord and AmalgamRecord), and
to_json_dict builds the dicts from the same keys.  The text equals
json.dumps(report.to_json_dict(), indent=k) byte for byte; indent=None
is json.dumps itself.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (BadParameter, ConflictingVerdicts, LinkNotClique,
                     NotCyclicallyMinimal, TNotInSupport)
from .graphs import (
    CommutationGraph,
    central_vertices,
    is_clique,
    is_independent,
    is_synchronised,
    link,
    star,
)
from .hnn import (hnn_factorize, is_cyclically_reduced_hnn, is_t_root,
                  is_t_thick, is_thick_support)
from .words import (
    NormalForm,
    Word,
    _Frozen,
    format_word,
    is_cyclically_minimal,
    minimal_form,
    reduce_letters,
    support,
)

EMBEDS = "EMBEDS"
DOES_NOT_EMBED = "DOES_NOT_EMBED"
UNKNOWN = "UNKNOWN"
RESTRICTED_EMBEDS = "RESTRICTED_EMBEDS"

DECIDABLE = "decidable"


def _encode_str(s):
    """json's ASCII encoder of a str, which takes this name on first call,
    so json loads only when a report is written."""
    global _encode_str
    from json.encoder import encode_basestring_ascii as _encode_str
    return _encode_str(s)


def _scalar(v):
    """json.dumps(v) for a str, None, bool or number."""
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if isinstance(v, str):
        return _encode_str(v)
    if isinstance(v, int):
        return int.__repr__(v)
    from json import dumps
    return dumps(v)


def _array(items, pad, step):
    """A JSON array of written items; pad is the line break and
    indentation of its brackets, step one level of indentation."""
    if not items:
        return "[]"
    inner = pad + step
    return "[" + inner + ("," + inner).join(items) + pad + "]"


@lru_cache(maxsize=64)
def _object_format(keys, pad, step):
    """%-format of a nonempty JSON object with the str keys, one %s per
    value, its braces at pad."""
    inner = pad + step
    return "{" + inner + ("," + inner).join(
        [_encode_str(k).replace("%", "%%") + ": %s" for k in keys]) + pad + "}"


def _names(names, pad, step):
    return _array([_encode_str(v) for v in names], pad, step)


class TheoremMainRecord(_Frozen, frozen=False):
    __slots__ = _KEYS = ("t", "lk_clique", "t_thick", "cyclically_t_thick",
                         "not_in_star", "t_root", "verdict")

    def __init__(self, t: str, lk_clique: bool, t_thick: bool | None,
                 cyclically_t_thick: bool | None, not_in_star: bool,
                 t_root: bool, verdict: str):
        self.t = t
        self.lk_clique = lk_clique
        self.t_thick = t_thick
        self.cyclically_t_thick = cyclically_t_thick
        self.not_in_star = not_in_star
        self.t_root = t_root
        self.verdict = verdict

    def hypotheses_hold(self):
        return (self.lk_clique and bool(self.t_thick)
                and bool(self.cyclically_t_thick)
                and self.not_in_star and self.t_root)

    def to_json_dict(self):
        return {k: getattr(self, k) for k in self._KEYS}

    def _as_json(self, pad, step):
        return _object_format(self._KEYS, pad, step) % tuple(
            [_scalar(getattr(self, k)) for k in self._KEYS])


class AmalgamRecord(_Frozen, frozen=False):
    __slots__ = _KEYS = ("synchronised", "supp_clique", "supp_independent",
                         "decomposition")

    def __init__(self, synchronised: bool, supp_clique: bool,
                 supp_independent: bool, decomposition: dict | None):
        self.synchronised = synchronised
        self.supp_clique = supp_clique
        self.supp_independent = supp_independent
        # {"Y": [...], "lk_Y": [...], "X": [...]}, or None
        self.decomposition = decomposition

    def to_json_dict(self):  # fresh lists
        data = {k: getattr(self, k) for k in self._KEYS}
        if self.decomposition is not None:
            data["decomposition"] = {
                k: list(v) for k, v in self.decomposition.items()}
        return data

    def _as_json(self, pad, step):
        d = self.decomposition
        inner = pad + step
        parts = "null" if d is None else "{}" if not d else _object_format(
            tuple(d), inner, step) % tuple(
                [_names(v, inner + step, step) for v in d.values()])
        return _object_format(self._KEYS, pad, step) % (
            _scalar(self.synchronised), _scalar(self.supp_clique),
            _scalar(self.supp_independent), parts)


def _witness_text(witness):
    return ", ".join(f"{k}={v}" for k, v in sorted(witness.items()))


class Conclusion(_Frozen, frozen=False):
    __slots__ = ("subset", "status", "justification", "witness")
    _KEYS = ("subset", "status", "justification")

    def __init__(self, subset: tuple, status: str, justification: str,
                 witness: dict | None = None):
        self.subset = subset
        self.status = status
        self.justification = justification
        self.witness = witness

    def _full_justification(self):
        if self.witness:
            return f"{self.justification}({_witness_text(self.witness)})"
        return self.justification

    def to_json_dict(self):
        return dict(zip(self._KEYS, (list(self.subset), self.status,
                                     self._full_justification())))

    def _as_json(self, pad, step):
        return _object_format(self._KEYS, pad, step) % (
            _names(self.subset, pad + step, step), _scalar(self.status),
            _scalar(self._full_justification()))


class FreiReport(_Frozen, frozen=False):
    __slots__ = ("graph", "s", "n", "per_t", "amalgam", "conclusions",
                 "order_of_s", "word_problem", "conjugacy_problem",
                 "advisories")

    def __init__(self, graph: CommutationGraph, s: NormalForm, n: int,
                 per_t: list, amalgam: AmalgamRecord, conclusions: list,
                 order_of_s: object, word_problem: str, conjugacy_problem: str,
                 advisories: list = list):  # the class: a fresh list each
        self.graph = graph
        self.s = s
        self.n = n
        self.per_t = per_t
        self.amalgam = amalgam
        self.conclusions = conclusions
        self.order_of_s = order_of_s  # int or "unknown"
        self.word_problem = word_problem
        self.conjugacy_problem = conjugacy_problem
        self.advisories = [] if advisories is list else advisories

    _KEYS = ("s", "n", "per_t", "amalgam", "conclusions", "order_of_s",
             "word_problem", "conjugacy_problem")

    def to_json_dict(self):
        return dict(zip(self._KEYS, (
            format_word(self.s.word), self.n,
            [r.to_json_dict() for r in self.per_t],
            self.amalgam.to_json_dict(),
            [c.to_json_dict() for c in self.conclusions + self.advisories],
            self.order_of_s, self.word_problem, self.conjugacy_problem)))

    def to_json(self, indent=2):
        """json.dumps(self.to_json_dict(), indent=indent), byte for byte;
        for an int indent the text is written from the records."""
        if indent is None:
            from json import dumps
            return dumps(self.to_json_dict())
        step = " " * indent
        pad = "\n" + step
        inner = pad + step
        return _object_format(self._KEYS, "\n", step) % (
            _encode_str(format_word(self.s.word)), _scalar(self.n),
            _array([r._as_json(inner, step) for r in self.per_t], pad, step),
            self.amalgam._as_json(pad, step),
            _array([c._as_json(inner, step)
                    for c in self.conclusions + self.advisories], pad, step),
            _scalar(self.order_of_s), _scalar(self.word_problem),
            _scalar(self.conjugacy_problem))

    def conclusion_for(self, subset):
        target = tuple(sorted(subset))
        for c in self.conclusions:
            if tuple(sorted(c.subset)) == target:
                return c
        return None

    def to_text(self):
        lines = [f"relator root: {format_word(self.s.word)}   exponent n = {self.n}"]
        for r in self.per_t:
            lines.append(
                f"  t = {r.t}: lk_clique={r.lk_clique} t_thick={r.t_thick} "
                f"cyclically_t_thick={r.cyclically_t_thick} "
                f"not_in_star={r.not_in_star} t_root={r.t_root} -> {r.verdict}")
        a = self.amalgam
        lines.append(
            f"  support: synchronised={a.synchronised} clique={a.supp_clique} "
            f"independent={a.supp_independent}")
        for c in self.conclusions + self.advisories:
            w = f"  [{_witness_text(c.witness)}]" if c.witness else ""
            lines.append(f"  <{' '.join(c.subset)}>: {c.status} ({c.justification}){w}")
        lines.append(f"  order of s: {self.order_of_s}")
        lines.append(f"  word problem: {self.word_problem}")
        lines.append(f"  conjugacy problem: {self.conjugacy_problem}")
        return "\n".join(lines)


def _relator_root(g, s, n):
    """The validated root: the canonical form of s over g, checked to be
    cyclically minimal, with n >= 1."""
    if n < 1:
        raise BadParameter(f"relator exponent n must be >= 1, got {n}")
    nf = minimal_form(g, s)
    if not is_cyclically_minimal(g, nf):
        raise NotCyclicallyMinimal(
            f"{format_word(nf.word)} is not cyclically minimal")
    return nf


def _subset_without(g, t):
    return tuple(v for v in g.vertices if v != t)


def _lift(g, ys, subset):
    """The Magnus subset of g that a subset of the factor over ys lifts
    to: the subset together with every vertex of g outside ys."""
    return tuple(v for v in g.vertices if v in subset or v not in ys)


def check_theorem_main(g: CommutationGraph, s, t, n: int) -> TheoremMainRecord:
    """Evaluate the four main-theorem hypotheses for one candidate t.

    The thickness flags stay None when lk(t) is not a clique (the support
    criterion for Maln needs the clique).  The per-candidate verdict is
    EMBEDS only when every hypothesis holds, including the cyclic
    thickness variant, and n >= 3.
    """
    nf = _relator_root(g, s, n)
    return _theorem_main(g, nf, support(g, nf), t, n)


def _theorem_main(g, nf, supp, t, n):
    """check_theorem_main on a validated root nf with support supp.
    is_t_thick raises LinkNotClique exactly when lk(t) is not a clique."""
    if t not in supp:
        raise TNotInSupport(f"{t} does not occur in {format_word(nf.word)}")
    h = hnn_factorize(g, t, nf)
    assert is_cyclically_reduced_hnn(g, t, h)
    try:
        # h is cyclically t-thick, as is_cyclically_t_thick defines it
        # (each chunk and the wrap chunk g_m g_0 thick), iff it is
        # t-thick: it is cyclically reduced, its wrap chunk does not
        # cancel (nf is cyclically minimal), and a union of thick
        # supports is thick.  Under the paper's reading, which takes
        # g_m g_0 as one chunk in place of g_m and g_0, t-thick implies
        # cyclically t-thick but not conversely (ROADMAP item 13)
        thick = cyc_thick = is_t_thick(g, t, h)
        lk_clique = True
    except LinkNotClique:
        lk_clique, thick, cyc_thick = False, None, None
    not_in_star = not (supp <= star(g, t))
    t_root = is_t_root(g, t, h)
    rec = TheoremMainRecord(
        t=t, lk_clique=lk_clique, t_thick=thick, cyclically_t_thick=cyc_thick,
        not_in_star=not_in_star, t_root=t_root, verdict=UNKNOWN)
    if rec.hypotheses_hold() and n >= 3:
        rec.verdict = EMBEDS
    return rec


def _embeds(g, nf, supp, t, n):
    """_theorem_main(g, nf, supp, t, n).verdict == EMBEDS, for t in supp.
    The hypotheses are tested in cost order, and the first that fails
    ends the test; no record is built."""
    if n < 3 or supp <= star(g, t):
        return False
    h = hnn_factorize(g, t, nf)
    assert is_cyclically_reduced_hnn(g, t, h)
    try:
        if not is_t_thick(g, t, h):
            return False
    except LinkNotClique:
        return False
    return is_t_root(g, t, h)


def _abelian_relation_witness(g, nf, supp, n, t, x):
    """Witness data for the clique converse: x commutes with t but not with
    all of supp(s), so the image of [x, a^{np} w] collapses in the quotient."""
    nbrs = g.neighbours(x)
    a = next(v for v in g.vertices if v in supp and v not in nbrs and v != x)
    exps = {}
    for letter in nf.idx:
        name = g.name(abs(letter))
        exps[name] = exps.get(name, 0) + (1 if letter > 0 else -1)
    rest = [f"{v}^{n * exps[v]}" for v in sorted(supp - {a, t}) if n * exps[v] != 0]
    body = f"{a}^{n * exps[a]}" + ("" if not rest else " " + " ".join(rest))
    return {"t": t, "x": x, "a": a, "relation": f"[{x}, {body}]"}


def check_amalgam(g: CommutationGraph, s, n: int):
    """Amalgam route: synchronised support, clique and independent cases.

    Returns (record, conclusions, order, word_problem, conjugacy_problem);
    the last three are None when this route proves nothing about them.
    """
    nf = _relator_root(g, s, n)
    return _amalgam(g, nf, support(g, nf), n)


def _amalgam(g, nf, supp, n):
    """check_amalgam on a validated root nf with support supp."""
    if not supp:
        rec = AmalgamRecord(False, False, False, None)
        return rec, [], 1, DECIDABLE, DECIDABLE
    synchronised = is_synchronised(g, supp)
    clique = is_clique(g, supp)
    independent = is_independent(g, supp)
    lk_y = link(g, supp)
    x_set = [v for v in g.vertices if v not in supp and v not in lk_y]
    decomposition = None
    conclusions = []
    order = wp = cp = None
    if synchronised:
        decomposition = {
            "Y": [v for v in g.vertices if v in supp],
            "lk_Y": [v for v in g.vertices if v in lk_y],
            "X": x_set,
        }
        if clique or independent:
            kind = "clique" if clique else "independent"
            conclusions = [Conclusion(_lift(g, supp, supp - {t}), EMBEDS,
                                      "corollary_" + kind)
                           for t in sorted(supp, key=g.index)]
            order, wp = n, DECIDABLE
            cp = DECIDABLE if clique or n >= 2 else None
        elif rest := _lift(g, supp, ()):
            conclusions.append(Conclusion(
                rest, EMBEDS, "theorem_amalgam_trivial_part"))
    elif clique:
        # converse of the clique corollary: some star leaks outside
        for t in sorted(supp, key=g.index):
            xs = [x for x in x_set if g.adjacent(x, t)]
            if xs:
                witness = _abelian_relation_witness(g, nf, supp, n, t, xs[0])
                conclusions.append(Conclusion(
                    _subset_without(g, t), DOES_NOT_EMBED,
                    "corollary_clique_converse", witness=witness))
    record = AmalgamRecord(synchronised, clique, independent, decomposition)
    return record, conclusions, order, wp, cp


def _merge_conclusions(pieces):
    merged = {}
    for c in pieces:
        key = tuple(sorted(c.subset))
        cur = merged.get(key)
        if cur is None or cur.status == UNKNOWN != c.status:
            merged[key] = Conclusion(c.subset, c.status, c.justification, c.witness)
        elif c.status == UNKNOWN:
            continue
        elif cur.status != c.status:
            raise ConflictingVerdicts(
                f"{key}: {cur.status} ({cur.justification}) vs "
                f"{c.status} ({c.justification})")
        else:
            if c.justification not in cur.justification:
                cur.justification += "; " + c.justification
            cur.witness = cur.witness or c.witness
    return list(merged.values())


@lru_cache(maxsize=64)
def _centre_split(g):
    """The central vertices C of g and the graph induced on Y = V - C,
    the factor of the amalgam splitting over Y (see the module
    docstring), or None in its place when C is empty or all of V."""
    centre = central_vertices(g)
    if not centre or len(centre) == len(g):
        return centre, None
    return centre, g.induced([v for v in g.vertices if v not in centre])


@lru_cache(maxsize=64)
def _chorded(g, p, q):
    """g with the chord p -- q added."""
    return CommutationGraph(g.vertices, [tuple(e) for e in g.edges] + [(p, q)])


@lru_cache(maxsize=64)
def _cycle_chords(g):
    """{t: (p, q)}, the two neighbours of each vertex t in index order,
    when g is a plain cycle of at least 5 vertices, else None.  A
    2-regular graph is a plain cycle only when it is connected."""
    m = len(g)
    if m < 5 or len(g.edges) != m:
        return None
    if any(len(g.neighbours(v)) != 2 for v in g.vertices):
        return None
    walk = [g.vertices[0]]
    for v in walk:  # grows while it is read
        walk += [u for u in g.neighbours(v) if u not in walk]
    if len(walk) != m:
        return None
    return {t: tuple(sorted(g.neighbours(t), key=g.index))
            for t in g.vertices}


def _chord_screen(chorded, nf, t, p, q):
    """Whether every t-segment of the root nf, read as it stands, is
    thick over the chorded graph g + pq, where lk(t) = {p, q}; None
    when nf is not geodesic there.  By the chord screen lemma (module
    docstring) a geodesic nf gives the answer of is_t_thick over its
    canonical form over the chorded graph."""
    adj = chorded._adj_idx
    letters = nf.idx
    if len(reduce_letters(adj, letters)) != len(letters):
        return None
    t_idx = chorded.index(t)
    u_idx = frozenset((chorded.index(p), chorded.index(q)))
    segment = set()
    for x in letters:
        if abs(x) != t_idx:
            segment.add(abs(x))
            continue
        if not is_thick_support(adj, u_idx, segment):
            return False
        segment = set()
    return is_thick_support(adj, u_idx, segment)


def _cycle_chord_advisories(g, nf, supp, n, candidates):
    """Plain-cycle reduction: if adding the chord between the two
    neighbours p, q of t makes the main theorem apply, the parabolic
    away from st(t) = {t, p, q} still embeds in the quotient over the
    original graph.  Only a candidate that can reach EMBEDS there is
    tried: that needs n >= 3 and supp(s) outside st(t), and the chord,
    between two vertices of st(t), leaves st(t) as it is.  A root that
    is geodesic over the chorded graph is screened first, from its
    t-segments as they stand (_chord_screen); only a root that passes
    the screen, or that is not geodesic there, is canonicalised and
    validated over the chorded graph, where _embeds decides."""
    chords = n >= 3 and _cycle_chords(g)
    if not chords:
        return []
    out = []
    for t in candidates:
        p, q = chords[t]
        st_t = (t, p, q)
        if supp.issubset(st_t):
            continue
        chorded = _chorded(g, p, q)
        if _chord_screen(chorded, nf, t, p, q) is False:
            continue
        try:
            there = _relator_root(chorded, Word(chorded, nf.idx), n)
        except NotCyclicallyMinimal:
            continue
        supp_there = support(chorded, there)
        if t in supp_there and _embeds(chorded, there, supp_there, t, n):
            subset = tuple(v for v in g.vertices if v not in st_t)
            out.append(Conclusion(
                subset, RESTRICTED_EMBEDS, f"cycle_chord_reduction(t={t})"))
    return out


def magnus_verdict(g: CommutationGraph, s, n: int, t=None) -> FreiReport:
    """Aggregate the main theorem over candidate generators (t, or every
    generator of supp(s) when t is None) plus the amalgam corollaries
    into one report.

    When the graph has central vertices away from supp(s), the group
    splits off its centre as a direct factor and the verdict is computed
    on the complement and lifted.
    """
    nf = _relator_root(g, s, n)
    supp = support(g, nf)
    candidates = [t] if t is not None else sorted(supp, key=g.index)
    per_t = [_theorem_main(g, nf, supp, u, n) for u in candidates]
    report = _verdict(g, nf, supp, n, candidates,
                      [rec.t for rec in per_t if rec.verdict == EMBEDS])
    report.per_t = per_t
    report.advisories = _cycle_chord_advisories(g, nf, supp, n, candidates)
    return report


def _verdict(g, nf, supp, n, candidates, embeds):
    """magnus_verdict on a validated root nf with support supp over the
    given candidates, without the per_t records and the chord
    advisories; embeds lists the candidates for which the main theorem
    gives EMBEDS.  Each route gives (conclusions, order of s, word
    problem, conjugacy problem), and the report folds them."""
    proved = [Conclusion(_subset_without(g, t), EMBEDS, "theorem_main")
              for t in embeds]
    amalgam, *amalgam_route = _amalgam(g, nf, supp, n)
    routes = [(proved, n if proved else None,
               DECIDABLE if proved and n >= 4 else None, None), amalgam_route]
    # the centre split is the amalgam splitting over Y = V - C
    centre, sub_g = _centre_split(g)
    if sub_g is not None and supp and not (supp & centre):
        sub_nf = _project_root(sub_g, g, nf)
        sub = _verdict(sub_g, sub_nf, supp, n, candidates, [
            t for t in candidates if _embeds(sub_g, sub_nf, supp, t, n)])
        routes.append(([Conclusion(_lift(g, sub_g, c.subset), c.status,
                                   c.justification + "; centre_split", c.witness)
                        for c in sub.conclusions if c.status != UNKNOWN],
                       sub.order_of_s, sub.word_problem, sub.conjugacy_problem))
    pieces, orders, wp, cp = [], [], "unknown", "unknown"
    for conclusions, order, route_wp, route_cp in routes:
        pieces += conclusions
        if order not in (None, "unknown"):
            orders.append(order)
        if route_wp == DECIDABLE:
            wp = DECIDABLE
        if route_cp == DECIDABLE:
            cp = DECIDABLE
    for t in candidates:
        pieces.append(Conclusion(_subset_without(g, t), UNKNOWN, "no_theorem_applies"))
    conclusions = _merge_conclusions(pieces)
    if len(set(orders)) > 1:
        raise ConflictingVerdicts(f"order claims disagree: {orders}")
    return FreiReport(
        graph=g, s=nf, n=n, per_t=[], amalgam=amalgam,
        conclusions=conclusions, order_of_s=orders[0] if orders else "unknown",
        word_problem=wp, conjugacy_problem=cp)


def _project_root(sub_g, g, nf):
    """A validated root of g re-expressed over an induced subgraph sub_g
    that holds its support.  Renumbering keeps the letter order and the
    commutations among the root's generators, so the result is again
    canonical and cyclically minimal."""
    letters = []
    for x in nf.idx:
        i = sub_g.index(g.name(abs(x)))
        letters.append(i if x > 0 else -i)
    return NormalForm(Word(sub_g, tuple(letters)))
