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
per candidate t; lk(t) is read once per HnnWord, by hnn_factorize.  The
public check_theorem_main and check_amalgam validate and call the same
helpers.
The chord advisories of a plain cycle run only when n >= 3, since the
main theorem's EMBEDS needs n >= 3, and only for candidates t with
supp(s) outside st(t).

FreiReport.to_json(indent=k) writes its text straight from its records
for an int k: each record writes its own fields in its JSON key order,
_KEYS (the field order of TheoremMainRecord and AmalgamRecord), and
to_json_dict builds the dicts from the same keys.  The text equals
json.dumps(report.to_json_dict(), indent=k) byte for byte; indent=None
is json.dumps itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
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
                  is_t_thick)
from .words import (
    NormalForm,
    Word,
    format_word,
    is_cyclically_minimal,
    minimal_form,
    support,
)

EMBEDS = "EMBEDS"
DOES_NOT_EMBED = "DOES_NOT_EMBED"
UNKNOWN = "UNKNOWN"
RESTRICTED_EMBEDS = "RESTRICTED_EMBEDS"

DECIDABLE = "decidable"


_encode_str = json.encoder.encode_basestring_ascii


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
    return json.dumps(v)


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


def _record(cls):
    """dataclass(cls) whose JSON keys, _KEYS, are its field names."""
    cls = dataclass(cls)
    cls._KEYS = tuple([f.name for f in fields(cls)])
    return cls


@_record
class TheoremMainRecord:
    t: str
    lk_clique: bool
    t_thick: bool | None
    cyclically_t_thick: bool | None
    not_in_star: bool
    t_root: bool
    verdict: str

    def hypotheses_hold(self):
        return (self.lk_clique and bool(self.t_thick)
                and bool(self.cyclically_t_thick)
                and self.not_in_star and self.t_root)

    def to_json_dict(self):
        return {k: getattr(self, k) for k in self._KEYS}

    def _as_json(self, pad, step):
        return _object_format(self._KEYS, pad, step) % tuple(
            [_scalar(getattr(self, k)) for k in self._KEYS])


@_record
class AmalgamRecord:
    synchronised: bool
    supp_clique: bool
    supp_independent: bool
    decomposition: dict | None  # {"Y": [...], "lk_Y": [...], "X": [...]}

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


@dataclass
class Conclusion:
    subset: tuple
    status: str
    justification: str
    witness: dict | None = None

    _KEYS = ("subset", "status", "justification")

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


@dataclass
class FreiReport:
    graph: CommutationGraph
    s: NormalForm
    n: int
    per_t: list
    amalgam: AmalgamRecord
    conclusions: list
    order_of_s: object  # int or "unknown"
    word_problem: str
    conjugacy_problem: str
    advisories: list = field(default_factory=list)

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
            return json.dumps(self.to_json_dict())
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
        # h is cyclically t-thick iff it is t-thick: it is cyclically
        # reduced, its wrap chunk g_m g_0 does not cancel (nf is
        # cyclically minimal), and a union of thick supports is thick
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
        if clique:
            for t in sorted(supp, key=g.index):
                conclusions.append(Conclusion(
                    _subset_without(g, t), EMBEDS, "corollary_clique"))
            order, wp, cp = n, DECIDABLE, DECIDABLE
        elif independent:
            for t in sorted(supp, key=g.index):
                conclusions.append(Conclusion(
                    _subset_without(g, t), EMBEDS, "corollary_independent"))
            order, wp = n, DECIDABLE
            cp = DECIDABLE if n >= 2 else None
        else:
            rest = tuple(v for v in g.vertices if v not in supp)
            if rest:
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
        if key not in merged:
            merged[key] = Conclusion(c.subset, c.status, c.justification, c.witness)
            continue
        cur = merged[key]
        if c.status == UNKNOWN:
            continue
        if cur.status == UNKNOWN:
            merged[key] = Conclusion(c.subset, c.status, c.justification, c.witness)
        elif cur.status != c.status:
            raise ConflictingVerdicts(
                f"{key}: {cur.status} ({cur.justification}) vs "
                f"{c.status} ({c.justification})")
        else:
            if c.justification not in cur.justification:
                cur.justification += "; " + c.justification
            if cur.witness is None:
                cur.witness = c.witness
    return list(merged.values())


@lru_cache(maxsize=64)
def _centre_split(g):
    """The central vertices of g and the graph induced on the others, or
    None in its place when no vertex or every vertex is central."""
    centre = central_vertices(g)
    if not centre or len(centre) == len(g):
        return centre, None
    return centre, g.induced([v for v in g.vertices if v not in centre])


@lru_cache(maxsize=64)
def _chorded(g, p, q):
    """g with the chord p -- q added."""
    return CommutationGraph(g.vertices, [tuple(e) for e in g.edges] + [(p, q)])


def _cycle_chord_advisories(g, nf, supp, n):
    """Plain-cycle reduction: if adding the chord between the two
    neighbours of t makes the main theorem apply, the parabolic away from
    st(t) still embeds in the quotient over the original graph.  The
    root is canonicalised again over each chorded graph, whose chord
    changes the commutations.  Only a candidate that can reach EMBEDS
    there is tried: that needs n >= 3 and supp(s) outside st(t), and the
    chord, between two vertices of st(t), leaves st(t) as it is.
    A 2-regular graph is a plain cycle only when it is connected: a
    disjoint union of cycles gets no advisory."""
    m = len(g)
    if n < 3 or m < 5 or len(g.edges) != m:
        return []
    if any(len(g.neighbours(v)) != 2 for v in g.vertices):
        return []
    walk = [g.vertices[0]]
    for v in walk:  # grows while it is read
        walk += [u for u in g.neighbours(v) if u not in walk]
    if len(walk) != m:
        return []
    out = []
    for t in sorted(supp, key=g.index):
        st_t = star(g, t)
        if supp <= st_t:
            continue
        p, q = sorted(g.neighbours(t), key=g.index)
        if g.adjacent(p, q):
            continue
        chorded = _chorded(g, p, q)
        word_there = Word(chorded, nf.idx)
        try:
            rec = check_theorem_main(chorded, word_there, t, n)
        except (NotCyclicallyMinimal, TNotInSupport):
            continue
        if rec.verdict == EMBEDS:
            subset = tuple(v for v in g.vertices if v not in st_t)
            out.append(Conclusion(
                subset, RESTRICTED_EMBEDS, f"cycle_chord_reduction(t={t})"))
    return out


def magnus_verdict(g: CommutationGraph, s, n: int, t=None) -> FreiReport:
    """Aggregate the main theorem over candidate generators plus the
    amalgam corollaries into one report.

    When the graph has central vertices away from supp(s), the group
    splits off its centre as a direct factor and the verdict is computed
    on the complement and lifted.
    """
    nf = _relator_root(g, s, n)
    supp = support(g, nf)
    report = _verdict(g, nf, supp, n, t)
    report.advisories = _cycle_chord_advisories(g, nf, supp, n)
    return report


def _verdict(g, nf, supp, n, t):
    """magnus_verdict on a validated root nf with support supp, without
    the chord advisories."""
    candidates = [t] if t is not None else sorted(supp, key=g.index)
    per_t = []
    pieces = []
    order_claims = []
    wp = cp = None

    for cand in candidates:
        rec = _theorem_main(g, nf, supp, cand, n)
        per_t.append(rec)
        if rec.verdict == EMBEDS:
            pieces.append(Conclusion(
                _subset_without(g, cand), EMBEDS, "theorem_main"))
            order_claims.append(n)
            if n >= 4:
                wp = DECIDABLE

    amalgam, am_conclusions, am_order, am_wp, am_cp = _amalgam(g, nf, supp, n)
    pieces.extend(am_conclusions)
    if am_order is not None:
        order_claims.append(am_order)
    wp = am_wp or wp
    cp = am_cp or cp

    # centre reduction: quotient questions factor through the complement
    # of the central vertices when the relator avoids them
    centre, sub_g = _centre_split(g)
    if sub_g is not None and supp and not (supp & centre):
        sub_report = _verdict(sub_g, _project_root(sub_g, g, nf), supp, n, None)
        for c in sub_report.conclusions:
            if c.status == UNKNOWN:
                continue
            lifted = tuple(v for v in g.vertices
                           if v in set(c.subset) or v in centre)
            pieces.append(Conclusion(
                lifted, c.status, c.justification + "; centre_split", c.witness))
        if sub_report.order_of_s != "unknown":
            order_claims.append(sub_report.order_of_s)
        if sub_report.word_problem == DECIDABLE:
            wp = DECIDABLE
        if sub_report.conjugacy_problem == DECIDABLE:
            cp = DECIDABLE

    for cand in candidates:
        pieces.append(Conclusion(_subset_without(g, cand), UNKNOWN, "no_theorem_applies"))

    conclusions = _merge_conclusions(pieces)
    if len(set(order_claims)) > 1:
        raise ConflictingVerdicts(f"order claims disagree: {order_claims}")
    order = order_claims[0] if order_claims else "unknown"
    return FreiReport(
        graph=g, s=nf, n=n, per_t=per_t, amalgam=amalgam,
        conclusions=conclusions, order_of_s=order,
        word_problem=wp or "unknown", conjugacy_problem=cp or "unknown",
    )


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
