"""Parabolic subgroups, double coset representatives and malnormality.

For a vertex subset Y the canonical parabolic is the subgroup generated
by Y.  Every element factors as u . d . v with u, v in the parabolic and
d without left or right divisor in it; d is the unique shortest element
of its double coset, and serves as the coset's canonical symbol.
"""

from __future__ import annotations

from .errors import NotAClique
from .graphs import CommutationGraph, is_clique
from .words import (
    NormalForm,
    Word,
    _Frozen,
    _set_field,
    _reduced_idx,
    canon_letters,
    canonical_split,
    invert_letters,
    support,
)


class ParabolicContext(_Frozen):
    __slots__ = ("graph", "subset")  # subset: vertex names generating it

    def __init__(self, graph: CommutationGraph, subset: frozenset):
        graph.check_subset(subset)
        _set_field(self, "graph", graph)
        _set_field(self, "subset", subset)

    @property
    def subset_idx(self):
        return frozenset(self.graph.index(v) for v in self.subset)


def parabolic(graph: CommutationGraph, subset) -> ParabolicContext:
    return ParabolicContext(graph, frozenset(subset))


class DoubleCosetRep(_Frozen):
    __slots__ = ("left", "core", "right")

    def __init__(self, left: NormalForm, core: NormalForm, right: NormalForm):
        _set_field(self, "left", left)
        _set_field(self, "core", core)
        _set_field(self, "right", right)


def parabolic_member(ctx: ParabolicContext, w) -> bool:
    """True iff the element lies in the parabolic: supp(w) inside Y."""
    return support(ctx.graph, w) <= ctx.subset


def strip_divisors(ctx: ParabolicContext, w) -> DoubleCosetRep:
    """Factor w = left . core . right with left, right in the parabolic and
    core without parabolic divisors on either side.  Left-greedy: the
    maximal left divisor is taken first.  The split runs on the canonical
    letters of w, so canonical_split's interior-hole rule leaves only
    right to linearise."""
    g = ctx.graph
    adj = g._adj_idx
    idx = _reduced_idx(g, w)
    left, core, right = canonical_split(adj, idx, ctx.subset_idx)
    parts = tuple(left), core, canon_letters(adj, right)
    left, core, right = (NormalForm(Word(g, p)) for p in parts)
    return DoubleCosetRep(left=left, core=core, right=right)


def oriented_symbol(adj, core):
    """Positively oriented double-coset symbol of a canonical core:
    (core, 1) or (canonical core^{-1}, -1), whichever is lex-smaller.
    The two have one length, so the first letter where they differ
    decides, under the letter order (generator, then + before -).

    The first letter of the canonical core^{-1} is the least inverse of
    a right-divisor letter of core, so when every such inverse comes
    after core[0], core is the symbol and core^{-1} is never built.  The
    right-divisor letters are read from the end of core while some
    generator commutes with every letter read.  A core of at most one
    letter is its own canonical form, so it is oriented by its sign."""
    if len(core) < 2:
        return (core, 1) if not core or core[0] > 0 else ((-core[0],), -1)
    x = core[0]
    key = 2 * abs(x) + (x < 0)  # the letter order as one int
    free = None
    for y in reversed(core):
        gen = abs(y)
        if (free is None or gen in free) and 2 * gen + (y > 0) <= key:
            break
        free = adj[gen] if free is None else free & adj[gen]
        if not free:
            return (core, 1)
    else:
        return (core, 1)
    inv = canon_letters(adj, invert_letters(core))
    for x, y in zip(core, inv):
        if x != y:
            if (abs(x), x < 0) < (abs(y), y < 0):
                break
            return (inv, -1)
    return (core, 1)


def double_coset_rep(ctx: ParabolicContext, w) -> NormalForm:
    """Canonical shortest representative of U w U (U the parabolic)."""
    return strip_divisors(ctx, w).core


def maln_support(adj, supp, bidx) -> bool:
    """Support criterion for Maln(<B>), B a nonempty clique given by its
    generator indices bidx: an element with support supp (generator
    indices) lies in Maln(<B>) iff supp is not inside B and for every b
    in B some generator of supp outside B fails to commute with b."""
    outside = supp - bidx
    return bool(outside) and not any(outside <= adj[b] for b in bidx)


def in_maln(g: CommutationGraph, B, w) -> bool:
    """Membership of w in Maln(<B>) = {x : x^{-1}<B>x meets <B> trivially}.

    Requires B to be a nonempty clique; then the support criterion of
    maln_support decides.  Elements of <B> are excluded by the
    definition.
    """
    B = set(B)
    if not B:
        raise NotAClique("B must be nonempty")
    if not is_clique(g, B):
        raise NotAClique(f"{sorted(B)} is not a clique")
    adj = g._adj_idx
    supp = {abs(x) for x in _reduced_idx(g, w)}
    return maln_support(adj, supp, frozenset(g.index(b) for b in B))
