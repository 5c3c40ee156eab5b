"""Parabolic subgroups, double coset representatives and malnormality.

For a vertex subset Y the canonical parabolic is the subgroup generated
by Y.  Every element factors as u . d . v with u, v in the parabolic and
d without left or right divisor in it; d is the unique shortest element
of its double coset, and serves as the coset's canonical symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAClique
from .graphs import CommutationGraph, is_clique
from .words import (
    NormalForm,
    Word,
    _reduced_idx,
    invert_letters,
    lexmin_letters,
    split_letters,
    support,
)


@dataclass(frozen=True)
class ParabolicContext:
    graph: CommutationGraph
    subset: frozenset  # vertex names generating the parabolic

    def __post_init__(self):
        self.graph.check_subset(self.subset)

    @property
    def subset_idx(self):
        return frozenset(self.graph.index(v) for v in self.subset)


def parabolic(graph: CommutationGraph, subset) -> ParabolicContext:
    return ParabolicContext(graph, frozenset(subset))


@dataclass(frozen=True)
class DoubleCosetRep:
    left: NormalForm
    core: NormalForm
    right: NormalForm


def parabolic_member(ctx: ParabolicContext, w) -> bool:
    """True iff the element lies in the parabolic: supp(w) inside Y."""
    return support(ctx.graph, w) <= ctx.subset


def strip_divisors(ctx: ParabolicContext, w) -> DoubleCosetRep:
    """Factor w = left . core . right with left, right in the parabolic and
    core without parabolic divisors on either side.  Left-greedy: the
    maximal left divisor is taken first.  The maximal divisors are fixed
    by the element, so any geodesic of w (_reduced_idx) splits alike."""
    g = ctx.graph
    adj = g._adj_idx
    parts = split_letters(adj, _reduced_idx(g, w), ctx.subset_idx)
    left, core, right = (NormalForm(Word(g, lexmin_letters(adj, p)))
                         for p in parts)
    return DoubleCosetRep(left=left, core=core, right=right)


def oriented_symbol(adj, core):
    """Positively oriented double-coset symbol of a canonical core:
    (core, 1) or (canonical core^{-1}, -1), whichever is lex-smaller.
    The two have one length, so the first letter where they differ
    decides, under the letter order (generator, then + before -)."""
    inv = lexmin_letters(adj, invert_letters(core))
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
