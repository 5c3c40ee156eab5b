"""Commutation graphs: the defining data of a partially commutative group.

A CommutationGraph is a finite simple undirected graph.  Vertices are
generator names; an edge (x, y) declares that x and y commute.  Vertex
declaration order is significant: it fixes the total order used for
canonical forms everywhere downstream.
"""

from __future__ import annotations

import re

from .errors import (
    BadParameter,
    DuplicateVertex,
    GraphFormatError,
    SelfLoop,
    UnknownEndpoint,
    UnknownVertex,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class CommutationGraph:
    """Immutable simple graph over named generators.

    Internally vertices are also numbered 1..n in declaration order; the
    word machinery works on those indices.  Every vertex name is a word
    token (_NAME_RE), so the tokens `name` and `name^-1` of distinct
    letters differ and _letter maps each to its signed index.
    """

    __slots__ = ("vertices", "edges", "_index", "_adj", "_adj_idx", "_letter")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        seen = set()
        for v in self.vertices:
            if not (isinstance(v, str) and _NAME_RE.match(v)):
                raise BadParameter(f"vertex name {v!r} is not a word token")
            if v in seen:
                raise DuplicateVertex(f"duplicate vertex {v!r}")
            seen.add(v)
        self._index = {v: i + 1 for i, v in enumerate(self.vertices)}
        self._letter = {**self._index,
                        **{v + "^-1": -i for v, i in self._index.items()}}
        canon = set()
        for (u, v) in edges:
            if u == v:
                raise SelfLoop(f"self-loop at {u!r}")
            if u not in self._index:
                raise UnknownEndpoint(f"edge endpoint {u!r} is not a vertex")
            if v not in self._index:
                raise UnknownEndpoint(f"edge endpoint {v!r} is not a vertex")
            canon.add(frozenset((u, v)))
        self.edges = frozenset(canon)
        adj = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(s) for v, s in adj.items()}
        # index-based adjacency, 1-based; slot 0 unused
        n = len(self.vertices)
        idx_adj = [frozenset()] * (n + 1)
        for v, s in self._adj.items():
            idx_adj[self._index[v]] = frozenset(self._index[w] for w in s)
        self._adj_idx = tuple(idx_adj)

    # -- basic queries ------------------------------------------------

    def __contains__(self, v):
        return v in self._index

    def __len__(self):
        return len(self.vertices)

    def __eq__(self, other):
        return (isinstance(other, CommutationGraph)
                and self.vertices == other.vertices
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        es = sorted(tuple(sorted(e, key=self.index)) for e in self.edges)
        return f"CommutationGraph({list(self.vertices)}, {es})"

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def name(self, i):
        return self.vertices[i - 1]

    def adjacent(self, u, v):
        self.index(u), self.index(v)
        return v in self._adj[u]

    def neighbours(self, v):
        self.index(v)
        return set(self._adj[v])

    def check_subset(self, Y):
        for v in Y:
            self.index(v)

    def induced(self, Y):
        """Full subgraph on Y, vertices kept in declaration order."""
        self.check_subset(Y)
        ys = set(Y)
        verts = [v for v in self.vertices if v in ys]
        edges = [tuple(e) for e in self.edges if e <= ys]
        return CommutationGraph(verts, edges)


def build_graph(vertices, edges) -> CommutationGraph:
    """Validate and build a commutation graph."""
    return CommutationGraph(vertices, edges)


def link(g: CommutationGraph, Y) -> set:
    """lk(Y) = intersection of the neighbour sets of the members of Y.

    Y must be nonempty: the underlying theory only applies lk to nonempty
    supports, so lk(emptyset) is rejected rather than defined as all of A.
    """
    Y = list(Y)
    if not Y:
        raise BadParameter("link of the empty set is not defined")
    g.check_subset(Y)
    result = set(g._adj[Y[0]])
    for v in Y[1:]:
        result &= g._adj[v]
    return result


def star(g: CommutationGraph, v) -> set:
    """st(v) = lk(v) together with v itself."""
    s = g.neighbours(v)
    s.add(v)
    return s


def is_clique(g: CommutationGraph, Y) -> bool:
    """True iff every pair in Y is an edge; the empty set and singletons count."""
    Y = list(Y)
    g.check_subset(Y)
    for i in range(len(Y)):
        for j in range(i + 1, len(Y)):
            if Y[j] not in g._adj[Y[i]]:
                return False
    return True


def is_independent(g: CommutationGraph, Y) -> bool:
    """True iff no pair in Y is an edge."""
    Y = list(Y)
    g.check_subset(Y)
    for i in range(len(Y)):
        for j in range(i + 1, len(Y)):
            if Y[j] in g._adj[Y[i]]:
                return False
    return True


def is_synchronised(g: CommutationGraph, Y) -> bool:
    """True iff st(v) is contained in Y union lk(Y) for every v in Y.

    A synchronised Y induces the amalgam splitting of the whole group
    along the parabolic over lk(Y).
    """
    Y = set(Y)
    if not Y:
        raise BadParameter("synchronised is not defined for the empty set")
    g.check_subset(Y)
    allowed = Y | link(g, Y)
    return all(star(g, v) <= allowed for v in Y)


def cycle_with_chord(n: int) -> CommutationGraph:
    """The n-cycle t, a1, ..., a_{n-1} with the extra chord a1 -- a_{n-1}.

    Requires n >= 5.  lk(t) = {a1, a_{n-1}} is a clique thanks to the chord.
    """
    if n < 5:
        raise BadParameter(f"cycle_with_chord needs n >= 5, got {n}")
    g = plain_cycle(n)
    return CommutationGraph(g.vertices, [tuple(e) for e in g.edges]
                            + [("a1", f"a{n-1}")])


def plain_cycle(n: int) -> CommutationGraph:
    """The n-cycle t, a1, ..., a_{n-1} without the chord."""
    if n < 3:
        raise BadParameter(f"plain_cycle needs n >= 3, got {n}")
    verts = ["t"] + [f"a{i}" for i in range(1, n)]
    edges = [("t", "a1"), (f"a{n-1}", "t")]
    edges += [(f"a{i}", f"a{i+1}") for i in range(1, n - 1)]
    return CommutationGraph(verts, edges)


def _complement_components(adj, ys) -> list:
    """Connected components of the complement graph on the generator
    indices ys, as index sets ordered by their least index.  adj is the
    graph's index adjacency."""
    comps, rest = [], set(ys)
    while rest:
        comp = [min(rest)]
        rest.discard(comp[0])
        for b in comp:  # grows while it is read
            new = rest - adj[b]
            rest -= new
            comp += new
        comps.append(set(comp))
    return comps


def complement_components(g: CommutationGraph, Y) -> list:
    """Connected components of the complement graph restricted to Y.

    Returned as a list of vertex sets, ordered by the declaration order of
    their smallest member.  The block decomposition and conjugate_test
    run the same search on generator indices.
    """
    ys = {g.index(v) for v in Y}
    return [{g.name(i) for i in comp}
            for comp in _complement_components(g._adj_idx, ys)]


def central_vertices(g: CommutationGraph) -> set:
    """Vertices adjacent to every other vertex; they generate the centre."""
    n = len(g)
    return {v for v in g.vertices if len(g._adj[v]) == n - 1}


def parse_graph(text: str) -> CommutationGraph:
    """Parse the graph file format.

    Lines: ``vertices <name>...``, ``edge <u> <v>``, ``#`` comments and
    blank lines.  Exactly one vertices line, and it must precede any edge
    line.
    """
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if vertices is not None:
                raise GraphFormatError(f"line {lineno}: second vertices line")
            if len(parts) == 1:
                raise GraphFormatError(f"line {lineno}: empty vertices line")
            for name in parts[1:]:
                if not _NAME_RE.match(name):
                    raise GraphFormatError(
                        f"line {lineno}: bad vertex name {name!r}")
            vertices = parts[1:]
        elif parts[0] == "edge":
            if vertices is None:
                raise GraphFormatError(
                    f"line {lineno}: edge before vertices line")
            if len(parts) != 3:
                raise GraphFormatError(
                    f"line {lineno}: edge wants exactly two endpoints")
            edges.append((parts[1], parts[2]))
        else:
            raise GraphFormatError(
                f"line {lineno}: unknown directive {parts[0]!r}")
    if vertices is None:
        raise GraphFormatError("no vertices line")
    try:
        return build_graph(vertices, edges)
    except (DuplicateVertex, UnknownEndpoint, SelfLoop) as exc:
        raise GraphFormatError(str(exc)) from exc


def load_graph(path) -> CommutationGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_graph(text)
