"""Brute-force oracles, independent of the production rewriting paths.

The element oracle explores the full closure of a word under adjacent
moves (swap a commuting pair, cancel an adjacent inverse pair), restarting
from any shorter word found; the shortest stratum of the closure is the
geodesic class and its lexicographic minimum is the oracle's canonical
form.  Cayley-graph distances come from breadth-first search keyed by
those canonical forms.
"""

from itertools import product

from pcgroups.graphs import (
    CommutationGraph,
    build_graph,
    cycle_with_chord,
    plain_cycle,
)


def _key(w):
    return tuple((abs(x), x < 0) for x in w)


def closure_canonical(adj, word):
    """Lex-least geodesic via exhaustive move closure."""
    w = tuple(word)
    while True:
        seen = {w}
        stack = [w]
        shorter = None
        while stack and shorter is None:
            cur = stack.pop()
            for i in range(len(cur) - 1):
                x, y = cur[i], cur[i + 1]
                if x == -y:
                    shorter = cur[:i] + cur[i + 2:]
                    break
                if x != y and abs(x) != abs(y) and abs(y) in adj[abs(x)]:
                    nxt = cur[:i] + (y, x) + cur[i + 2:]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        if shorter is None:
            return min(seen, key=_key)
        w = shorter


class CayleyOracle:
    """BFS distances over the ball of a given radius, nodes keyed by the
    closure canonical form; transitions are memoised."""

    def __init__(self, graph: CommutationGraph, radius: int):
        self.graph = graph
        self.adj = graph._adj_idx
        self.radius = radius
        self.letters = [s * i for i in range(1, len(graph) + 1)
                        for s in (1, -1)]
        self._memo = {}
        self.dist = {(): 0}
        frontier = [()]
        for layer in range(radius):
            nxt = []
            for node in frontier:
                for x in self.letters:
                    child = self.step(node, x)
                    if child not in self.dist:
                        self.dist[child] = layer + 1
                        nxt.append(child)
            frontier = nxt

    def step(self, node, letter):
        key = (node, letter)
        got = self._memo.get(key)
        if got is None:
            got = closure_canonical(self.adj, node + (letter,))
            self._memo[key] = got
        return got

    def geodesic_length(self, word):
        node = ()
        for x in word:
            node = self.step(node, x)
        return self.dist[node]

    def element_key(self, word):
        node = ()
        for x in word:
            node = self.step(node, x)
        return node


def all_words(n_gens, length):
    letters = [s * i for i in range(1, n_gens + 1) for s in (1, -1)]
    return product(letters, repeat=length)


def random_graph(rng, max_vertices=12):
    """Seeded random graph on 2..max_vertices vertices v0, v1, ... with an
    edge density drawn from 0.2, 0.5 and 0.8."""
    n = rng.randrange(2, max_vertices + 1)
    names = [f"v{i}" for i in range(n)]
    p = rng.choice((0.2, 0.5, 0.8))
    return build_graph(names, [(names[i], names[j]) for i in range(n)
                               for j in range(i + 1, n) if rng.random() < p])


def random_letters(rng, n_gens, length):
    return tuple(rng.randrange(1, n_gens + 1) * rng.choice((1, -1))
                 for _ in range(length))


def conjugacy_partition(graph, max_len):
    """Partition the ball of radius max_len into conjugacy classes by BFS
    over single-generator conjugations, never leaving the ball.

    Conjugate elements of the ball are always connected inside it: any
    element descends to its cyclically minimal core by single-letter
    conjugations through shorter elements, and cores of one class are
    linked by rotations at constant length.
    """
    oracle = CayleyOracle(graph, max_len)
    adj = graph._adj_idx
    letters = oracle.letters
    class_of = {}
    classes = []
    for node in sorted(oracle.dist, key=lambda w: (len(w), _key(w))):
        if node in class_of:
            continue
        cls = {node}
        stack = [node]
        while stack:
            cur = stack.pop()
            for x in letters:
                conj = closure_canonical(adj, (-x,) + cur + (x,))
                if len(conj) <= max_len and conj not in cls:
                    cls.add(conj)
                    stack.append(conj)
        cid = len(classes)
        classes.append(cls)
        for member in cls:
            class_of[member] = cid
    return oracle, class_of


def catalog():
    """Fixed catalog of twelve graphs on at most five vertices."""
    return {
        "K1": build_graph(["a"], []),
        "N2": build_graph(["a", "b"], []),
        "K2": build_graph(["a", "b"], [("a", "b")]),
        "P3": build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
        "K3": build_graph(["a", "b", "c"],
                          [("a", "b"), ("b", "c"), ("a", "c")]),
        "P4": build_graph(["a", "b", "c", "t"],
                          [("t", "a"), ("a", "b"), ("b", "c")]),
        "C4": build_graph(["a", "b", "c", "d"],
                          [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
        "C4'": build_graph(["a", "b", "c", "d"],
                           [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
                            ("a", "c")]),
        "K4": build_graph(["a", "b", "c", "d"],
                          [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                           ("b", "d"), ("c", "d")]),
        "N4": build_graph(["a", "b", "c", "d"], []),
        "C5": plain_cycle(5),
        "C'5": cycle_with_chord(5),
    }
