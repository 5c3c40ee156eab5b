import itertools
import random

import pytest

from pcgroups.errors import (
    BadParameter,
    DuplicateVertex,
    GraphFormatError,
    SelfLoop,
    UnknownEndpoint,
    UnknownVertex,
)
from pcgroups.graphs import (
    build_graph,
    central_vertices,
    complement_components,
    cycle_with_chord,
    is_clique,
    is_independent,
    is_synchronised,
    link,
    parse_graph,
    star,
)

from oracles import NAME_RE, catalog


def test_build_graph_p4():
    g = build_graph(["a", "b", "c", "t"], [("t", "a"), ("a", "b"), ("b", "c")])
    assert g.vertices == ("a", "b", "c", "t")
    assert len(g.edges) == 3
    assert g.adjacent("t", "a") and not g.adjacent("t", "b")


def test_build_graph_single_vertex():
    g = build_graph(["a"], [])
    assert len(g) == 1 and not g.edges


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(["a", "b"], [("a", "a")])


def test_build_graph_rejects_duplicates_and_unknown():
    with pytest.raises(DuplicateVertex):
        build_graph(["a", "a"], [])
    with pytest.raises(UnknownEndpoint):
        build_graph(["a"], [("a", "b")])


def test_build_graph_rejects_names_that_are_not_tokens():
    # `a^-1` as a vertex would shadow the inverse of `a` in parse_word,
    # and format_word would print it as that inverse
    for names in (["a", "a^-1"], ["a", "2b"], ["a b"], [""], ["a", 3]):
        with pytest.raises(BadParameter):
            build_graph(names, [])
    g = build_graph(["a", "_b2"], [])
    assert g._letter == {"a": 1, "a^-1": -1, "_b2": 2, "_b2^-1": -2}
    # parse_graph reports a bad name by its line, before building
    with pytest.raises(GraphFormatError, match="line 2: bad vertex name"):
        parse_graph("# names\nvertices a a^-1\n")


def _accepts(make, name, error):
    try:
        make(name)
    except error:
        return False
    return True


def test_vertex_names_match_the_regex():
    # the hand check takes exactly the names NAME_RE matches, ASCII only,
    # in build_graph and in a vertices line of parse_graph
    rng = random.Random(23)
    chars = "ab_Z09^-\u00e9\u0663\u00b2\u00df\u212a\n"
    names = ["\u00e9", "1a", "_", "a\n", "ab_9", "", "a b", "if", "A1_",
             "\u212a", "a\u0663"]
    names += ["".join(rng.choice(chars) for _ in range(rng.randrange(1, 6)))
              for _ in range(3000)]
    for name in names:
        want = bool(NAME_RE.match(name))
        assert _accepts(lambda v: build_graph([v], []), name,
                        BadParameter) is want, name
        if name.split() == [name]:
            assert _accepts(lambda v: parse_graph(f"vertices {v}\n"), name,
                            GraphFormatError) is want, name


def test_link_cycle_with_chord():
    g = cycle_with_chord(5)
    assert link(g, {"t"}) == {"a1", "a4"}


def test_link_isolated_vertex():
    g = build_graph(["a", "b"], [])
    assert link(g, {"a"}) == set()


def test_link_of_pair_on_chorded_square():
    g = catalog()["C4'"]
    assert link(g, {"b", "d"}) == {"a", "c"}


def test_link_rejects_empty_set():
    with pytest.raises(BadParameter):
        link(cycle_with_chord(5), set())


def test_link_rejects_unknown_vertex():
    with pytest.raises(UnknownVertex):
        link(cycle_with_chord(5), {"zz"})


def test_clique_checks():
    g = cycle_with_chord(5)
    assert is_clique(g, {"a1", "a4"})
    assert is_clique(g, set())
    assert not is_clique(catalog()["C4"], {"a", "c"})


def test_independent_checks():
    assert is_independent(catalog()["C4'"], {"b", "d"})
    assert is_independent(cycle_with_chord(5), {"a2"})
    assert not is_independent(cycle_with_chord(5), {"a1", "a2"})


def test_synchronised_chorded_square():
    g = catalog()["C4'"]
    assert is_synchronised(g, {"a", "c"})
    assert is_synchronised(g, {"b", "d"})


def test_synchronised_path():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert is_synchronised(g, {"a", "b", "c"})
    # st(a) = {a,b} is inside {a,c} u lk({a,c}) = {a,b,c}, so {a,c} counts
    assert is_synchronised(g, {"a", "c"})
    # adjacent cycle vertices leak: st(a) reaches d but lk({a,b}) is empty
    assert not is_synchronised(catalog()["C4"], {"a", "b"})


def test_synchronised_restatement_agrees_by_enumeration():
    # st(v) <= Y u lk(Y) for all v in Y  <=>  no edge joins Y and the
    # residual set X = A \ (Y u lk(Y))
    for g in catalog().values():
        verts = list(g.vertices)
        for r in range(1, len(verts) + 1):
            for Y in itertools.combinations(verts, r):
                Y = set(Y)
                allowed = Y | link(g, Y)
                x_side = set(verts) - allowed
                no_cross = not any(
                    g.adjacent(x, y) for x in x_side for y in Y)
                assert is_synchronised(g, Y) == no_cross


def test_link_of_set_is_intersection_of_links():
    for g in catalog().values():
        verts = list(g.vertices)
        for r in range(1, len(verts) + 1):
            for Y in itertools.combinations(verts, r):
                expected = set(verts)
                for y in Y:
                    expected &= link(g, {y})
                assert link(g, set(Y)) == expected


def test_cycle_with_chord_shape():
    g = cycle_with_chord(5)
    assert len(g) == 5 and len(g.edges) == 6
    assert is_clique(g, link(g, {"t"}))
    degrees = sorted(len(g.neighbours(v)) for v in g.vertices)
    assert degrees == [2, 2, 2, 3, 3]
    assert {v for v in g.vertices if len(g.neighbours(v)) == 3} == {"a1", "a4"}


def test_cycle_with_chord_rejects_small_n():
    with pytest.raises(BadParameter):
        cycle_with_chord(4)


def test_complement_components():
    g = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert complement_components(g, {"a", "b", "c"}) == [{"a"}, {"b"}, {"c"}]
    g2 = build_graph(["a", "b"], [])
    assert complement_components(g2, {"a", "b"}) == [{"a", "b"}]
    g3 = cycle_with_chord(5)
    assert complement_components(g3, {"a1", "a3"}) == [{"a1", "a3"}]


def test_central_vertices():
    g = build_graph(["a", "b", "z"], [("z", "a"), ("z", "b")])
    assert central_vertices(g) == {"z"}
    assert central_vertices(catalog()["C4"]) == set()


def test_star():
    g = cycle_with_chord(5)
    assert star(g, "t") == {"t", "a1", "a4"}


def test_parse_graph_roundtrip(tmp_path):
    text = """# chorded cycle
vertices t a1 a2 a3 a4
edge t a1
edge a1 a2
edge a2 a3
edge a3 a4
edge a4 t
edge a1 a4
"""
    g = parse_graph(text)
    assert g == cycle_with_chord(5)


def test_parse_graph_errors():
    with pytest.raises(GraphFormatError):
        parse_graph("edge a b\nvertices a b\n")
    with pytest.raises(GraphFormatError):
        parse_graph("vertices a b\nvertices c\n")
    with pytest.raises(GraphFormatError):
        parse_graph("vertices a b\nedge a\n")
    with pytest.raises(GraphFormatError):
        parse_graph("vertices a 2b\n")
    with pytest.raises(GraphFormatError):
        parse_graph("")
