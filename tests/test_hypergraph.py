"""Hypergraph parsing, validation, metric structure and generators."""

import itertools
import random
from importlib import resources

import pytest

from hypercurv import (
    clique_expansion,
    degree,
    diameter,
    generate,
    graph_distance,
    Hypergraph,
    parse_hypergraph,
)
from hypercurv.errors import (
    BadParams,
    DuplicateHyperedge,
    EmptyInput,
    LoopFound,
    NotConnected,
    NotSimple,
    UnknownVertex,
)

from conftest import random_hypergraph


class TestParse:
    def test_minimal_two_edges(self):
        H = parse_hypergraph("a b c\nb d")
        assert H.n == 4
        assert len(H.edges) == 2
        assert H.validation_report().ok

    def test_grid9_file(self):
        text = (resources.files("hypercurv") / "data" / "grid9.hg").read_text()
        H = parse_hypergraph(text)
        assert H.n == 9
        assert len(H.edges) == 4
        assert H.validation_report().ok

    def test_subset_edge_not_simple(self):
        with pytest.raises(NotSimple) as err:
            parse_hypergraph("a b c d\nb c")
        assert "line" in str(err.value)

    def test_loop_rejected(self):
        with pytest.raises(LoopFound) as err:
            parse_hypergraph("a b\nc")
        assert "line 2" in str(err.value)

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateHyperedge):
            parse_hypergraph("a b\nb a")

    @pytest.mark.parametrize("strict", [True, False])
    def test_repeated_label_rejected(self, strict):
        # a line is a set of labels: a repeat is an error, not a merge,
        # as it is for the Hypergraph constructor
        with pytest.raises(DuplicateHyperedge) as err:
            parse_hypergraph("b c\na a b\n", strict=strict)
        assert "line 2" in str(err.value) and "'a'" in str(err.value)
        with pytest.raises(DuplicateHyperedge):
            Hypergraph(["a", "b", "c"], [["a", "a", "b"], ["b", "c"]])

    def test_disconnected(self):
        with pytest.raises(NotConnected):
            parse_hypergraph("a b\nc d")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_hypergraph("# only a comment\n\n")

    def test_nonstrict_keeps_findings(self):
        H = parse_hypergraph("a b c d\nb c\ne f", strict=False)
        rep = H.validation_report()
        assert not rep.simple
        assert not rep.connected
        assert rep.violations

    @pytest.mark.parametrize("text,error", [
        ("a b c d\nb c\ne f", NotSimple),
        ("a b\nc\nb a", LoopFound),
        ("a b\nb a\nc d", DuplicateHyperedge),
        ("a b\nc d", NotConnected),
    ])
    def test_require_valid_raises_first_finding(self, text, error):
        H = parse_hypergraph(text, strict=False)
        with pytest.raises(error) as err:
            H.require_valid()
        assert str(err.value) == H.validation_report().violations[0]

    def test_nonstrict_parses_loop_demos(self):
        # inspection mode tolerates loops/containment/disconnection
        H = parse_hypergraph("a b c d\nc d\ne\ne f", strict=False)
        rep = H.validation_report()
        assert any("loop" in v for v in rep.violations)
        assert any("contained" in v for v in rep.violations)
        assert not rep.connected

    def test_comments_and_blanks_ignored(self):
        H = parse_hypergraph("# header\n\na b  # trailing\n\nb c\n")
        assert H.n == 3
        assert len(H.edges) == 2


class TestMetric:
    def test_complete_distance(self):
        H = generate("complete", 4)
        for x, y in itertools.combinations(H.vertices, 2):
            assert graph_distance(H, x, y) == 1

    def test_grid9_xy_adjacent(self):
        H = generate("grid9")
        assert graph_distance(H, "x", "y") == 1

    def test_path_end_to_end(self):
        H = generate("path", 2)
        assert graph_distance(H, "v0", "v2") == 2

    def test_unknown_vertex(self):
        H = generate("path", 2)
        with pytest.raises(UnknownVertex):
            graph_distance(H, "v0", "nope")

    def test_metric_axioms_exhaustive(self):
        rng = random.Random(5)
        for _ in range(10):
            H = random_hypergraph(rng)
            mat = H.distance_matrix()
            n = H.n
            for a in range(n):
                assert mat[a][a] == 0
                for b in range(n):
                    assert mat[a][b] == mat[b][a]
                    assert (mat[a][b] == 0) == (a == b)
                    for c in range(n):
                        assert mat[a][c] <= mat[a][b] + mat[b][c]

    def test_same_hyperedge_distance_one(self):
        rng = random.Random(6)
        for _ in range(10):
            H = random_hypergraph(rng)
            for e in H.edges:
                for a, b in itertools.combinations(e, 2):
                    assert H.distance_id(a, b) == 1


class TestDegreeDiameter:
    def test_complete_degree(self):
        H = generate("complete", 5)
        assert degree(H, "v0") == 4

    def test_grid9_degrees(self):
        H = generate("grid9")
        assert degree(H, "x") == 8
        assert degree(H, "y") == 3

    def test_path_endpoint_degree(self):
        H = generate("path", 3)
        assert degree(H, "v0") == 1
        assert degree(H, "v1") == 2

    def test_diameters(self):
        assert diameter(generate("complete", 6)) == 1
        assert diameter(generate("cycle", 6)) == 3
        assert diameter(generate("path", 5)) == 5

    def test_degree_incidence_consistency(self):
        rng = random.Random(7)
        for _ in range(10):
            H = random_hypergraph(rng)
            for v in range(H.n):
                union = set()
                for k in H.incidence[v]:
                    union.update(H.edges[k])
                union.discard(v)
                assert H.degree_id(v) == len(union)


class TestGenerate:
    def test_cycle_2_equals_complete_2(self):
        assert generate("cycle", 2).edges == generate("complete", 2).edges

    def test_ladder_shape(self):
        H = generate("ladder", 3)
        assert H.n == 8
        assert graph_distance(H, "b0", "b3") == 3
        assert graph_distance(H, "t0", "t3") == 3
        assert degree(H, "b0") == 2

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generate("complete", 1)
        with pytest.raises(BadParams):
            generate("path", 0)
        with pytest.raises(BadParams):
            generate("nope", 3)


class TestCliqueExpansion:
    def test_single_hyperedge_becomes_clique(self):
        H = parse_hypergraph("a b c d")
        G = clique_expansion(H)
        assert len(G.edges) == 6
        assert all(len(e) == 2 for e in G.edges)

    def test_graph_is_fixed_point(self):
        H = generate("cycle", 5)
        G = clique_expansion(H)
        assert sorted(G.edges) == sorted(H.edges)

    def test_grid9_expands_to_twenty_edges(self):
        G = clique_expansion(generate("grid9"))
        assert len(G.edges) == 20

    def test_distances_preserved(self):
        rng = random.Random(8)
        for _ in range(10):
            H = random_hypergraph(rng)
            G = clique_expansion(H)
            for a in range(H.n):
                for b in range(H.n):
                    da = H.distance_id(a, b)
                    db = G.distance_id(G.vertex_id(H.label(a)),
                                       G.vertex_id(H.label(b)))
                    assert da == db


class TestCutGroups:
    """Per hyperedge, the components of the hypergraph without it, all but
    one largest (see Hypergraph.cut_groups)."""

    @staticmethod
    def _labelled(H):
        return [[{H.label(v) for v in grp} for grp in groups]
                for groups in H.cut_groups()]

    def test_grid9_private_corners(self):
        # each 2x2 block is no cut: the groups are its private corner
        H = generate("grid9")
        assert self._labelled(H) == [[{"v1"}], [{"v3"}], [{"y"}], [{"v9"}]]

    def test_path_every_edge_a_cut(self):
        # the smaller side of each edge; on a tie the first side is left out
        assert self._labelled(generate("path", 4)) == [
            [{"v0"}], [{"v0", "v1"}], [{"v3", "v4"}], [{"v4"}]]
        assert self._labelled(generate("path", 3)) == [
            [{"v0"}], [{"v2", "v3"}], [{"v3"}]]

    def test_no_cut_no_group(self):
        assert self._labelled(generate("cycle", 5)) == [[]] * 5
        assert self._labelled(generate("complete", 4)) == [[]] * 6

    def test_single_edge_leaves_one_vertex_out(self):
        H = parse_hypergraph("a b c")
        assert self._labelled(H) == [[{"b"}, {"c"}]]

    @staticmethod
    def _components_without(H, k):
        # merge the vertex sets of every hyperedge but k
        comp = {v: frozenset([v]) for v in range(H.n)}
        for j, e in enumerate(H.edges):
            if j != k:
                merged = frozenset().union(*(comp[v] for v in e))
                comp.update(dict.fromkeys(merged, merged))
        return set(comp.values())

    def test_components_but_one_largest(self):
        # the groups and what they leave out are the components without
        # the hyperedge, and none of the groups is larger than the rest
        rng = random.Random(23)
        for _ in range(200):
            H = random_hypergraph(rng)
            for k, groups in enumerate(H.cut_groups()):
                parts = [frozenset(grp) for grp in groups]
                rest = frozenset(range(H.n)).difference(*parts)
                assert set(parts) | {rest} == self._components_without(H, k)
                assert len(parts) + 1 == len(self._components_without(H, k))
                assert all(len(p) <= len(rest) for p in parts)
                assert all(list(grp) == sorted(grp) for grp in groups)

    def test_cached(self):
        H = generate("path", 4)
        assert H.cut_groups() is H.cut_groups()
