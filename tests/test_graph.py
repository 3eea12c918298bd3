import itertools
import random

import pytest

from graphbao.bitset import iter_bits
from graphbao.errors import SizeLimitError
from graphbao.graph import (Graph, VertexMap, brute_force_chromatic, chromatic_number,
                            complete_graph, compose_maps, cycle_graph, disjoint_union,
                            girth, graph_from_json, graph_to_dot, graph_to_json,
                            inflate, is_p_morphism, is_proper_coloring, is_surjective,
                            mycielskian, path_graph, search_high_girth_chromatic)
from oracles import (canonical_form, coverable_by_independent_sets, is_isomorphic,
                     remove_edge_girth)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def random_graph(nv, p, rng):
    edges = [(i, j) for i in range(nv) for j in range(i + 1, nv) if rng.random() < p]
    return Graph.from_edges(nv, edges)


def all_graphs(nv):
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(nv, [e for k, e in enumerate(pairs) if bits >> k & 1])


class TestGraphBasics:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_edge_listing(self):
        g = complete_graph(3)
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]
        assert g.edge_count() == 3

    def test_json_round_trip(self):
        g = petersen()
        data = graph_to_json(g)
        assert data["vertices"] == 10
        assert data["edges"] == sorted(data["edges"])
        assert all(u < v for u, v in data["edges"])
        assert graph_from_json(data).adj == g.adj

    def test_dot_export(self):
        text = graph_to_dot(complete_graph(2))
        assert "0 -- 1;" in text


class TestChromatic:
    def test_complete(self):
        chi, witness = chromatic_number(complete_graph(4))
        assert chi == 4
        assert is_proper_coloring(complete_graph(4), witness, 4)

    def test_odd_cycle(self):
        assert chromatic_number(cycle_graph(5))[0] == 3

    def test_empty_and_edgeless(self):
        assert chromatic_number(Graph(0, ()))[0] == 0
        assert chromatic_number(Graph(4, (0, 0, 0, 0)))[0] == 1

    def test_petersen_against_oracle(self):
        # 2-colorability refuted exhaustively, 3-coloring found by both solvers
        g = petersen()
        chi, witness = chromatic_number(g)
        oracle_chi, _ = brute_force_chromatic(g)
        assert chi == oracle_chi == 3
        assert is_proper_coloring(g, witness, 3)
        two = [c for c in itertools.product(range(2), repeat=10)
               if all(c[u] != c[v] for u, v in g.edges())]
        assert two == []

    def test_all_four_vertex_graphs_match_oracle(self):
        for g in all_graphs(4):
            assert chromatic_number(g)[0] == brute_force_chromatic(g)[0]

    def test_random_graphs_match_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng.randrange(5, 8), rng.uniform(0.2, 0.7), rng)
            chi, witness = chromatic_number(g)
            assert chi == brute_force_chromatic(g)[0]
            assert is_proper_coloring(g, witness, chi)
            assert max(witness, default=-1) + 1 == chi

    def test_witness_always_proper(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(9, 0.4, rng)
            chi, witness = chromatic_number(g)
            assert is_proper_coloring(g, witness, chi)


class TestGirth:
    def test_triangle(self):
        assert girth(complete_graph(3)) == 3

    def test_five_cycle(self):
        assert girth(cycle_graph(5)) == 5

    def test_trees_are_acyclic(self):
        assert girth(path_graph(5)) is None
        assert girth(Graph(1, (0,))) is None

    def test_matches_remove_edge_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng.randrange(4, 9), rng.uniform(0.15, 0.6), rng)
            assert girth(g) == remove_edge_girth(g)


class TestInflate:
    def test_single_vertex_gives_complete(self):
        g = inflate(Graph(1, (0,)), 3)
        assert is_isomorphic(g, complete_graph(3))

    def test_k2_brute_force_edges(self):
        # intra-copy pairs are the base edge, cross-copy pairs always edges
        g = inflate(complete_graph(2), 3)
        assert g.vertex_count == 6
        expected = set()
        for i in range(3):
            for j in range(3):
                for x in range(2):
                    for y in range(2):
                        u, v = i * 2 + x, j * 2 + y
                        if u < v and (i != j or (x != y)):
                            expected.add((u, v))
        assert set(g.edges()) == expected

    def test_vertex_layout(self):
        base = path_graph(3)
        g = inflate(base, 3)
        # (x, i) -> i*|g| + x; same-copy edges only where the base has them
        assert g.has_edge(0 * 3 + 0, 0 * 3 + 1)
        assert not g.has_edge(0 * 3 + 0, 0 * 3 + 2)
        assert g.has_edge(0 * 3 + 0, 2 * 3 + 0)

    def test_join_multiplies_chromatic_number(self):
        rng = random.Random(7)
        for _ in range(6):
            g = random_graph(rng.randrange(2, 6), 0.5, rng)
            assert chromatic_number(inflate(g, 3))[0] == 3 * chromatic_number(g)[0]

    def test_copy_swaps_are_automorphisms(self):
        base = path_graph(3)
        g = inflate(base, 3)
        nv = base.vertex_count
        for a, b in itertools.combinations(range(3), 2):
            perm = list(range(g.vertex_count))
            for x in range(nv):
                perm[a * nv + x], perm[b * nv + x] = perm[b * nv + x], perm[a * nv + x]
            for u in range(g.vertex_count):
                for v in range(g.vertex_count):
                    if u < v:
                        assert g.has_edge(u, v) == g.has_edge(perm[u], perm[v])


class TestPMorphism:
    def test_identity(self):
        g = petersen()
        f = VertexMap(g, g, tuple(range(10)))
        assert is_p_morphism(f) and is_surjective(f)

    def test_cycle_wrap(self):
        f = VertexMap(cycle_graph(6), cycle_graph(3), tuple(i % 3 for i in range(6)))
        assert is_p_morphism(f) and is_surjective(f)
        # enumerate both directions of the neighbour condition
        for x in range(6):
            images = {f(y) for y in iter_bits(cycle_graph(6).adj[x])}
            assert images == set(iter_bits(cycle_graph(3).adj[f(x)]))

    def test_constant_map_fails(self):
        k2 = complete_graph(2)
        assert not is_p_morphism(VertexMap(k2, k2, (0, 0)))

    def test_pullback_bounds_chromatic_number(self):
        # a surjective p-morphism pulls target colorings back to the source
        cases = [VertexMap(cycle_graph(6), cycle_graph(3), (0, 1, 2, 0, 1, 2)),
                 VertexMap(cycle_graph(12), cycle_graph(6),
                           tuple(i % 6 for i in range(12)))]
        for f in cases:
            assert is_p_morphism(f) and is_surjective(f)
            assert chromatic_number(f.source)[0] <= chromatic_number(f.target)[0]

    def test_compose(self):
        f = VertexMap(cycle_graph(12), cycle_graph(6), tuple(i % 6 for i in range(12)))
        g = VertexMap(cycle_graph(6), cycle_graph(3), tuple(i % 3 for i in range(6)))
        h = compose_maps(g, f)
        assert h.mapping == tuple(i % 3 for i in range(12))
        assert is_p_morphism(h)


class TestMycielski:
    def test_k2_gives_five_cycle(self):
        assert is_isomorphic(mycielskian(complete_graph(2)), cycle_graph(5))

    def test_grotzsch_values(self):
        g = mycielskian(cycle_graph(5))
        assert g.vertex_count == 11
        assert chromatic_number(g)[0] == 4
        assert girth(g) == 4

    def test_triangle_free_preserved(self):
        g = mycielskian(cycle_graph(7))
        assert girth(g) == 4


class TestUnion:
    def test_two_singletons(self):
        g = disjoint_union(Graph(1, (0,)), Graph(1, (0,)))
        assert g.vertex_count == 2 and g.edge_count() == 0

    def test_chi_is_max(self):
        rng = random.Random(13)
        for _ in range(6):
            g = random_graph(4, 0.5, rng)
            h = random_graph(5, 0.5, rng)
            assert chromatic_number(disjoint_union(g, h))[0] == max(
                chromatic_number(g)[0], chromatic_number(h)[0])

    def test_girth_is_min(self):
        assert girth(disjoint_union(cycle_graph(3), cycle_graph(5))) == 3


class TestSearch:
    def test_girth4_chi4(self):
        g = search_high_girth_chromatic(4, 4, seed=1)
        assert g is not None
        assert chromatic_number(g)[0] >= 4
        assert girth(g) in (None, 4, 5, 6, 7) and (girth(g) or 99) >= 4

    def test_odd_cycle_case(self):
        g = search_high_girth_chromatic(3, 3, seed=2)
        assert g is not None
        assert chromatic_number(g)[0] >= 3
        assert (girth(g) or 99) >= 3

    def test_budget_exhaustion(self):
        assert search_high_girth_chromatic(5, 4, budget=2, seed=3) is None

    def test_deterministic_under_seed(self):
        a = search_high_girth_chromatic(4, 4, seed=9)
        b = search_high_girth_chromatic(4, 4, seed=9)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.adj == b.adj

    def test_preconditions(self):
        with pytest.raises(ValueError):
            search_high_girth_chromatic(2, 4)


class TestIndependentSetCover:
    def test_matches_colorability(self):
        rng = random.Random(21)
        for _ in range(15):
            g = random_graph(rng.randrange(3, 7), 0.5, rng)
            chi = chromatic_number(g)[0]
            for k in range(0, chi + 2):
                assert coverable_by_independent_sets(g, k) == (k >= chi)


class TestCanonicalForm:
    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            canonical_form(petersen())

    def test_detects_isomorphism(self):
        g = cycle_graph(5)
        relabeled = Graph.from_edges(5, [(4, 3), (3, 1), (1, 0), (0, 2), (2, 4)])
        assert is_isomorphic(g, relabeled)
        assert not is_isomorphic(g, path_graph(5))
