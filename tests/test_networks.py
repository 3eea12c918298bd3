import hashlib
import itertools

import pytest

import oracles
from graphbao import ags, networks
from graphbao.atoms import Atom, all_sigmas, canonical_partition
from graphbao.errors import IncoherentPatchError
from graphbao.graph import complete_graph, cycle_graph, path_graph
from graphbao.networks import (GameMove, PatchSystem, UfNetwork, boundary,
                               exists_responses, exists_survives, forall_moves,
                               initial_network, is_coherent, network_from_json,
                               network_from_patch, network_to_json, paper_response,
                               patch_system_coherent, sample_play,
                               ultrafilter_for_tuple, validate_network)
from oracles import (coherent_via_atom_search, moves_up_to_orbit, naive_game_moves,
                     naive_game_responses, naive_survives, network_from_patch_by_orbits,
                     pruned_game_responses, thinned_injective_model, thinned_multiset_model,
                     validate_network_per_tuple)


@pytest.fixture
def table_engine(monkeypatch):
    """The game with the ∃ search on labels and substitution tables
    (oracles.extension_networks_by_tables) in place of the patch search."""
    monkeypatch.setattr(networks, "_extension_networks", oracles.extension_networks_by_tables)


def model_named(name, request):
    """A model fixture by name, or for a (g, step) name the K_g mutant of
    thinned_injective_model, which only the table search can run."""
    if isinstance(name, str):
        return request.getfixturevalue(name)
    request.getfixturevalue("table_engine")
    return thinned_injective_model(complete_graph(name[0]), name[1])


class TestValidate:
    def test_initial_network_valid(self, k1_model):
        net = initial_network(k1_model)
        label = k1_model.structure.atoms[net.labels[(0, 0, 0)]]
        assert label == Atom((None, None, None), (0, 0, 0))
        assert validate_network(net, k1_model, "polyadic") == []
        assert validate_network(net, k1_model, "cylindric") == []

    def test_diagonal_violation_detected(self, k1_model):
        # a non-collapsed label on a constant tuple
        pair = k1_model.structure.index_of(Atom((0, 0, None), (0, 0, 1)))
        net = UfNetwork(3, (0,), {(0, 0, 0): pair})
        kinds = {v["kind"] for v in validate_network(net, k1_model, "cylindric")}
        assert "diagonal" in kinds

    def test_fresh_tuples_check_matches_full_check(self, k1_model):
        collected = []
        exists_survives(k1_model, 2, collect=collected)
        extensions = [net for net in collected if len(net.nodes) == 3][:10]
        assert extensions
        natoms = k1_model.algebra.natoms
        deeper = []
        exists_survives(k1_model, 3, max_visits=8, collect=deeper)
        four_node = next(net for net in deeper if len(net.nodes) == 4)
        for net in extensions + [four_node]:
            fresh = sorted(t for t in net.labels if max(net.nodes) in t)
            assert validate_network(net, k1_model, "polyadic", tuples=fresh) == \
                validate_network(net, k1_model, "polyadic") == []
            for t in fresh:
                labels = dict(net.labels)
                labels[t] = (labels[t] + 1) % natoms
                bad = UfNetwork(3, net.nodes, labels)
                partial = validate_network(bad, k1_model, "polyadic", tuples=fresh)
                full = validate_network(bad, k1_model, "polyadic")
                assert any(v["tuple"] == t for v in partial)
                assert partial == [v for v in full if v["tuple"] in fresh]
            for bad in self.single_label_changes(net, k1_model):
                self.assert_matches_reference(bad, k1_model, tuples=fresh)

    @staticmethod
    def single_label_changes(net, m):
        """The network with one label replaced, for every tuple: by the next
        atom index, and by the next atom of the same diagonal pattern (which
        only the cylindric and polyadic conditions can reject); also with
        one label dropped and with its node list reversed."""
        natoms = m.algebra.natoms
        for t, lab in net.labels.items():
            same_pattern = [a for a in range(natoms)
                            if m.structure.atoms[a].sim == m.structure.atoms[lab].sim]
            for other in ((lab + 1) % natoms,
                          same_pattern[(same_pattern.index(lab) + 1) % len(same_pattern)]):
                yield UfNetwork(net.n, net.nodes, {**net.labels, t: other})
        dropped = dict(net.labels)
        dropped.pop(max(dropped))
        yield UfNetwork(net.n, net.nodes, dropped)
        yield UfNetwork(net.n, net.nodes[::-1], net.labels)

    @staticmethod
    def assert_matches_reference(net, m, tuples):
        """The batched checker returns the per-tuple reference's violations
        in the same order, in both modes, on all tuples and on `tuples`."""
        for mode in ("polyadic", "cylindric"):
            assert validate_network(net, m, mode) == validate_network_per_tuple(net, m, mode)
            assert validate_network(net, m, mode, tuples=tuples) == \
                validate_network_per_tuple(net, m, mode, tuples=tuples)

    def test_small_networks_match_reference(self, k1_model):
        empty = UfNetwork(3, (), {})
        assert validate_network(empty, k1_model) == []
        self.assert_matches_reference(empty, k1_model, tuples=[])
        one = initial_network(k1_model)
        changes = [UfNetwork(3, one.nodes, {(0, 0, 0): a})
                   for a in range(k1_model.algebra.natoms)]
        assert sum(bool(validate_network(net, k1_model)) for net in changes) == \
            k1_model.algebra.natoms - 1
        for net in changes + [UfNetwork(3, (0,), {})]:
            self.assert_matches_reference(net, k1_model, tuples=[(0, 0, 0)])

    def test_engine_networks_replay_valid(self, k1_model):
        collected = []
        exists_survives(k1_model, 1, collect=collected)
        assert collected
        for net in collected:
            assert validate_network(net, k1_model, "polyadic") == []


class TestBoundary:
    def test_single_assignment_on_two_nodes(self, k1_model):
        collected = []
        exists_survives(k1_model, 1, collect=collected)
        two_node = next(net for net in collected if len(net.nodes) == 2)
        patch = boundary(two_node, k1_model)
        assert set(patch.assign) == {frozenset(two_node.nodes)}

    def test_well_definedness_across_witnesses(self, k1_model):
        collected = []
        exists_survives(k1_model, 1, collect=collected)
        for net in collected:
            patch = boundary(net, k1_model)
            for v in itertools.product(net.nodes, repeat=3):
                for i in range(3):
                    others = [v[k] for k in range(3) if k != i]
                    if len(set(others)) != 2:
                        continue
                    point = k1_model.proj_point(net.labels[v], i)
                    if point is not None:
                        assert patch.assign[frozenset(others)] == point

    def test_boundary_of_initial_is_empty(self, k1_model):
        patch = boundary(initial_network(k1_model), k1_model)
        assert patch.assign == {}


class TestCoherence:
    def patch(self, points):
        nodes = (0, 1, 2)
        subsets = list(itertools.combinations(nodes, 2))
        return PatchSystem(nodes, {frozenset(s): p for s, p in zip(subsets, points)})

    def test_constant_assignment_incoherent(self, k1_model):
        p = self.patch((1, 1, 1))
        assert not is_coherent(p, (0, 1, 2), k1_model)

    def test_two_adjacent_points_coherent(self, k1_model):
        p = self.patch((0, 1, 0))
        assert is_coherent(p, (0, 1, 2), k1_model)

    def test_characterization_exhaustive(self, k1_model):
        for points in itertools.product(range(3), repeat=3):
            p = self.patch(points)
            assert is_coherent(p, (0, 1, 2), k1_model) == \
                coherent_via_atom_search(p, (0, 1, 2), k1_model)

    def test_patch_system_coherent_all_subsets(self, k1_model):
        assert patch_system_coherent(self.patch((0, 1, 2)), k1_model)

    @pytest.mark.parametrize("graph, n", [
        (complete_graph(1), 3), (complete_graph(2), 3), (complete_graph(3), 3),
        (path_graph(3), 3), (cycle_graph(5), 3), (complete_graph(1), 4), (complete_graph(2), 4)],
        ids=["K1n3", "K2n3", "K3n3", "P3n3", "C5n3", "K1n4", "K2n4"])
    def test_completions_follow_the_edge_rule(self, graph, n):
        # the search's table, read off the injective atoms, against the
        # graph: x completes the other n - 1 patches of an n-subset exactly
        # when is_coherent accepts the n patches
        m = ags.build_model(graph, n)
        nodes = tuple(range(n))
        faces = [frozenset(nodes) - {x} for x in nodes]
        assert len(m.completions) == m.vertex_count ** (n - 1)
        for others in itertools.product(range(m.vertex_count), repeat=n - 1):
            assert m.completions[others] == sum(
                1 << x for x in range(m.vertex_count)
                if is_coherent(PatchSystem(nodes, dict(zip(faces, others + (x,)))), nodes, m))


class TestUltrafilterForTuple:
    def patch(self, k1_model, points):
        nodes = (0, 1, 2)
        subsets = list(itertools.combinations(nodes, 2))
        return PatchSystem(nodes, {frozenset(s): p for s, p in zip(subsets, points)})

    def test_constant_tuple_gets_bottom(self, k1_model):
        p = self.patch(k1_model, (0, 1, 2))
        idx = ultrafilter_for_tuple(p, (1, 1, 1), k1_model)
        assert k1_model.structure.atoms[idx] == Atom((None, None, None), (0, 0, 0))

    def test_one_repeat_gets_unique_pair_atom(self, k1_model):
        p = self.patch(k1_model, (0, 1, 2))
        idx = ultrafilter_for_tuple(p, (0, 1, 1), k1_model)
        atom = k1_model.structure.atoms[idx]
        # pair block {1, 2}; the assigned point is the patch at {0, 1}
        assert atom.sim == (0, 1, 1)
        assert atom.k[1] == atom.k[2] == p.assign[frozenset((0, 1))]

    def test_injective_tuple_distinguishing_everywhere(self, k1_model):
        p = self.patch(k1_model, (0, 1, 2))
        idx = ultrafilter_for_tuple(p, (0, 1, 2), k1_model)
        atom = k1_model.structure.atoms[idx]
        assert atom.sim == (0, 1, 2)
        assert all(v is not None for v in atom.k)

    def test_incoherent_injective_raises(self, k1_model):
        p = self.patch(k1_model, (2, 2, 2))
        with pytest.raises(IncoherentPatchError):
            ultrafilter_for_tuple(p, (0, 1, 2), k1_model)

    def test_diagonal_pattern_always_matches(self, k1_model):
        p = self.patch(k1_model, (0, 1, 2))
        for v in itertools.product((0, 1, 2), repeat=3):
            if len(set(v)) == 3 and not is_coherent(p, tuple(set(v)), k1_model):
                continue
            idx = ultrafilter_for_tuple(p, v, k1_model)
            sim = k1_model.structure.atoms[idx].sim
            for i in range(3):
                for j in range(3):
                    assert (sim[i] == sim[j]) == (v[i] == v[j])


class TestNetworkFromPatch:
    def test_two_nodes_all_noninjective(self, k1_model):
        nodes = (0, 1)
        p = PatchSystem(nodes, {frozenset(nodes): 2})
        net = network_from_patch(p, k1_model)
        assert validate_network(net, k1_model, "polyadic") == []
        assert all(len(set(t)) < 3 for t in net.labels)

    def test_three_nodes_polyadic_valid(self, k1_model):
        nodes = (0, 1, 2)
        subsets = list(itertools.combinations(nodes, 2))
        p = PatchSystem(nodes, {frozenset(s): i for i, s in enumerate(subsets)})
        net = network_from_patch(p, k1_model)
        assert validate_network(net, k1_model, "polyadic") == []

    def test_rep_choice_does_not_change_validity(self, k1_model):
        # labelling each tuple from its own faces gives what propagating one
        # orbit representative's label through the tables gives, whichever
        # representative, on every coherent patch system over three nodes
        nodes = (0, 1, 2)
        subsets = list(itertools.combinations(nodes, 2))
        checked = 0
        for points in itertools.product(range(3), repeat=3):
            p = PatchSystem(nodes, dict(zip(map(frozenset, subsets), points)))
            if not patch_system_coherent(p, k1_model):
                continue
            net = network_from_patch(p, k1_model)
            for rep in itertools.permutations(range(3)):
                labels = network_from_patch_by_orbits(p, k1_model, rep)
                assert labels == net.labels
                assert validate_network(UfNetwork(3, nodes, labels), k1_model) == []
            checked += 1
        assert checked == 24

    @pytest.mark.parametrize("name, count", [("k1_model", 379), ("k2_model", 2917),
                                             ("k3_model", 9559), ("p3_model", 9343),
                                             ("k1_n4", 201)])
    def test_boundary_determines_network(self, name, count, request):
        m = request.getfixturevalue(name)
        collected = []
        exists_survives(m, 2, collect=collected)
        assert len(collected) == count
        for net in collected:
            assert network_from_patch(boundary(net, m), m) == net

    def test_partial_patch_system_is_an_internal_error(self, k1_model):
        # not a usage error: cli.main reports a ValueError with exit code 2
        p = PatchSystem((0, 1, 2), {frozenset((0, 1)): 0})
        with pytest.raises(RuntimeError, match="must be total"):
            network_from_patch(p, k1_model)

    def test_incoherent_patch_rejected(self, k1_model):
        nodes = (0, 1, 2)
        subsets = list(itertools.combinations(nodes, 2))
        p = PatchSystem(nodes, {frozenset(s): 0 for s in subsets})
        with pytest.raises(IncoherentPatchError):
            network_from_patch(p, k1_model)


class TestForallMoves:
    def test_nonempty_and_deterministic(self, k1_model):
        net = initial_network(k1_model)
        moves = forall_moves(k1_model, net)
        assert moves
        assert moves == forall_moves(k1_model, net)

    def test_self_move_present(self, k1_model):
        net = initial_network(k1_model)
        lab = net.labels[(0, 0, 0)]
        moves = forall_moves(k1_model, net)
        for i in range(3):
            assert GameMove((0, 0, 0), i, lab) in moves

    def test_matches_naive_move_oracle(self, k1_model):
        net = initial_network(k1_model)
        engine = {(mv.v, mv.i, mv.atom) for mv in forall_moves(k1_model, net)}
        assert engine == set(naive_game_moves(k1_model, net))

    @pytest.mark.parametrize("name, depth, pinned", [
        ("k1_model", 2, (1066, 16068)), ("k2_model", 2, (28033, 462459)),
        ("k1_n4", 1, (18, 328))])
    def test_moves_up_to_permutation_match_orbit_oracle(self, name, depth, pinned, request):
        # one move per class, the first in forall_moves' order, on every
        # distinct network the game reaches; pinned: (kept, generated)
        m = request.getfixturevalue(name)
        collected = []
        exists_survives(m, depth, collect=collected)
        kept = generated = 0
        for net in {net.key(): net for net in collected}.values():
            moves = forall_moves(m, net)
            reduced = networks._moves_up_to_permutation(m, net)
            assert reduced == moves_up_to_orbit(m, net, moves)
            kept, generated = kept + len(reduced), generated + len(moves)
        assert (kept, generated) == pinned


class TestExtensionPlan:
    """The plan of the oracle's search on labels."""

    @pytest.mark.parametrize("n, nodes, stride", [
        (3, (0, 1), 1), (3, (0, 1, 2), 1), (3, (0, 1, 2, 3), 1), (4, (0, 1, 2, 3, 4), 9)])
    def test_plan_labels_each_fresh_tuple_once(self, n, nodes, stride):
        """Per new maximal subset, in combinations order: its pattern, the
        images labelled before its pick, and its other images, each image
        tuple once with the first map that gives it."""
        z = nodes[-1]
        old = set(itertools.product(nodes[:-1], repeat=n))
        w0s = sorted({v[:i] + (z,) + v[i + 1:] for v in old for i in range(n)})
        if len(nodes) <= n:
            listings = [nodes + (z,) * (n - len(nodes))]
        else:
            listings = [c + (z,) for c in itertools.combinations(nodes[:-1], n - 1)]
        for w0 in [None] + w0s[::stride]:
            fresh, plan = oracles.subset_tables(n, nodes, w0)
            assert fresh == tuple(sorted(set(itertools.product(nodes, repeat=n)) - old))
            labelled = old | {w0} - {None}
            assert len(plan) == len(listings)
            for c, (pattern, images, free) in zip(listings, plan):
                assert pattern == canonical_partition(c)
                first = {}
                for rank, sigma in enumerate(all_sigmas(n)):
                    first.setdefault(tuple(c[s] for s in sigma), rank)
                assert sorted(images + free) == sorted((rank, u) for u, rank in first.items())
                assert all(u in labelled for _, u in images)
                assert not any(u in labelled for _, u in free)
                labelled |= set(first)
            assert labelled == old | set(fresh)


class TestExistsSurvives:
    def test_depth_zero_vacuous(self, k1_model):
        assert exists_survives(k1_model, 0).status == "survives"

    def test_depth_one_matches_naive_oracle(self, k1_model):
        verdict = exists_survives(k1_model, 1)
        oracle = naive_survives(k1_model, initial_network(k1_model), 1)
        assert (verdict.status == "survives") == oracle

    def test_response_sets_match_naive_oracle(self, k1_model):
        net = initial_network(k1_model)
        for move in forall_moves(k1_model, net):
            triple = (move.v, move.i, move.atom)
            engine = {n.key() for n in exists_responses(k1_model, net, move)}
            oracle = {n.key() for n in naive_game_responses(k1_model, net, triple)}
            assert engine == oracle
            assert oracle == {n.key() for n in
                              pruned_game_responses(k1_model, net, triple)}

    @pytest.fixture(scope="class")
    def two_node_oracle(self, k1_model):
        """A 2-node K1 network, and per move its pruned-oracle response keys."""
        net = initial_network(k1_model)
        net = next(resp for move in forall_moves(k1_model, net)
                   for resp in exists_responses(k1_model, net, move)
                   if len(resp.nodes) == 2)
        return net, [(move, {n.key() for n in pruned_game_responses(
            k1_model, net, (move.v, move.i, move.atom))}) for move in forall_moves(k1_model, net)]

    def test_response_sets_from_two_nodes_match_pruned_oracle(self, k1_model, two_node_oracle):
        net, oracle_sets = two_node_oracle
        assert len(oracle_sets) == 168
        for move, oracle in oracle_sets:
            engine = [n.key() for n in exists_responses(k1_model, net, move)]
            assert len(engine) == len(set(engine))
            assert set(engine) == oracle

    @pytest.mark.parametrize("name, depth", [
        ("k1_model", 1), ("k1_model", 2), ("k2_model", 2), ("k1_model", 3), ("k3_model", 2),
        ("p3_model", 2),
        *[pytest.param((g, step), depth, id=f"K{g}-thinned-{step}-{depth}")
          for g in (1, 2) for depth in (2, 3) for step in (2, 3, 5)]])
    def test_last_round_answer_matches_full_enumeration(self, name, depth, request):
        # collect forces the sorted enumeration, and every move, at every round;
        # a (g, step) name is a mutant that loses (model_named)
        m = model_named(name, request)
        fast, full = exists_survives(m, depth), exists_survives(m, depth, collect=[])
        assert (fast.status, fast.visited, fast.trace) == (full.status, full.visited, full.trace)

    @pytest.mark.parametrize("g, step, depth", [
        (g, step, depth) for g in (1, 2) for step in (2, 3, 5) for depth in (2, 3)])
    def test_multiset_mutant_verdicts_match_the_table_search(self, g, step, depth, request):
        m = thinned_multiset_model(complete_graph(g), step)
        patches = exists_survives(m, depth)
        request.getfixturevalue("table_engine")
        tables = exists_survives(m, depth)
        assert (patches.status, patches.visited, patches.trace) == (
            tables.status, tables.visited, tables.trace)

    def test_pinned_multiset_mutant_loses(self):
        # with every fifth value multiset of the injective atoms kept, no
        # answer to the demand of atom 7 at the constant tuple's coordinate 0
        # survives a second round
        verdict = exists_survives(thinned_multiset_model(complete_graph(1), 5), 2)
        assert (verdict.status, verdict.visited, verdict.trace) == (
            "loses", 3, [{"v": [0, 0, 0], "i": 0, "atom": 7}])

    @pytest.mark.parametrize("name, depth, unwitnessed", [
        ("k1_model", 2, 10251), ("k2_model", 2, 411948), ("k1_n4", 1, 196),
        pytest.param((2, 5), 2, 4851, id="K2-thinned-5-2")])
    def test_unwitnessed_demand_has_the_fresh_tuples_pattern(self, name, depth, unwitnessed,
                                                             request):
        # why a demand names w0's faces (_demand): an atom R_i-related to
        # label(v) whose pattern joins i to j is the label of v[i -> v[j]]
        m = model_named(name, request)
        collected = []
        exists_survives(m, depth, collect=collected)
        atoms, count = m.structure.atoms, 0
        for net in {net.key(): net for net in collected}.values():
            z = max(net.nodes) + 1
            for move in forall_moves(m, net):
                if not networks._witnessed(net, move):
                    w0 = move.v[:move.i] + (z,) + move.v[move.i + 1:]
                    assert atoms[move.atom].sim == canonical_partition(w0)
                    count += 1
        assert count == unwitnessed

    @pytest.mark.parametrize("name, moves", [
        ("k1_model", 516), ("k2_model", 3189), ("p3_model", 9750), ("k1_n4", 328)])
    def test_patch_search_matches_table_search_on_every_move(self, name, moves, request):
        # the same responses in the same order on every move of every
        # network the depth-1 game collects; lazily, each search walks its own
        # order, so only the first response's existence must agree
        m = request.getfixturevalue(name)
        collected = []
        exists_survives(m, 1, collect=collected)
        walked = 0
        for net in {net.key(): net for net in collected}.values():
            for move in forall_moves(m, net):
                witnessed = networks._witnessed(net, move)
                patches = [n.key() for n in networks._extension_networks(
                    m, net, move, witnessed, True)]
                assert patches == [n.key() for n in oracles.extension_networks_by_tables(
                    m, net, move, witnessed, True)]
                first = next(networks._extension_networks(m, net, move, witnessed, False), None)
                assert (first is None) == (not patches)
                assert first is None or first.key() in patches
                walked += 1
        assert walked == moves

    def test_last_round_response_from_two_nodes_in_pruned_oracle(self, k1_model,
                                                                 two_node_oracle):
        # the one response the last round asks for
        net, oracle_sets = two_node_oracle
        for move, oracle in oracle_sets:
            first = next(exists_responses(k1_model, net, move, ordered=False), None)
            assert (first is None) == (not oracle)
            assert first is None or first.key() in oracle

    def test_response_sets_from_three_nodes_match_pruned_oracle(self, k1_model, monkeypatch):
        # 4-node extensions: three new faces and three new 3-subsets, which overlap
        collected = []
        exists_survives(k1_model, 2, collect=collected)
        net = next(net for net in collected if len(net.nodes) == 3)
        moves = forall_moves(k1_model, net)
        assert len(moves) == 648
        tried = {networks: [], oracles: []}  # per search, the popcount of each mask it walks
        for module, walked in tried.items():
            monkeypatch.setattr(module, "iter_bits", lambda mask, walked=walked, bits=(
                module.iter_bits): walked.append(mask.bit_count()) or bits(mask))
        in_order = []
        for move in moves[::16]:
            engine = list(exists_responses(k1_model, net, move))
            oracle = pruned_game_responses(k1_model, net, (move.v, move.i, move.atom))
            assert {n.key() for n in engine} == {n.key() for n in oracle}
            witnessed = networks._witnessed(net, move)
            assert [n.key() for n in engine[witnessed:]] == [n.key() for n in (
                oracles.extension_networks_by_tables(k1_model, net, move, witnessed, True))]
            in_order += engine
        assert len(in_order) == 519
        assert self.digest(in_order) == "84f35c848ae091c3"
        # the candidates each search walks, summed over its picks: the
        # table search cuts each pick by the labels placed before it, so a
        # dead end shows one or two subsets later; the patch search checks
        # each new 3-subset at its last open face
        assert (sum(tried[networks]), sum(tried[oracles])) == (755, 1362)

    @staticmethod
    def digest(networks_in_order):
        """Pins the responses and the order they were found in."""
        keys = repr([net.key() for net in networks_in_order])
        return hashlib.sha256(keys.encode()).hexdigest()[:16]

    def test_pinned_k1_depth_two(self, k1_model):
        collected = []
        verdict = exists_survives(k1_model, 2, collect=collected)
        assert (verdict.status, verdict.visited, verdict.trace) == ("survives", 5, None)
        assert len(collected) == 379
        assert self.digest(collected) == "ac848c76f3de385e"

    def test_pinned_k2_depth_two_networks_all_valid(self, k2_model):
        collected = []
        verdict = exists_survives(k2_model, 2, collect=collected)
        assert (verdict.status, verdict.visited, verdict.trace) == ("survives", 8, None)
        assert len(collected) == 2917
        assert self.digest(collected) == "340ffe388ff1fb8a"
        for net in collected:
            assert validate_network(net, k2_model, "polyadic") == []

    @pytest.mark.parametrize("graph, depth, pinned", [
        (complete_graph(3), 2, (11, 9559, "fa5cc00e871e0f49")),
        (path_graph(3), 2, (11, 9343, "2dbf9b457d245eca")),
        (complete_graph(1), 3, (33, 10630, "e6c69274ecdb17a1"))], ids=["K3", "P3", "K1-depth3"])
    def test_pinned_depth_two(self, graph, depth, pinned):
        # three vertices: atoms of every pattern, and an edge missing on P3;
        # at depth 3 the game reaches 4-node extensions with overlapping subsets
        m = ags.build_model(graph, 3)
        collected = []
        verdict = exists_survives(m, depth, collect=collected)
        assert verdict.status == "survives" and verdict.trace is None
        assert (verdict.visited, len(collected), self.digest(collected)) == pinned

    @pytest.mark.parametrize("g, step, visited", [(1, 2, 21), (2, 5, 57)])
    def test_pinned_thinned_mutant_loses(self, g, step, visited, table_engine):
        # with only every step-th injective atom to pick from, no answer to the
        # first move (the constant tuple demands its own label) survives two rounds
        verdict = exists_survives(thinned_injective_model(complete_graph(g), step), 3)
        assert (verdict.status, verdict.visited, verdict.trace) == (
            "loses", visited, [{"v": [0, 0, 0], "i": 0, "atom": 0}])

    def test_depth_two_survives_and_monotone(self, k1_model):
        v2 = exists_survives(k1_model, 2)
        v1 = exists_survives(k1_model, 1)
        assert v2.status == "survives"
        if v2.status == "survives":
            assert v1.status == "survives"

    def test_budget_gives_unknown(self, k1_model):
        verdict = exists_survives(k1_model, 2, max_visits=2)
        assert verdict.status == "unknown"

    def test_depth_two_actually_grows_networks(self, k1_model):
        # guards against a vacuous depth-2 verdict: second fresh nodes happen
        collected = []
        exists_survives(k1_model, 2, collect=collected)
        assert {len(net.nodes) for net in collected} == {1, 2, 3}

    def test_verdict_and_visit_count_deterministic(self, k1_model):
        first = exists_survives(k1_model, 2)
        second = exists_survives(k1_model, 2)
        assert (first.status, first.visited) == (second.status, second.visited)


class TestPaperStrategy:
    def test_survives_depth_one(self, k1_model):
        assert exists_survives(k1_model, 1, strategy="paper").status == "survives"

    def test_precondition_failure_depth_two(self, k1_model):
        verdict = exists_survives(k1_model, 2, strategy="paper")
        assert verdict.status == "precondition_failed"
        assert verdict.round_failed == 1
        assert "independent" in verdict.reason

    def test_precondition_failure_on_k2_too(self, k2_model):
        verdict = exists_survives(k2_model, 2, strategy="paper")
        assert verdict.status == "precondition_failed"

    def test_paper_networks_valid(self, k1_model):
        collected = []
        exists_survives(k1_model, 1, strategy="paper", collect=collected)
        for net in collected:
            assert validate_network(net, k1_model, "polyadic") == []

    @pytest.mark.parametrize("name", ["k1_model", "k2_model", "p3_model"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_face_classes_keep_the_verdict_of_every_move(self, name, depth, request,
                                                         monkeypatch):
        m = request.getfixturevalue(name)
        classes = exists_survives(m, depth, strategy="paper")
        monkeypatch.setattr(networks, "_moves_up_to_permutation", forall_moves)
        every = exists_survives(m, depth, strategy="paper")
        assert (classes.status, classes.round_failed, classes.reason) == (
            every.status, every.round_failed, every.reason)

    def test_paper_response_keeps_old_labels(self, k1_model):
        net = initial_network(k1_model)
        move = next(mv for mv in forall_moves(k1_model, net)
                    if net.labels[mv.v] != mv.atom)
        net2 = paper_response(k1_model, net, move)
        assert net2.nodes == (0, 1)
        for t, lab in net.labels.items():
            assert net2.labels[t] == lab
        w0 = move.v[:move.i] + (1,) + move.v[move.i + 1:]
        assert net2.labels[w0] == move.atom


class TestGatedBoundaryCoherence:
    def test_boundary_coherent_when_theta_margin_holds(self):
        # chi(C3 x 3) = 9 > 6, so the 2n-margin condition holds here
        m = ags.build_model(cycle_graph(3), 3)
        assert ags.theta(m, 6)
        collected = []
        exists_survives(m, 1, collect=collected)
        three_node = None
        net = max(collected, key=lambda nn: len(nn.nodes))
        move = next(mv for mv in forall_moves(m, net)
                    if all(net.labels[w] != mv.atom
                           for w in [mv.v[:mv.i] + (x,) + mv.v[mv.i + 1:]
                                     for x in net.nodes]))
        three_node = next(iter(exists_responses(m, net, move)))
        assert len(three_node.nodes) == 3
        patch = boundary(three_node, m)
        assert patch_system_coherent(patch, m)


class TestTraceAndJson:
    def test_network_json_round_trip(self, k1_model):
        collected = []
        exists_survives(k1_model, 1, collect=collected)
        net = max(collected, key=lambda nn: len(nn.nodes))
        data = network_to_json(net)
        back = network_from_json(data, 3, k1_model.algebra.natoms)
        assert back.labels == net.labels and back.nodes == net.nodes

    def test_sample_play(self, k1_model):
        states = sample_play(k1_model, 2)
        assert states[0].round == 0
        assert len(states) >= 2
        for state in states:
            assert validate_network(state.network, k1_model, "polyadic") == []
