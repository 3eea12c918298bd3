"""End-to-end checks at n = 4, keeping the dimension-generic paths honest.

Golden numbers stay pinned at n = 3; these only assert structural facts that
hold at any supported dimension.
"""

from graphbao import ags, networks
from graphbao.atoms import enumerate_atoms, is_i_distinguishing
from graphbao.bao import complex_algebra
from graphbao.equations import check_ca_axioms, check_discriminator
from graphbao.graph import complete_graph


class TestAtomsN4:
    def test_counts_by_block_shape(self, k1_n4):
        # 4^4 - 4 total maps with an edge in the image, six pair partitions
        # times four vertices, and one empty atom per collapsed partition
        by_blocks = {}
        for atom in k1_n4.structure.atoms:
            by_blocks.setdefault(max(atom.sim) + 1, 0)
            by_blocks[max(atom.sim) + 1] += 1
        assert by_blocks[4] == 4 ** 4 - 4
        assert by_blocks[3] == 6 * 4
        assert by_blocks[2] == 7
        assert by_blocks[1] == 1

    def test_defined_iff_distinguishing(self, k1_n4):
        for atom in k1_n4.structure.atoms:
            for i in range(4):
                assert (atom.k[i] is not None) == is_i_distinguishing(atom.sim, i)


class TestAlgebraN4:
    def test_ca_axioms_sampled(self, k1_n4):
        report = check_ca_axioms(k1_n4.algebra, seed=1, samples=80)
        assert report.ok

    def test_discriminator(self, k1_n4):
        assert check_discriminator(k1_n4.algebra, seed=1).ok

    def test_ultrafilter_round_trip(self, k1_n4):
        algebra = k1_n4.algebra
        assert algebra.ultrafilter_structure().same_structure(algebra.rel)

    def test_ultrafilter_round_trip_at_twenty_thousand_atoms(self):
        # K3: 20,804 atoms; the read-back makes 1,762 c calls per
        # coordinate, not 20,804, and the check takes about half a second
        algebra = complex_algebra(enumerate_atoms(complete_graph(3), 4, max_atoms=21000))
        assert algebra.natoms == 20804
        assert algebra.ultrafilter_structure().same_structure(algebra.rel)


class TestModelN4:
    def test_theta_threshold(self, k1_n4):
        # the inflated graph is complete on four vertices
        assert ags.theta(k1_n4, 3)
        assert not ags.theta(k1_n4, 4)

    def test_rs_suite(self, k1_n4):
        assert ags.check_rs_properties(k1_n4, seed=1, samples=40).ok

    def test_substitution_suite_small(self, k1_n4):
        assert ags.check_substitution_properties(k1_n4, seed=1, samples=8).ok


class TestGameN4:
    def test_depth_one_survives_with_valid_networks(self, k1_n4):
        collected = []
        verdict = networks.exists_survives(k1_n4, 1, collect=collected)
        assert verdict.status == "survives"
        for net in collected:
            assert networks.validate_network(net, k1_n4, "polyadic") == []

    def test_paper_strategy_depth_one(self, k1_n4):
        assert networks.exists_survives(k1_n4, 1, strategy="paper").status == "survives"
