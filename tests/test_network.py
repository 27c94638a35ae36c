import numpy as np
import pytest

from hwnas.network import (
    KIND_ADD,
    KIND_CLASSIFIER,
    KIND_CONCAT,
    KIND_GLOBAL_POOL,
    KIND_INPUT,
    KIND_OP,
    KIND_PROJECTION,
    BuildError,
    MacroConfig,
    TensorShape,
    build_cell,
    build_network,
    count_flops,
    count_params,
    network_costs,
)
from hwnas.search_space import GenomeError, enumerate_genomes, random_genome

from test_search_space import all_identity_genome, genome_from_rows


class TestCounts:
    def test_conv3x3(self):
        assert count_params("conv", 8, 8, 3) == 576

    def test_sep3x3(self):
        assert count_params("sep", 8, 8, 3) == 136

    def test_identity_and_pool_free(self):
        assert count_params("identity", 16, 16, 1) == 0
        assert count_params("max", 16, 16, 3) == 0
        assert count_params("global_pool", 64, 64) == 0

    def test_projection_and_classifier(self):
        assert count_params("projection1x1", 24, 48) == 24 * 48
        assert count_params("classifier", 120, 10) == 1200

    def test_flops_conv_on_4x4(self):
        assert count_flops("conv", TensorShape(4, 4, 8), 8, 3) == 576 * 16

    def test_flops_identity_zero(self):
        assert count_flops("identity", TensorShape(4, 4, 8), 8, 1) == 0

    def test_flops_add_element_count(self):
        assert count_flops(KIND_ADD, TensorShape(4, 4, 8), 8) == 128

    def test_flops_max_pool_comparisons(self):
        assert count_flops("max", TensorShape(4, 4, 8), 8, 3) == 9 * 16 * 8


class TestMacroConfig:
    def test_defaults(self):
        m = MacroConfig()
        assert (m.N, m.F, m.num_reduction_cells, m.num_classes) == (2, 24, 2, 10)
        assert m.input_shape == TensorShape(32, 32, 3)

    def test_indivisible_input_rejected(self):
        with pytest.raises(BuildError):
            MacroConfig(input_shape=TensorShape(30, 30, 3))

    def test_json_round_trip(self):
        m = MacroConfig(N=1, F=8, input_shape=TensorShape(16, 16, 3))
        assert MacroConfig.from_json_dict(m.to_json_dict()) == m


class TestBuildCell:
    def test_all_unused_concat_channels(self):
        # Every block reads only external inputs, so all 5 outputs concatenate.
        g = all_identity_genome()
        shape = TensorShape(32, 32, 24)
        cell = build_cell(g, shape, shape, filters=24, stride=1)
        out = cell.nodes[cell.output_id]
        assert out.kind == KIND_CONCAT
        assert out.out_shape.channels == 5 * 24

    def test_matching_shapes_insert_no_projection(self):
        g = all_identity_genome()
        shape = TensorShape(32, 32, 24)
        cell = build_cell(g, shape, shape, filters=24, stride=1)
        assert all(n.kind != KIND_PROJECTION for n in cell.nodes)
        assert cell.total_params == 0

    def test_stride2_halves_spatial(self):
        g = all_identity_genome()
        shape = TensorShape(32, 32, 24)
        cell = build_cell(g, shape, shape, filters=24, stride=2)
        assert cell.nodes[cell.output_id].out_shape.spatial() == (16, 16)

    def test_chain_genome_single_output(self):
        rows = [[0, 1, 1, 1]] + [[2 + b - 1, 2 + b - 1, 1, 1] for b in range(1, 5)]
        g = genome_from_rows(rows)
        shape = TensorShape(32, 32, 8)
        cell = build_cell(g, shape, shape, filters=8, stride=1)
        out = cell.nodes[cell.output_id]
        assert out.out_shape.channels == 8
        assert len(out.inputs) == 1

    def test_channel_mismatch_inserts_projection(self):
        g = all_identity_genome()
        cell = build_cell(g, TensorShape(32, 32, 40), TensorShape(32, 32, 40), filters=24, stride=1)
        projs = [n for n in cell.nodes if n.kind == KIND_PROJECTION]
        assert len(projs) == 2  # both external inputs are consumed and misaligned
        assert all(n.params == 40 * 24 for n in projs)

    def test_add_inputs_share_shape(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = random_genome(rng)
            cell = build_cell(g, TensorShape(16, 16, 13), TensorShape(32, 32, 7), filters=9, stride=1)
            by_id = {n.id: n for n in cell.nodes}
            for n in cell.nodes:
                if n.kind == KIND_ADD:
                    a, b = n.inputs
                    assert by_id[a].out_shape == by_id[b].out_shape == n.out_shape


class TestBuildNetwork:
    def test_default_macro_cell_count_and_shapes(self):
        g = all_identity_genome()
        net = build_network(g, MacroConfig())  # N=2, F=24
        concats = [n for n in net.nodes if n.kind == KIND_CONCAT]
        assert len(concats) == 8  # 2 + 1 + 2 + 1 + 2
        assert concats[-1].out_shape.spatial() == (8, 8)
        classifier = [n for n in net.nodes if n.kind == KIND_CLASSIFIER]
        assert len(classifier) == 1
        assert classifier[0].out_shape.channels == 10

    def test_totals_equal_node_sums(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_genome(rng)
            net = build_network(g, MacroConfig(N=1, F=8))
            assert net.total_params == sum(n.params for n in net.nodes)
            assert net.total_flops == sum(n.flops for n in net.nodes)

    def test_all_identity_params_in_projections_and_classifier_only(self):
        g = all_identity_genome()
        net = build_network(g, MacroConfig(N=1, F=1))
        weighted = {n.kind for n in net.nodes if n.params > 0}
        assert weighted <= {KIND_PROJECTION, KIND_CLASSIFIER}
        proj_and_cls = sum(
            n.params for n in net.nodes if n.kind in (KIND_PROJECTION, KIND_CLASSIFIER)
        )
        assert net.total_params == proj_and_cls

    def test_monotone_in_n_and_f(self):
        g = random_genome(np.random.default_rng(2))
        base = build_network(g, MacroConfig(N=1, F=8))
        deeper = build_network(g, MacroConfig(N=2, F=8))
        wider = build_network(g, MacroConfig(N=1, F=16))
        assert deeper.total_params >= base.total_params
        assert deeper.total_flops >= base.total_flops
        assert wider.total_params >= base.total_params
        assert wider.total_flops >= base.total_flops

    def test_filter_doubling_between_stages(self):
        g = all_identity_genome()
        net = build_network(g, MacroConfig(N=1, F=8))
        # Concat output channels double after each reduction: 5F, 5F, 5*2F, ...
        concat_channels = [n.out_shape.channels for n in net.nodes if n.kind == KIND_CONCAT]
        assert concat_channels == [40, 40, 80, 80, 160]

    def test_topological_order_and_dag(self):
        g = random_genome(np.random.default_rng(3))
        net = build_network(g, MacroConfig())
        for n in net.nodes:
            assert n.id == net.nodes.index(n)
            assert all(i < n.id for i in n.inputs)

    def test_first_cell_inputs_alias_network_input(self):
        g = genome_from_rows([[0, 1, 1, 1]] * 5)
        net = build_network(g, MacroConfig(N=1, F=3))
        first_ops = [n for n in net.nodes if n.kind == KIND_OP][:2]
        # input channels 3 == F, shapes match, so ops read the input node directly
        assert all(n.inputs == (0,) for n in first_ops)
        assert net.nodes[0].kind == KIND_INPUT

    def test_invalid_genome_rejected(self):
        g = genome_from_rows([[2, 0, 1, 1]] + [[0, 1, 1, 1]] * 4)
        with pytest.raises(Exception):
            build_network(g, MacroConfig())

    def test_global_pool_flattens(self):
        g = all_identity_genome()
        net = build_network(g, MacroConfig(N=1, F=4))
        pool = [n for n in net.nodes if n.kind == KIND_GLOBAL_POOL][0]
        assert pool.out_shape.spatial() == (1, 1)
        assert pool.params == 0


class TestNetworkCosts:
    MACROS = [
        MacroConfig(),
        MacroConfig(N=1, F=8),
        MacroConfig(N=3, F=5, num_reduction_cells=1),
        MacroConfig(N=1, F=1, num_reduction_cells=0),
    ]
    MACRO_ID = staticmethod(lambda m: f"N{m.N}-F{m.F}-R{m.num_reduction_cells}")

    @staticmethod
    def assert_graph_totals(genome, macro):
        net = build_network(genome, macro)
        assert network_costs(genome, macro) == (net.total_params, net.total_flops)

    @pytest.mark.parametrize("macro", MACROS, ids=MACRO_ID)
    def test_whole_one_block_space(self, macro):
        for g in enumerate_genomes(1):
            self.assert_graph_totals(g, macro)

    @pytest.mark.parametrize("num_blocks", [2, 3, 5])
    @pytest.mark.parametrize("macro", MACROS, ids=MACRO_ID)
    def test_random_genomes(self, macro, num_blocks):
        rng = np.random.default_rng(num_blocks)
        for _ in range(300):
            self.assert_graph_totals(random_genome(rng, num_blocks), macro)

    def test_counts_are_exact_ints(self):
        g = random_genome(np.random.default_rng(0))
        assert all(type(v) is int for v in network_costs(g, MacroConfig()))

    def test_projected_inputs_and_classifier(self):
        # Both inputs feed identities, so only the 1x1 projections and the
        # classifier hold weights.  One cell, F=4, on a 2x2x3 input: two
        # projections of 3*4 weights each, then 5 blocks concatenated into
        # 20 channels for 10 classes.  MACs add 5 adds of 2*2*4 elements.
        g = all_identity_genome()
        macro = MacroConfig(N=1, F=4, num_reduction_cells=0, input_shape=TensorShape(2, 2, 3))
        params, macs = network_costs(g, macro)
        assert params == 2 * 3 * 4 + 20 * 10
        assert macs == 2 * 3 * 4 * 4 + 5 * 4 * 4 + 20 * 10

    def test_invalid_genome_raises_the_build_error_text(self):
        g = genome_from_rows([[2, 0, 1, 1]] + [[0, 1, 1, 1]] * 4)
        with pytest.raises(GenomeError) as built:
            build_network(g, MacroConfig())
        with pytest.raises(GenomeError) as counted:
            network_costs(g, MacroConfig())
        assert str(counted.value) == str(built.value)
