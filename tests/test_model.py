from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from gmlp import layers as L
from gmlp import model as M
from gmlp import tensor as T
from gmlp.errors import ConfigError, DomainError, ShapeError
from gmlp.model import (
    ArchSpec,
    Model,
    count_complexity,
    parse_arch,
    predict_ops_gmlp,
    predict_ops_mlp,
    train_ops_gmlp,
)
from gmlp.tensor import Tensor
from evalcheck import assert_eval_logits
from gradcheck import projected

SYNTH_ARCH = "GSel-4-2, GFC, ReLU, BNorm, Concat, FC-2, Softmax"
# the benchmark's wide GMLP and its dense twin of the same widths
W2_ARCH = (
    "GSel-64-16, GFC, ReLU, BNorm, GPool-max, GFC, ReLU, BNorm, GPool-max, "
    "GFC, ReLU, BNorm, Concat, FC-10"
)
W2_MLP_ARCH = "FC-1024, ReLU, BNorm, FC-512, ReLU, BNorm, FC-256, ReLU, BNorm, FC-10"


class TestParse:
    def test_synth_arch(self):
        spec = parse_arch(SYNTH_ARCH, d=6)
        assert spec.kind == "gmlp"
        assert (spec.k, spec.m, spec.n_classes, spec.d) == (4, 2, 2, 6)
        assert spec.n_weight_layers == 2

    def test_pool_tokens(self):
        spec = parse_arch("GSel-8-2, GFC, ReLU, BNorm, GPool-mean, GFC, Concat, FC-3", d=10)
        assert [(b.tag, *b.args) for b in spec.blocks if b.tag == "pool"] == [("pool", "mean", 2)]
        assert spec.branching == 2
        spec4 = parse_arch("GSel-8-2, GFC, GPool-max-4, GFC, Concat, FC-3", d=10)
        assert spec4.branching == 4

    def test_mlp_arch(self):
        spec = parse_arch("FC-10, ReLU, BNorm, FC-5, Softmax", d=7)
        assert spec.kind == "mlp"
        assert spec.n_classes == 5
        assert spec.n_weight_layers == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "GFC, GSel-4-2, Concat, FC-2",  # GSel not first
            "GSel-4-2, GFC, FC-2",  # no concat
            "GSel-4-2, GFC, Concat, FC-2, FC-3",  # two outputs after concat
            "GSel-4-2, GFC, GPool-max-3, Concat, FC-2",  # 4 not divisible by 3
            "GSel-4-2, GFC, Concat, FC-2, Softmax, ReLU",  # token after softmax
            "GSel-4-2, Wiggle, Concat, FC-2",  # unknown token
            "GSel-4-2, Dropout-1.5, GFC, Concat, FC-2",  # no Dropout block in the grammar
            "GSel-4-2, GFC, Dropout-0.5, Concat, FC-2",
            "GSel-4, GFC, Concat, FC-2",  # malformed GSel
            "FC-4, GFC, FC-2",  # group blocks in a dense net
            "FC-4, GPool-max, FC-2",
            "FC-4, Concat, FC-2",
            "GSel-4-2, GFC, Concat, FC-3, ReLU, BNorm",  # blocks after the output
            "FC-4, ReLU, BNorm, FC-3, ReLU",  # a ReLU on a dense net's logits
            "FC-3, Dropout-0.5",
            "FC-0, ReLU, FC-2",  # a hidden layer of width 0
            "",
            "GSel-0-2, GFC, Concat, FC-2",  # no groups
            "GSel-4-0, GFC, Concat, FC-2",  # empty groups
            "GSel-a-2, GFC, Concat, FC-2",
            "GSel-4-2, GFC, GPool-max-1, Concat, FC-2",  # a pool must merge at least two groups
            "GSel-4-2, GFC, GPool-sum, Concat, FC-2",  # unknown pool kind
            "GSel-4-2, Concat, FC-2",  # no GFC
            "ReLU, BNorm",  # a dense net with no FC
            "FC-x",
            "FC-4, Softmax, FC-2",  # Softmax before the output
            # an argument-free token takes no field, and a token no more than its own
            "GSel-4-2, GFC-32, Concat, FC-2",
            "GSel-4-2, GFC, ReLU-1, Concat, FC-2",
            "GSel-4-2, GFC, BNorm-x, Concat, FC-2",
            "GSel-4-2, GFC, Concat-9, FC-2",
            "GSel-4-2, GFC, Concat, FC-2, Softmax-3",
            "GSel-4-2, GFC, GPool-max-2-7, Concat, FC-2",
        ],
    )
    def test_invalid_grammar(self, bad):
        with pytest.raises(ConfigError):
            parse_arch(bad, d=6)

    @pytest.mark.parametrize("d", [0, -1])
    def test_input_width_must_be_positive(self, d):
        with pytest.raises(ConfigError):
            parse_arch(SYNTH_ARCH, d=d)

    @pytest.mark.parametrize(
        "text, kind, n_blocks",
        [
            ("GSel-4-2, GFC, Concat, FC-2, Softmax", "gmlp", 3),
            ("FC-4, ReLU, FC-2, Softmax", "mlp", 3),
            ("GSel-4-2, GFC, Concat, BNorm, FC-2", "gmlp", 4),
        ],
    )
    def test_softmax_after_the_output_and_bnorm_after_concat_are_accepted(self, text, kind, n_blocks):
        spec = parse_arch(text, d=6)
        assert (spec.kind, spec.n_classes, len(spec.blocks)) == (kind, 2, n_blocks)  # Softmax plans no block
        assert Model(spec).forward(Tensor(np.zeros((3, 6)))).shape == (3, 2)


class TestBuild:
    def test_synth_arch_output_width(self):
        model = Model(parse_arch(SYNTH_ARCH, d=6))
        dense_w, dense_b = model._ops[-1][1]
        assert dense_w.shape == (8, 2)  # k*m = 8 features feed the 2-class output
        assert dense_b.shape == (2,)

    def test_three_pools_reach_one_group(self):
        text = (
            "GSel-8-2, GFC, ReLU, GPool-max, GFC, ReLU, GPool-max, "
            "GFC, ReLU, GPool-max, Concat, FC-2"
        )
        model = Model(parse_arch(text, d=5))
        dense_w, _ = model._ops[-1][1]
        assert dense_w.shape == (2, 2)  # one surviving group of width m=2

    def test_same_seed_same_bits(self):
        spec = parse_arch(SYNTH_ARCH, d=6, seed=123)
        a, b = Model(spec), Model(spec)
        for (name_a, pa), (name_b, pb) in zip(a.parameters(), b.parameters()):
            assert name_a == name_b
            assert np.array_equal(pa.data, pb.data)

    def test_parameter_names_and_shapes_in_draw_order(self):
        # the order is the RNG draw order and the checkpoint layout
        grouped = "GSel-8-2, GFC, ReLU, BNorm, GPool-linear-4, GFC, ReLU, BNorm, Concat, FC-3"
        dense = "BNorm, ReLU, FC-4, ReLU, BNorm, FC-3"
        expected = {
            grouped: [
                ("gsel.psi", (16, 5)),
                ("block0.gfc.weights", (8, 2, 2)),
                ("block0.gfc.biases", (8, 2)),
                ("block2.bn.gamma", (16,)),
                ("block2.bn.beta", (16,)),
                ("block3.pool.weights", (2, 2, 8)),
                ("block4.gfc.weights", (2, 2, 2)),
                ("block4.gfc.biases", (2, 2)),
                ("block6.bn.gamma", (4,)),
                ("block6.bn.beta", (4,)),
                ("block8.dense.w", (4, 3)),
                ("block8.dense.b", (3,)),
            ],
            dense: [
                ("block0.bn.gamma", (5,)),
                ("block0.bn.beta", (5,)),
                ("block2.dense.w", (5, 4)),
                ("block2.dense.b", (4,)),
                ("block4.bn.gamma", (4,)),
                ("block4.bn.beta", (4,)),
                ("block5.dense.w", (4, 3)),
                ("block5.dense.b", (3,)),
            ],
        }
        for text, names_shapes in expected.items():
            model = Model(parse_arch(text, d=5))
            assert [(name, t.shape) for name, t in model.parameters()] == names_shapes

    def test_parameters_are_views_of_one_flat_vector(self):
        model = Model(parse_arch("GSel-8-2, GFC, ReLU, BNorm, GPool-linear-4, GFC, Concat, FC-3", d=5))
        flat, end = model._flat, 0
        for (name, p), offset in zip(model.parameters(), model._offsets):
            assert offset == end, name  # back to back, in draw order
            assert p.data.ctypes.data == flat.ctypes.data + 8 * offset, name
            assert p.data.flags.c_contiguous, name
            end += p.size
        assert end == flat.size
        before = [p.data.copy() for _, p in model.parameters()]
        flat += 1.0  # a write into the vector shows in every parameter
        for kept, (name, p) in zip(before, model.parameters()):
            npt.assert_array_equal(p.data, kept + 1.0, err_msg=name)
        for _, p in model.parameters():
            p.data *= 2.0  # and a write into a parameter shows in the vector
        npt.assert_array_equal(flat, np.concatenate([2.0 * (k.reshape(-1) + 1.0) for k in before]))

    def test_plan_gives_each_block_its_input_groups_and_width(self):
        grouped = parse_arch("GSel-8-2, GFC, GPool-max-4, GFC, Concat, BNorm, FC-3", d=5).blocks
        assert [(b.name, b.tag, b.k, b.width) for b in grouped] == [
            ("block0", "gfc", 8, 16),
            ("block1", "pool", 8, 16),
            ("block2", "gfc", 2, 4),
            ("block3", "concat", 2, 4),
            ("block4", "batchnorm", 0, 4),
            ("block5", "dense", 0, 4),
        ]
        dense = parse_arch("BNorm, FC-4, FC-3", d=5).blocks
        assert [(b.tag, b.k, b.width) for b in dense] == [
            ("batchnorm", 0, 5),
            ("dense", 0, 5),
            ("dense", 0, 4),
        ]

    def test_group_count_after_pools(self):
        for k, pools, branching in [(8, 3, 2), (16, 2, 4), (6, 1, 3)]:
            body = "".join(f"GFC, GPool-mean-{branching}, " for _ in range(pools))
            text = f"GSel-{k}-2, {body}GFC, Concat, FC-2"
            model = Model(parse_arch(text, d=9))
            x = Tensor(np.random.default_rng(0).normal(size=(3, 9)))
            h = L.group_select_forward(None, x, model.routing)
            for tag, payload in model._ops:
                if tag == "pool":
                    h = L.group_pool_forward(None, h, payload[0], payload[1], payload[2])
            assert h.shape[0] == k // branching**pools

    def test_param_count_actual_matches_built_model(self):
        texts = [
            (SYNTH_ARCH, 6),
            ("GSel-8-2, GFC, ReLU, BNorm, GPool-linear, GFC, ReLU, BNorm, Concat, FC-2", 6),
            ("GSel-16-3, GFC, ReLU, BNorm, GPool-mean-4, GFC, Concat, FC-5", 20),
            ("FC-12, ReLU, BNorm, FC-4", 7),
            # the benchmark's wide-784 and mlp-784 nets
            (
                "GSel-64-16, GFC, ReLU, BNorm, GPool-max, GFC, ReLU, BNorm, GPool-max, "
                "GFC, ReLU, BNorm, Concat, FC-10",
                784,
            ),
            ("FC-1024, ReLU, BNorm, FC-512, ReLU, BNorm, FC-256, ReLU, BNorm, FC-10", 784),
            ("GSel-8-2, GFC, ReLU, BNorm, GPool-max, GFC, Concat, FC-3", 5),
        ]
        for text, d in texts:
            spec = parse_arch(text, d=d)
            assert count_complexity(spec).param_count_actual == Model(spec).param_count()

    def test_xavier_draws_the_bits_of_one_uniform_call(self):
        # an odd size past 2^15, into a slot inside a longer flat vector
        size, fan_in, fan_out = 2**15 + 3, 784, 1024
        flat = np.zeros(size + 7)
        M._xavier(np.random.default_rng(31), fan_in, fan_out, flat[4 : 4 + size])
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        want = np.random.default_rng(31).uniform(-bound, bound, size)
        npt.assert_array_equal(flat[4 : 4 + size].view(np.uint64), want.view(np.uint64))
        assert not flat[:4].any() and not flat[4 + size :].any()

    def test_psi_init_bound(self):
        model = Model(parse_arch(SYNTH_ARCH, d=6, seed=5))
        bound = np.sqrt(6.0 / (6 + 8))
        psi = model.routing.psi.data
        assert psi.max() <= bound and psi.min() >= -bound
        assert psi.std() > 0.1 * bound  # actually spread out


class TestForward:
    def test_untrained_logits_shape_and_finite(self):
        model = Model(parse_arch(SYNTH_ARCH, d=6, seed=1))
        x = Tensor(np.random.default_rng(2).normal(size=(5, 6)))
        logits = model.forward(x, training=False)
        assert logits.shape == (5, 2)
        assert np.all(np.isfinite(logits.data))

    def test_degenerate_single_slot_net_is_dense_on_one_feature(self, eval_dtype):
        model = Model(parse_arch("GSel-1-1, GFC, Concat, FC-2", d=4, seed=3))
        # make the single group map the identity
        gfc_w, gfc_b = model._ops[0][1]
        gfc_w.data[:] = 1.0
        gfc_b.data[:] = 0.0
        x = Tensor(np.random.default_rng(4).normal(size=(7, 4)))
        logits = model.forward(x, mode="hard")
        j = int(model.routing.psi.data.argmax())
        w, b = model._ops[-1][1]
        expected = x.data[:, [j]] @ w.data + b.data
        assert_eval_logits(logits.data, expected)

    def test_column_permutation_equivariance(self, eval_dtype):
        spec = parse_arch(SYNTH_ARCH, d=6, seed=7)
        model = Model(spec)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(10, 6))
        base = model.forward(Tensor(x), training=False).data

        perm = rng.permutation(6)
        permuted = Model(spec)
        for (_, p_dst), (_, p_src) in zip(permuted.parameters(), model.parameters()):
            p_dst.data[:] = p_src.data
        permuted.routing.psi.data[:] = model.routing.psi.data[:, perm]
        out = permuted.forward(Tensor(x[:, perm]), training=False).data
        assert_eval_logits(out, base, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.inf, np.nan])
    def test_temperature_must_be_positive_and_finite(self, tau):
        model = Model(parse_arch(SYNTH_ARCH, d=6))
        with pytest.raises(ConfigError):
            model.set_temperature(tau)
        assert model.temperature == 1.0

    def test_input_dim_mismatch(self):
        model = Model(parse_arch(SYNTH_ARCH, d=6))
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((2, 5))))

    def test_receptive_field_bound_by_depth(self):
        # one feature per slot, three group layers with pools between: a
        # neuron at depth l reaches at most 2^(l-1)*m input features. At
        # tau 0.01 the saturated routing's other weights, exp(-5000), are
        # exact zeros, so the relaxed routing reads the argmax alone.
        d, k, m = 24, 8, 2
        rng = np.random.default_rng(9)
        psi = np.zeros((k * m, d))
        psi[np.arange(k * m), rng.integers(0, d, size=k * m)] = 50.0
        routing = L.RoutingParams(Tensor(psi), 0.01, k, m, d)
        assert np.count_nonzero(L.routing_weights(psi, 0.01)) == k * m

        def group_stage(tape, h, k_cur):
            w = Tensor(rng.normal(size=(k_cur, m, m)), requires_grad=True)
            b = Tensor(rng.normal(size=(k_cur, m)), requires_grad=True)
            return L.group_fc_forward(tape, h, w, b)

        for layer, max_features in [(1, m), (2, 2 * m), (3, 4 * m)]:
            x = Tensor(rng.normal(size=(1, d)), requires_grad=True)
            tape = T.Tape()
            h = L.group_select_forward(tape, x, routing)
            k_cur = k
            for _ in range(layer - 1):
                h = group_stage(tape, h, k_cur)
                h = L.group_pool_forward(tape, h, "mean", 2)
                k_cur //= 2
            h = group_stage(tape, h, k_cur)
            neuron = projected(tape, h, _unit_like(h.shape, (0, 0, 0)))
            tape.backward(neuron)
            reached = int(np.count_nonzero(x.grad[0]))
            assert reached <= max_features


class TestModes:
    """Training mode runs the tape kernels with relaxed or committed routing, eval mode only the executor."""

    def test_one_row_batch_norm_in_training_raises(self):
        model = Model(parse_arch("FC-4, ReLU, BNorm, FC-3", d=2))
        with pytest.raises(DomainError):
            model.forward(Tensor(np.ones((1, 2))), training=True)

    def test_unknown_mode_in_training_raises(self):
        model = Model(parse_arch(SYNTH_ARCH, d=6))
        with pytest.raises(ConfigError):
            model.forward(Tensor(np.ones((4, 6))), training=True, tape=T.Tape(), mode="soft")

    @pytest.mark.parametrize("text, d", [(SYNTH_ARCH, 6), ("FC-4, ReLU, FC-2", 3)])
    @pytest.mark.parametrize("training", [False, True])
    def test_unknown_mode_raises_for_either_kind_of_net(self, text, d, training):
        model = Model(parse_arch(text, d=d))
        with pytest.raises(ConfigError):
            model.forward(Tensor(np.zeros((2, d))), training=training, mode="bogus")

    def test_hard_routing_in_training_trains_no_routing(self):
        model = Model(parse_arch(SYNTH_ARCH, d=6, seed=2))
        x = Tensor(np.random.default_rng(2).normal(size=(4, 6)), requires_grad=True)
        tape = T.Tape()
        logits = model.forward(x, training=True, tape=tape, mode="hard")
        tape.backward(projected(tape, logits, np.ones((4, 2))))
        assert model.routing.psi.grad is None and x.grad is None
        assert all(p.grad is not None for name, p in model.parameters() if name != "gsel.psi")

    def test_tape_in_eval_mode_raises(self):
        model = Model(parse_arch(SYNTH_ARCH, d=6))
        with pytest.raises(ConfigError):
            model.forward(Tensor(np.ones((4, 6))), training=False, tape=T.Tape())

    def test_eval_batch_norm_ignores_batch_composition(self, eval_dtype):
        model = Model(parse_arch("FC-4, ReLU, BNorm, FC-3", d=2, seed=6))
        rng = np.random.default_rng(6)
        model.forward(Tensor(rng.normal(size=(16, 2))), training=True)  # moves the running moments
        assert not np.array_equal(model._bn_states[0][1].running_mean, np.zeros(4))
        a = rng.normal(size=(4, 2))
        b = np.vstack([a[:1], rng.normal(size=(3, 2))])
        row = model.forward(Tensor(a)).data[0]
        npt.assert_array_equal(model.forward(Tensor(b)).data[0], row)
        assert_eval_logits(model.forward(Tensor(a[:1])).data[0], row, rtol=1e-12, atol=1e-15)


def _unit_like(shape, index):
    u = np.zeros(shape)
    u[index] = 1.0
    return u


class TestComplexity:
    def test_synth_arch_hand_value(self):
        spec = parse_arch(SYNTH_ARCH, d=6)
        report = count_complexity(spec)
        # k*m + k*m^2 + C*k*m/2^(L-1) with k=4, m=2, C=2, L=2
        assert report.predict_ops == 8 + 16 + 8 == 32
        assert report.density == Fraction(1, 4)

    @pytest.mark.parametrize(
        "text, d, macs",
        [
            # 64 * 16 * 16 + 32 * 16 * 16 + 16 * 16 * 16 + 256 * 10
            (W2_ARCH, 784, 31_232),
            # 784 * 1024 + 1024 * 512 + 512 * 256 + 256 * 10
            (W2_MLP_ARCH, 784, 1_460_736),
            # 8 * 2 * 2 + 4 * (2 * 4) + 4 * 2 * 2 + 8 * 3: 8/2 sets of a 2 x 4 linear pool map
            ("GSel-8-2, GFC, ReLU, GPool-linear, GFC, Concat, FC-3", 6, 104),
        ],
    )
    def test_exact_prediction_macs(self, text, d, macs):
        assert count_complexity(parse_arch(text, d=d)).predict_macs_actual == macs

    def test_density_large_k(self):
        spec = parse_arch("GSel-1536-16, GFC, ReLU, BNorm, Concat, FC-10", d=3072)
        assert count_complexity(spec).density == Fraction(1, 1536)

    def test_receptive_field_layer_two(self):
        spec = parse_arch(
            "GSel-8-2, GFC, ReLU, GPool-max, GFC, ReLU, Concat, FC-2", d=100
        )
        rf = count_complexity(spec).receptive_field_by_layer
        assert rf[0] == 2  # layer 1 sees one group
        assert rf[1] == 4  # layer 2 sees two groups: 2m features

    def test_receptive_field_caps_at_d(self):
        spec = parse_arch(
            "GSel-16-4, GFC, GPool-max, GFC, GPool-max, GFC, GPool-max, GFC, Concat, FC-2",
            d=10,
        )
        rf = count_complexity(spec).receptive_field_by_layer
        assert rf == [4, 8, 10, 10, 10]

    def test_series_against_independent_evaluation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n_layers = int(rng.integers(1, 6))
            k = int(rng.integers(1, 16)) * 2 ** max(n_layers - 1, 0)
            m = int(rng.integers(1, 9))
            c = int(rng.integers(2, 11))
            d = int(rng.integers(1, 200))
            # literal term-by-term evaluation with fractions
            gfc_terms = sum(Fraction(k * m * m, 2**j) for j in range(n_layers - 1))
            out_term = Fraction(c * k * m, 2 ** (n_layers - 1))
            assert predict_ops_gmlp(k, m, n_layers, c) == k * m + gfc_terms + out_term
            assert train_ops_gmlp(k, m, n_layers, c, d) == k * m * d + gfc_terms + out_term
            dense_terms = sum(Fraction(k * k * m * m, 2**j) for j in range(n_layers - 1))
            assert predict_ops_mlp(k, m, n_layers, c, d) == k * m * d + dense_terms + out_term

    def test_mlp_strictly_more_expensive(self):
        for k, m, n_layers, c, d in [(4, 2, 2, 2, 6), (16, 4, 3, 10, 100), (2, 3, 1, 2, 50)]:
            assert predict_ops_mlp(k, m, n_layers, c, d) > predict_ops_gmlp(k, m, n_layers, c)

    def test_formula_leq_actual(self):
        for text, d in [
            (SYNTH_ARCH, 6),
            ("GSel-8-2, GFC, ReLU, BNorm, GPool-max, GFC, ReLU, BNorm, Concat, FC-2", 6),
        ]:
            report = count_complexity(parse_arch(text, d=d))
            assert report.param_count_actual >= report.train_ops
