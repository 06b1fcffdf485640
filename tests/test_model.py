"""Model graph: gating, completion, losses, prediction, checkpoints."""

import base64
import json
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from clclsa import cli
from clclsa import model as md
from clclsa import numerics as nm
from tests.test_numerics import finite_difference, max_rel_error

TINY = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.0)


def tiny_params(seed=3):
    return md.CLCLSAParams.init_random(TINY, seed)


def zero_view_params(params, view):
    """Zero the gate/attention weights of one view in place."""
    for key in (f"view{view}.fatt.W", f"view{view}.fatt.b"):
        params[key].data = np.zeros_like(params[key].data)
    return params


MASK_MIXED = np.array([
    [1, 1, 1],
    [1, 0, 1],
    [0, 1, 1],
    [1, 1, 0],
    [1, 1, 1],
], dtype=bool)


def tiny_views(seed=7, n=5):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, 6)) for _ in range(3)]


# Op-by-op tape compositions of the fused nodes: the references that
# `cross_predict` and `joint_distribution` must match bit for bit.


def tape_encode(z, view, params, mode, bn_stats):
    p = params
    h = nm.affine(z, p[f"view{view}.enc1.W"], p[f"view{view}.enc1.b"])
    h = nm.batch_norm(h, p[f"view{view}.enc1_bn.gamma"], p[f"view{view}.enc1_bn.beta"],
                      bn_stats[f"view{view}.enc1_bn"], mode)
    h = nm.relu(h)
    h = nm.affine(h, p[f"view{view}.enc2.W"], p[f"view{view}.enc2.b"])
    return nm.relu(h)


def tape_decode(code, view, params, mode, bn_stats, source):
    p = params
    h = nm.affine(code, p[f"view{view}.dec1.W"], p[f"view{view}.dec1.b"])
    h = nm.batch_norm(h, p[f"view{view}.dec1_bn.gamma"], p[f"view{view}.dec1_bn.beta"],
                      bn_stats[f"view{view}.dec1_bn@src{source}"], mode)
    h = nm.relu(h)
    return nm.affine(h, p[f"view{view}.dec2.W"], p[f"view{view}.dec2.b"])


def tape_cross_predict(z, source, target, params, mode, bn_stats=None):
    if source == target:
        raise md.PairError(f"cross_predict needs distinct views, got {source} -> {target}")
    stats = params.bn_states if bn_stats is None else bn_stats
    return tape_decode(tape_encode(z, source, params, mode, stats), target, params, mode,
                       stats, source)


def tape_joint_distribution(z_i, z_k):
    return nm.unit_sum(nm.mean_outer(nm.softmax_rows(z_i), nm.softmax_rows(z_k)))


class TestModelConfig:
    def test_presets_match_published_dimensions(self):
        rosmap = md.preset("rosmap")
        assert rosmap.input_dims == (200, 200, 200)
        assert rosmap.embed_dims == (300, 300, 300)
        assert rosmap.num_classes == 2
        assert rosmap.ae_hidden == (64, 32)
        assert rosmap.fused_dim == 900
        lgg = md.preset("lgg")
        assert lgg.input_dims == (2000, 2000, 548)
        assert lgg.num_classes == 2
        brca = md.preset("brca")
        assert brca.input_dims == (1000, 1000, 503)
        assert brca.num_classes == 5
        kipan = md.preset("kipan")
        assert kipan.input_dims == (2000, 2000, 445)
        assert kipan.num_classes == 3  # follows the 3-class dataset description

    def test_unequal_embed_dims_rejected(self):
        with pytest.raises(ValueError, match="equal"):
            md.ModelConfig(2, (4, 4), (3, 5), 2)

    def test_single_view_rejected(self):
        with pytest.raises(ValueError):
            md.ModelConfig(1, (4,), (3,), 2)


class TestForwardView:
    def test_zero_feature_attention_halves_input(self):
        params = zero_view_params(tiny_params(), 0)
        x = tiny_views()[0]
        vf = md.forward_view(nm.constant(x), params, 0, "eval")
        np.testing.assert_allclose(vf.fatt.data, 0.5, atol=1e-15)
        # xhat therefore embeds x/2
        w, b = params["view0.embed.W"].data, params["view0.embed.b"].data
        expected = np.maximum((x * 0.5) @ w + b, 0.0)
        np.testing.assert_allclose(vf.xhat.data, expected, atol=1e-12)

    def test_zero_gate_gives_half_scaling(self):
        params = tiny_params()
        for key in ("view1.gate.W", "view1.gate.b"):
            params[key].data = np.zeros_like(params[key].data)
        vf = md.forward_view(nm.constant(tiny_views()[1]), params, 1, "eval")
        np.testing.assert_allclose(vf.matt.data, 0.5, atol=1e-15)
        np.testing.assert_allclose(vf.zhat.data, 0.5 * vf.xhat.data, atol=1e-15)

    def test_rosmap_preset_shapes(self):
        cfg = md.preset("rosmap")
        params = md.CLCLSAParams.init_random(cfg, 0)
        x = np.random.default_rng(0).normal(size=(4, 200))
        vf = md.forward_view(nm.constant(x), params, 0, "eval")
        assert vf.zhat.shape == (4, 300)
        assert vf.yhat.shape == (4, 2)
        assert vf.matt.shape == (4, 1)

    def test_attention_ranges_and_probability_rows(self):
        params = tiny_params()
        vf = md.forward_view(nm.constant(tiny_views()[2]), params, 2, "eval")
        assert ((vf.fatt.data > 0) & (vf.fatt.data < 1)).all()
        assert ((vf.matt.data > 0) & (vf.matt.data < 1)).all()
        np.testing.assert_allclose(vf.yhat.data.sum(axis=1), 1.0, atol=1e-12)


class TestFuse:
    def test_width_matches_classifier_input(self):
        zs = [nm.constant(np.ones((4, 300))) for _ in range(3)]
        assert md.fuse(zs).shape == (4, 900)

    def test_zero_block_lands_in_last_columns(self):
        z1 = nm.constant(np.ones((3, 4)))
        z2 = nm.constant(np.zeros((3, 4)))
        out = md.fuse([z1, z2]).data
        np.testing.assert_array_equal(out[:, 4:], 0.0)
        np.testing.assert_array_equal(out[:, :4], 1.0)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        zs = [rng.normal(size=(6, 3)) for _ in range(2)]
        perm = rng.permutation(6)
        direct = md.fuse([nm.constant(z[perm]) for z in zs]).data
        permuted = md.fuse([nm.constant(z) for z in zs]).data[perm]
        np.testing.assert_array_equal(direct, permuted)


class TestCrossPredict:
    def test_shape_roundtrip_through_bottleneck(self):
        cfg = md.preset("rosmap")
        params = md.CLCLSAParams.init_random(cfg, 1)
        z = np.random.default_rng(1).normal(size=(3, 300))
        out = md.cross_predict(nm.constant(z), 0, 1, params, "eval")
        assert out.shape == (3, 300)

    def test_zero_weights_give_zero_output(self):
        params = tiny_params()
        for name, t in params.tensors().items():
            if ".enc" in name or ".dec" in name:
                if name.endswith("gamma"):
                    continue
                t.data = np.zeros_like(t.data)
        out = md.cross_predict(nm.constant(np.ones((2, 4))), 1, 0, params, "eval")
        np.testing.assert_array_equal(out.data, 0.0)

    def test_same_view_pair_rejected(self):
        with pytest.raises(md.PairError):
            md.cross_predict(nm.constant(np.ones((2, 4))), 1, 1, tiny_params(), "eval")

    def test_shared_encoder_across_targets(self):
        params = tiny_params()
        z = nm.constant(np.random.default_rng(2).normal(size=(4, 4)))
        code_a = tape_encode(z, 1, params, "eval", params.bn_states)
        code_b = tape_encode(z, 1, params, "eval", params.bn_states)
        np.testing.assert_array_equal(code_a.data, code_b.data)
        # distinct targets reuse the same encoder output
        to0 = md.cross_predict(z, 1, 0, params, "eval")
        to2 = md.cross_predict(z, 1, 2, params, "eval")
        d0 = tape_decode(code_a, 0, params, "eval", params.bn_states, source=1)
        d2 = tape_decode(code_a, 2, params, "eval", params.bn_states, source=1)
        np.testing.assert_array_equal(to0.data, d0.data)
        np.testing.assert_array_equal(to2.data, d2.data)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def jittered(params, seed=11):
    """Move every tensor off its initial value (zero biases sit on ReLU kinks)."""
    jitter = nm.RngStream(seed, "jitter")
    for name, t in params.tensors().items():
        t.data = t.data + jitter.child(name).uniform(*t.data.shape, -0.1, 0.1)
    return params


def stirred_stats(params, seed=12):
    """Running statistics away from their (0, 1) start, so eval mode reads them."""
    rng = nm.RngStream(seed, "stats")
    for name, state in params.bn_states.items():
        dim = state.running_mean.shape[1]
        state.running_mean = rng.child(name + "/mean").normal(1, dim)
        state.running_var = rng.child(name + "/var").uniform(1, dim, 0.5, 2.0)
    return params


class TestFusedCrossPredict:
    def _run(self, translate, mode, z_requires_grad=True):
        params = stirred_stats(jittered(tiny_params()))
        rng = np.random.default_rng(50)
        z_data = rng.normal(size=(6, 4))
        z = nm.parameter(z_data, "z") if z_requires_grad else nm.constant(z_data)
        weights = nm.constant(rng.normal(size=(6, 4)))
        # both translations read view 1's encoder, so its partials add across nodes
        outs = [translate(z, 1, target, params, mode) for target in (0, 2)]
        loss = nm.add(nm.sum_all(nm.mul(outs[0], weights)),
                      nm.sum_all(nm.mul(outs[1], weights)))
        named = dict(params.tensors(), z=z)
        grads = nm.gradients(loss, named)
        return outs, grads, params.bn_states

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_tape_bitwise(self, mode):
        fused_outs, fused_grads, fused_stats = self._run(md.cross_predict, mode)
        tape_outs, tape_grads, tape_stats = self._run(tape_cross_predict, mode)
        for a, b in zip(fused_outs, tape_outs):
            assert same_bits(a.data, b.data)
        for name in tape_grads:
            assert same_bits(fused_grads[name], tape_grads[name]), name
        assert np.abs(fused_grads["z"]).sum() > 0
        for name, state in tape_stats.items():
            assert same_bits(fused_stats[name].running_mean, state.running_mean), name
            assert same_bits(fused_stats[name].running_var, state.running_var), name

    def test_train_mode_updates_only_its_routes(self):
        _, _, stats = self._run(md.cross_predict, "train")
        untouched = stirred_stats(tiny_params()).bn_states
        moved = {name for name, state in stats.items()
                 if not same_bits(state.running_mean, untouched[name].running_mean)}
        assert moved == {"view1.enc1_bn", "view0.dec1_bn@src1", "view2.dec1_bn@src1"}

    def test_constant_input_partial_is_not_computed(self, accumulated):
        _, grads, _ = self._run(md.cross_predict, "train", z_requires_grad=False)
        assert accumulated and all(t.requires_grad for t in accumulated)
        np.testing.assert_array_equal(grads["z"], np.zeros((6, 4)))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients_match_finite_differences(self, mode):
        params = stirred_stats(jittered(tiny_params()))
        rng = np.random.default_rng(52)
        z = nm.parameter(rng.normal(size=(5, 4)), "z")
        weights = nm.constant(rng.normal(size=(5, 4)))
        named = {name: t for name, t in params.tensors().items()
                 if name.startswith(("view0.enc", "view2.dec"))}
        named["z"] = z

        def build():
            # fresh statistics each call: train mode must not feed its updates back
            stats = {name: state.copy() for name, state in params.bn_states.items()}
            return nm.sum_all(nm.mul(md.cross_predict(z, 0, 2, params, mode, stats), weights))

        analytic = nm.gradients(build(), named)
        fd = finite_difference(build, named)
        assert max_rel_error(analytic, fd) < 1e-4


class TestCompleteMissing:
    def test_fully_observed_is_identity(self):
        params = tiny_params()
        zs = [nm.constant(np.random.default_rng(i).normal(size=(4, 4))) for i in range(3)]
        mask = np.ones((4, 3), dtype=bool)
        out, prov = md.complete_missing(zs, mask, params)
        for z_in, z_out in zip(zs, out):
            np.testing.assert_array_equal(z_in.data, z_out.data)
        assert not prov.any()

    def test_single_source_mean_of_one(self):
        params = tiny_params()
        rng = np.random.default_rng(8)
        zs = [nm.constant(rng.normal(size=(1, 4))) for _ in range(3)]
        mask = np.array([[1, 0, 0]], dtype=bool)
        out, prov = md.complete_missing([z.data[mask[:, i]] for i, z in enumerate(zs)],
                                        mask, params)
        h21 = md.cross_predict(zs[0], 0, 1, params, "eval").data
        h31 = md.cross_predict(zs[0], 0, 2, params, "eval").data
        np.testing.assert_array_equal(out[1].data, h21)
        np.testing.assert_array_equal(out[2].data, h31)
        assert prov[0].tolist() == [False, True, True]

    def test_two_source_average_matches_hand_computation(self):
        params = tiny_params()
        rng = np.random.default_rng(9)
        zs = [nm.constant(rng.normal(size=(1, 4))) for _ in range(3)]
        mask = np.array([[1, 1, 0]], dtype=bool)
        out, _ = md.complete_missing([z.data[mask[:, i]] for i, z in enumerate(zs)],
                                     mask, params)
        h31 = md.cross_predict(zs[0], 0, 2, params, "eval").data
        h32 = md.cross_predict(zs[1], 1, 2, params, "eval").data
        np.testing.assert_allclose(out[2].data, 0.5 * (h31 + h32), atol=1e-15)

    def test_latent_row_count_must_match_mask(self):
        params = tiny_params()
        zs = [nm.constant(np.zeros((2, 4))) for _ in range(3)]
        mask = np.array([[1, 1, 1], [1, 0, 1]], dtype=bool)
        with pytest.raises(nm.ShapeError):
            md.complete_missing(zs, mask, params)

    def test_zero_observed_views_rejected(self):
        params = tiny_params()
        zs = [nm.constant(np.zeros((1, 4))) for _ in range(3)]
        with pytest.raises(md.SubjectError):
            md.complete_missing(zs, np.zeros((1, 3), dtype=bool), params)

    def test_zero_fill_policy(self):
        from dataclasses import replace

        params = tiny_params()
        zero_params = md.CLCLSAParams(replace(TINY, completion="zero"),
                                      params.tensors(), params.bn_states)
        rng = np.random.default_rng(10)
        zs = [nm.constant(rng.normal(size=(2, 4))) for _ in range(3)]
        mask = np.array([[1, 0, 1], [1, 1, 1]], dtype=bool)
        out, _ = md.complete_missing([z.data[mask[:, i]] for i, z in enumerate(zs)],
                                     mask, zero_params)
        np.testing.assert_array_equal(out[1].data[0], 0.0)
        np.testing.assert_array_equal(out[1].data[1], zs[1].data[1])


class TestLossCrossOmics:
    def test_bi_view_equals_two_ordered_pairs_exactly(self):
        cfg = md.ModelConfig(2, (6, 6), (4, 4), 2, ae_hidden=(4, 3), dropout_p=0.0)
        params = md.CLCLSAParams.init_random(cfg, 4)
        rng = np.random.default_rng(20)
        zs = [nm.constant(rng.normal(size=(5, 4))) for _ in range(2)]
        mask = np.ones((5, 2), dtype=bool)
        total = md.loss_cross_omics(zs, mask, params, mode="eval").item()
        # the bi-view expression: sum_j ||h12(z2)-z1||^2 + ||h21(z1)-z2||^2
        h12 = md.cross_predict(zs[1], 1, 0, params, "eval")
        h21 = md.cross_predict(zs[0], 0, 1, params, "eval")
        d1 = nm.sub(h12, zs[0])
        d2 = nm.sub(h21, zs[1])
        expected = nm.add(nm.sum_all(nm.mul(d1, d1)), nm.sum_all(nm.mul(d2, d2))).item()
        assert total == expected

    def test_zero_latents_give_zero_loss(self):
        # biases are zero at init, so every translator maps 0 to 0 exactly
        params = tiny_params()
        zs = [nm.constant(np.zeros((3, 4))) for _ in range(3)]
        mask = np.ones((3, 3), dtype=bool)
        assert md.loss_cross_omics(zs, mask, params, mode="eval").item() == 0.0

    def test_matches_triple_loop_oracle(self):
        params = tiny_params(seed=6)
        rng = np.random.default_rng(21)
        n, m, d = 4, 3, 4
        zs_data = [rng.normal(size=(n, d)) for _ in range(m)]
        mask = np.array([[1, 1, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=bool)
        value = md.loss_cross_omics([nm.constant(z) for z in zs_data], mask,
                                    params, mode="eval").item()
        # independent scalar accumulation over (i, k, j, coordinate)
        oracle = 0.0
        for i in range(m):
            for k in range(m):
                if i == k:
                    continue
                joint = [j for j in range(n) if mask[j, i] and mask[j, k]]
                if len(joint) < 2:
                    continue
                pred = md.cross_predict(nm.constant(zs_data[k][joint]), k, i,
                                        params, "eval").data
                for row, j in enumerate(joint):
                    for c in range(d):
                        oracle += (pred[row, c] - zs_data[i][j, c]) ** 2
        assert abs(value - oracle) < 1e-10

    def test_masked_pairs_excluded(self):
        params = tiny_params()
        rng = np.random.default_rng(22)
        zs = [nm.constant(rng.normal(size=(4, 4))) for _ in range(3)]
        # views 0 and 1 never jointly observed
        mask = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 1], [0, 1, 1]], dtype=bool)
        total = md.loss_cross_omics(zs, mask, params, mode="eval").item()
        oracle = 0.0
        for i, k in ((0, 2), (2, 0), (1, 2), (2, 1)):
            joint = np.flatnonzero(mask[:, i] & mask[:, k])
            pred = md.cross_predict(nm.gather_rows(zs[k], joint), k, i, params, "eval").data
            oracle += ((pred - zs[i].data[joint]) ** 2).sum()
        assert abs(total - oracle) < 1e-10


class TestJointDistribution:
    def test_single_subject_uniform_rows(self):
        z = nm.constant(np.zeros((1, 2)))  # softmax of zeros is uniform
        p = md.joint_distribution(z, z).data
        np.testing.assert_allclose(p, 0.25, atol=1e-15)

    def test_valid_distribution(self):
        rng = np.random.default_rng(30)
        p = md.joint_distribution(nm.constant(rng.normal(size=(7, 5))),
                                  nm.constant(rng.normal(size=(7, 5)))).data
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-12

    def test_matches_outer_product_loop_oracle(self):
        rng = np.random.default_rng(31)
        zi, zk = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        p = md.joint_distribution(nm.constant(zi), nm.constant(zk)).data

        def softmax(m):
            e = np.exp(m - m.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)

        si, sk = softmax(zi), softmax(zk)
        acc = np.zeros((3, 3))
        for j in range(5):
            acc += np.outer(si[j], sk[j])
        acc /= 5
        acc /= acc.sum()
        np.testing.assert_allclose(p, acc, atol=1e-12)

    def test_swap_is_transpose(self):
        rng = np.random.default_rng(32)
        zi, zk = rng.normal(size=(9, 4)), rng.normal(size=(9, 6))
        p_ik = md.joint_distribution(nm.constant(zi), nm.constant(zk)).data
        p_ki = md.joint_distribution(nm.constant(zk), nm.constant(zi)).data
        np.testing.assert_allclose(p_ki, p_ik.T, rtol=1e-13, atol=0)

    def test_empty_batch_rejected(self):
        with pytest.raises(nm.BatchSizeError):
            md.joint_distribution(nm.constant(np.zeros((0, 3))), nm.constant(np.zeros((0, 3))))

    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_tape_bitwise(self, shared):
        results = []
        for joint in (md.joint_distribution, tape_joint_distribution):
            rng = np.random.default_rng(53)
            a = nm.parameter(rng.normal(size=(7, 5)), "a")
            b = a if shared else nm.parameter(rng.normal(size=(7, 5)), "b")
            p = joint(a, b)
            grads = nm.gradients(md.loss_contrastive_pair(p, 9.0), {"a": a, "b": b})
            results.append((p.data, grads["a"], grads["b"]))
        for fused, tape in zip(*results):
            assert same_bits(fused, tape)

    def test_constant_input_partial_is_not_computed(self, accumulated):
        rng = np.random.default_rng(54)
        a = nm.parameter(rng.normal(size=(6, 3)), "a")
        c = nm.constant(rng.normal(size=(6, 4)))
        for p in (md.joint_distribution(a, c), md.joint_distribution(c, a)):
            nm.gradients(md.loss_contrastive_pair(p, 9.0), {"a": a})
        assert any(t is a for t in accumulated)
        assert all(t.requires_grad for t in accumulated)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(55)
        zs = {"a": nm.parameter(rng.normal(size=(5, 4)), "a"),
              "b": nm.parameter(rng.normal(size=(5, 3)), "b")}
        weights = nm.constant(rng.normal(size=(4, 3)))

        def build():
            return nm.sum_all(nm.mul(md.joint_distribution(zs["a"], zs["b"]), weights))

        analytic = nm.gradients(build(), zs)
        fd = finite_difference(build, zs)
        assert max_rel_error(analytic, fd) < 1e-4


@st.composite
def small_problems(draw):
    m = draw(st.integers(2, 3))
    n = draw(st.integers(2, 7))
    config = md.ModelConfig(
        m, tuple(draw(st.integers(1, 5)) for _ in range(m)), (draw(st.integers(1, 4)),) * m,
        draw(st.integers(2, 3)),
        ae_hidden=(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        dropout_p=draw(st.sampled_from([0.0, 0.3])))
    # each subject observes a nonempty set of views, given as a bit pattern
    patterns = draw(st.lists(st.integers(1, 2 ** m - 1), min_size=n, max_size=n))
    mask = np.array([[(bits >> i) & 1 for i in range(m)] for bits in patterns], dtype=bool)
    assume(mask.any(axis=0).all())
    return config, mask, draw(st.integers(0, 2 ** 16))


def objective_bits(config, mask, seed, tape):
    """Total, breakdown, staged statistics and every gradient of a train-mode step."""
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(mask.shape[0], d)) for d in config.input_dims]
    labels = rng.integers(0, config.num_classes, size=mask.shape[0])
    params = jittered(md.CLCLSAParams.init_random(config, seed))
    rngs = [nm.RngStream(seed, f"dropout/view{i}") for i in range(config.num_views)]
    fused = md.cross_predict, md.joint_distribution
    if tape:
        md.cross_predict, md.joint_distribution = tape_cross_predict, tape_joint_distribution
    try:
        total, breakdown, cache = md.build_objective(
            views, mask, labels, params, md.LossWeights(0.1, 1.0, 0.01, 9.0), mode="train",
            rngs=rngs)
        grads = nm.gradients(total, params.tensors())
    finally:
        md.cross_predict, md.joint_distribution = fused
    stats = [a for state in cache.bn_states.values()
             for a in (state.running_mean, state.running_var)]
    return [np.array(astuple(breakdown)), cache.yhat.data, *stats, *grads.values()]


class TestFusedNodesProperty:
    @given(small_problems())
    def test_objective_matches_tape_bitwise(self, problem):
        """Any shapes and any mask: same loss terms, statistics and gradients."""
        config, mask, seed = problem
        fused = objective_bits(config, mask, seed, tape=False)
        tape = objective_bits(config, mask, seed, tape=True)
        assert len(fused) == len(tape)
        for a, b in zip(fused, tape):
            assert same_bits(a, b)


def _pair_loss_oracle(p, alpha):
    """Independent double-loop evaluation with clamped logs."""
    floor = 1e-12
    d_i, d_k = p.shape
    row = p.sum(axis=1)
    col = p.sum(axis=0)
    total = 0.0
    for d in range(d_i):
        for e in range(d_k):
            pe = max(p[d, e], floor)
            total -= p[d, e] * (np.log(pe) - (alpha + 1.0) * np.log(max(row[d], floor))
                                - (alpha + 1.0) * np.log(max(col[e], floor)))
    return total


class TestContrastivePairLoss:
    def test_uniform_closed_form(self):
        for d in (2, 3, 5, 8):
            p = nm.constant(np.full((d, d), 1.0 / (d * d)))
            for alpha in (0.0, 1.0, 9.0):
                value = md.loss_contrastive_pair(p, alpha).item()
                assert abs(value - (-2.0 * alpha * np.log(d))) < 1e-12

    def test_diagonal_alpha_zero_is_minus_log_d(self):
        d = 6
        p = nm.constant(np.diag(np.full(d, 1.0 / d)))
        assert abs(md.loss_contrastive_pair(p, 0.0).item() - (-np.log(d))) < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            d_i, d_k = rng.integers(2, 9), rng.integers(2, 9)
            p = rng.uniform(0.01, 1.0, size=(d_i, d_k))
            p /= p.sum()
            for alpha in (0.0, 1.0, 9.0):
                value = md.loss_contrastive_pair(nm.constant(p), alpha).item()
                assert abs(value - _pair_loss_oracle(p, alpha)) < 1e-10

    def test_transpose_invariance(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            p = rng.uniform(0.0, 1.0, size=(d, d))
            p /= p.sum()
            pt = np.ascontiguousarray(p.T)
            a = md.loss_contrastive_pair(nm.constant(p), 9.0).item()
            b = md.loss_contrastive_pair(nm.constant(pt), 9.0).item()
            assert abs(a - b) <= 1e-13 * abs(a)

    def test_negative_entries_rejected(self):
        p = np.array([[0.6, -0.1], [0.3, 0.2]])
        with pytest.raises(md.DistributionError):
            md.loss_contrastive_pair(nm.constant(p), 1.0)

    def test_decomposition_mi_plus_entropy(self):
        rng = np.random.default_rng(35)
        p = rng.uniform(0.05, 1.0, size=(4, 4))
        p /= p.sum()
        row, col = p.sum(axis=1), p.sum(axis=0)
        h_row = -(row * np.log(row)).sum()
        h_col = -(col * np.log(col)).sum()
        mi = (p * np.log(p / np.outer(row, col))).sum()
        alpha = 2.5
        value = md.loss_contrastive_pair(nm.constant(p), alpha).item()
        assert abs(value - (-mi - alpha * (h_row + h_col))) < 1e-10


class TestLossContrastive:
    def test_two_views_total_is_twice_one_pair(self):
        rng = np.random.default_rng(36)
        zs = [nm.constant(rng.normal(size=(6, 4))) for _ in range(2)]
        mask = np.ones((6, 2), dtype=bool)
        total = md.loss_contrastive(zs, mask, alpha=9.0).item()
        p = md.joint_distribution(zs[0], zs[1])
        single = md.loss_contrastive_pair(p, 9.0).item()
        assert total == nm.add(nm.constant(single), nm.constant(single)).item()

    def test_identical_views_match_pair_oracle(self):
        rng = np.random.default_rng(37)
        z = rng.normal(size=(5, 3))
        zs = [nm.constant(z), nm.constant(z.copy())]
        mask = np.ones((5, 2), dtype=bool)
        total = md.loss_contrastive(zs, mask, alpha=1.0).item()
        p = md.joint_distribution(nm.constant(z), nm.constant(z)).data
        assert abs(total - 2.0 * _pair_loss_oracle(p, 1.0)) < 1e-10

    def test_pair_without_joint_subjects_contributes_zero(self):
        rng = np.random.default_rng(38)
        zs = [nm.constant(rng.normal(size=(4, 3))) for _ in range(3)]
        # views 0 and 2 share at most one subject: pair (0,2) skipped
        mask = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1], [0, 1, 1]], dtype=bool)
        total = md.loss_contrastive(zs, mask, alpha=0.5).item()
        expected = 0.0
        for i, k in ((0, 1), (1, 0), (1, 2), (2, 1)):
            joint = np.flatnonzero(mask[:, i] & mask[:, k])
            p = md.joint_distribution(nm.gather_rows(zs[i], joint),
                                      nm.gather_rows(zs[k], joint)).data
            expected += _pair_loss_oracle(p, 0.5)
        assert abs(total - expected) < 1e-10

    def test_three_views_partial_mask_match_ordered_pair_oracle(self):
        rng = np.random.default_rng(39)
        zs = [nm.constant(rng.normal(size=(5, 4))) for _ in range(3)]
        total = md.loss_contrastive(zs, MASK_MIXED, alpha=9.0).item()
        expected = 0.0
        for i in range(3):
            for k in range(3):
                if i == k:
                    continue
                joint = np.flatnonzero(MASK_MIXED[:, i] & MASK_MIXED[:, k])
                p = md.joint_distribution(nm.constant(zs[i].data[joint]),
                                          nm.constant(zs[k].data[joint])).data
                expected += _pair_loss_oracle(p, 9.0)
        assert abs(total - expected) < 1e-10

    def test_each_unordered_pair_is_computed_once(self, monkeypatch):
        calls = []
        pair_loss = md.loss_contrastive_pair

        def counted(p, alpha):
            calls.append(p.shape)
            return pair_loss(p, alpha)

        monkeypatch.setattr(md, "loss_contrastive_pair", counted)
        rng = np.random.default_rng(40)
        zs = [nm.constant(rng.normal(size=(6, 4))) for _ in range(3)]
        md.loss_contrastive(zs, np.ones((6, 3), dtype=bool), alpha=9.0)
        assert len(calls) == 3

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        zs = {f"z{i}": nm.parameter(rng.normal(size=(5, 4)), f"z{i}") for i in range(3)}

        def build():
            return md.loss_contrastive(list(zs.values()), MASK_MIXED, alpha=9.0)

        analytic = nm.gradients(build(), zs)
        fd = finite_difference(build, zs)
        assert max_rel_error(analytic, fd) < 1e-4


class TestLossClassification:
    def test_uniform_prediction_gives_log_c(self):
        yhat = nm.constant(np.full((4, 5), 0.2))
        value = md.loss_classification(yhat, np.array([0, 1, 2, 3])).item()
        assert abs(value - np.log(5)) < 1e-12

    def test_one_hot_correct_is_zero(self):
        yhat = nm.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
        value = md.loss_classification(yhat, np.array([0, 1])).item()
        assert value < 1e-11

    def test_hand_case(self):
        yhat = nm.constant(np.array([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]))
        value = md.loss_classification(yhat, np.array([0, 1, 0])).item()
        expected = np.mean([-np.log(0.7), -np.log(0.8), -np.log(0.5)])
        assert abs(value - expected) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(md.LabelError):
            md.loss_classification(nm.constant(np.full((2, 2), 0.5)), np.array([0, 2]))

    def test_sum_reduction(self):
        yhat = nm.constant(np.array([[0.5, 0.5], [0.5, 0.5]]))
        value = md.loss_classification(yhat, np.array([0, 1]), reduction="sum").item()
        assert abs(value - 2 * np.log(2)) < 1e-12


class TestLossAuxiliary:
    def test_vanishes_when_gate_matches_confident_correct_classifier(self):
        matt = nm.constant(np.array([[1.0], [1.0]]))
        yhat = nm.constant(np.array([[1.0, 0.0], [1.0, 0.0]]))
        value = md.loss_auxiliary([matt], [yhat], [np.array([0, 1])],
                                  np.array([0, 0])).item()
        assert value < 1e-10

    def test_forced_arithmetic(self):
        matt = nm.constant(np.array([[0.5]]))
        yhat = nm.constant(np.array([[0.5, 0.5]]))
        value = md.loss_auxiliary([matt], [yhat], [np.array([0])], np.array([0])).item()
        assert abs(value - np.log(2)) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(40)
        n, c = 6, 3
        labels = rng.integers(0, c, size=n)
        matts, yhats, obs = [], [], []
        for i in range(2):
            idx = np.sort(rng.choice(n, size=4, replace=False))
            obs.append(idx)
            matts.append(nm.constant(rng.uniform(0.1, 0.9, size=(4, 1))))
            raw = rng.uniform(0.1, 1.0, size=(4, c))
            yhats.append(nm.constant(raw / raw.sum(axis=1, keepdims=True)))
        value = md.loss_auxiliary(matts, yhats, obs, labels).item()
        oracle = 0.0
        for i in range(2):
            acc = 0.0
            for row, j in enumerate(obs[i]):
                conf = yhats[i].data[row].max()
                acc += (matts[i].data[row, 0] - conf) ** 2
                acc += -np.log(yhats[i].data[row, labels[j]])
            oracle += acc / len(obs[i])
        assert abs(value - oracle) < 1e-12

    def test_confidence_target_carries_no_gradient_into_classifier(self):
        rng = np.random.default_rng(41)
        w = nm.parameter(rng.normal(size=(3, 2)), "w")
        z = nm.constant(rng.normal(size=(4, 3)))
        matt = nm.constant(rng.uniform(0.2, 0.8, size=(4, 1)))
        yhat = nm.softmax_rows(nm.affine(z, w, nm.constant(np.zeros((1, 2)))))
        # squared term alone: (matt - max yhat)^2 with a detached target
        conf = nm.constant(yhat.data.max(axis=1, keepdims=True))
        diff = nm.sub(matt, conf)
        loss = nm.sum_all(nm.mul(diff, diff))
        grads = nm.gradients(loss, {"w": w})
        np.testing.assert_array_equal(grads["w"], np.zeros((3, 2)))


class TestTotalLoss:
    def test_all_zero_weights_reduce_to_classification(self):
        weights = md.LossWeights(0.0, 0.0, 0.0)
        total, bd = md.total_loss(nm.constant(1.25), None, None, None, weights)
        assert total.item() == 1.25
        assert bd.total == 1.25 and bd.l_al == 0.0

    def test_forced_arithmetic(self):
        weights = md.LossWeights(lambda_al=0.1, lambda_co=1.0, lambda_cl=0.01)
        total, bd = md.total_loss(1.0, 2.0, 3.0, 4.0, weights)
        assert abs(total.item() - 4.24) < 1e-12
        assert abs(bd.total - (bd.l_clf + 0.1 * bd.l_al + 1.0 * bd.l_co + 0.01 * bd.l_cl)) < 1e-12

    def test_grid_values_are_the_documented_set(self):
        assert md.GRID_VALUES == (0.0, 0.01, 0.02, 0.05, 0.1, 1.0)

    def test_non_finite_part_names_term(self):
        with pytest.raises(md.NumericError, match="l_co"):
            md.total_loss(1.0, 2.0, float("inf"), 4.0, md.LossWeights(1, 1, 1))


class TestBreakdownReconstruction:
    def test_total_reconstructs_from_parts(self):
        views = tiny_views()
        labels = np.array([0, 1, 0, 1, 1])
        params = tiny_params()
        weights = md.LossWeights(0.1, 1.0, 0.01, 9.0)
        _, bd, _ = md.build_objective(views, MASK_MIXED, labels, params, weights, mode="train")
        recon = bd.l_clf + 0.1 * bd.l_al + 1.0 * bd.l_co + 0.01 * bd.l_cl
        assert abs(bd.total - recon) < 1e-12

    def test_zero_weight_makes_total_independent_of_term(self):
        views = tiny_views()
        labels = np.array([0, 1, 0, 1, 1])
        weights = md.LossWeights(0.0, 1.0, 0.01, 9.0)
        p1 = tiny_params()
        _, bd1, _ = md.build_objective(views, MASK_MIXED, labels, p1, weights, mode="train")
        p2 = tiny_params()
        # corrupt only the auxiliary heads: they feed l_al alone, and with
        # lambda_al=0 nothing downstream may change
        for name, t in p2.tensors().items():
            if ".aux." in name:
                t.data = t.data + 10.0
        _, bd2, _ = md.build_objective(views, MASK_MIXED, labels, p2, weights, mode="train")
        assert bd1.l_al == 0.0 and bd2.l_al == 0.0
        assert bd1.total == bd2.total
        assert bd1.l_co == bd2.l_co and bd1.l_clf == bd2.l_clf


class TestEndToEndGradients:
    def test_full_objective_matches_finite_differences(self):
        """All four terms active, mixed mask, dropout off."""
        views = tiny_views()
        labels = np.array([0, 1, 0, 1, 1])
        weights = md.LossWeights(0.1, 1.0, 0.01, 9.0)
        params = tiny_params()
        tensors = params.tensors()
        jitter = nm.RngStream(11, "jitter")
        for name, t in tensors.items():
            t.data = t.data + jitter.child(name).uniform(*t.data.shape, -0.1, 0.1)
        init_stats = {k: s.copy() for k, s in params.bn_states.items()}

        def reset():
            for k, s in init_stats.items():
                params.bn_states[k].running_mean = s.running_mean.copy()
                params.bn_states[k].running_var = s.running_var.copy()

        reset()
        _, _, cache = md.build_objective(views, MASK_MIXED, labels, params, weights, mode="train")
        conf = [y.data.max(axis=1, keepdims=True).copy() for y in cache.yhat_view]

        def build():
            reset()
            total, _, _ = md.build_objective(views, MASK_MIXED, labels, params, weights,
                                             mode="train", conf_targets=conf)
            return total

        analytic = nm.gradients(build(), tensors)
        fd = finite_difference(build, tensors)
        assert max_rel_error(analytic, fd) < 1e-4


class TestPredict:
    def test_probability_tie_breaks_to_lowest_class(self):
        yhat = np.array([[0.5, 0.5], [0.2, 0.8]])
        assert np.argmax(yhat, axis=1).tolist() == [0, 1]

    def test_eval_is_deterministic(self):
        cfg = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.5)
        params = md.CLCLSAParams.init_random(cfg, 5)
        views = tiny_views()
        a_probs, a_labels = md.predict(views, MASK_MIXED, params)
        b_probs, b_labels = md.predict(views, MASK_MIXED, params)
        np.testing.assert_array_equal(a_probs, b_probs)
        np.testing.assert_array_equal(a_labels, b_labels)

    def test_rows_are_probabilities(self):
        params = tiny_params()
        probs, labels = md.predict(tiny_views(), MASK_MIXED, params)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert labels.shape == (5,)

    def test_provenance_flags_follow_mask(self):
        params = tiny_params()
        cache = md.forward_full(tiny_views(), MASK_MIXED, params, mode="eval")
        np.testing.assert_array_equal(cache.provenance, ~MASK_MIXED)


class TestCheckpoint:
    def test_round_trip_is_value_exact(self, tmp_path):
        params = tiny_params(seed=12)
        # give running stats non-trivial values
        for st in params.bn_states.values():
            st.running_mean += 0.123456789123456789
            st.running_var *= 1.987654321
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, params)
        loaded = md.load_checkpoint(path)
        assert loaded.config == params.config
        for name, t in params.tensors().items():
            np.testing.assert_array_equal(loaded[name].data, t.data)
        for name, st in params.bn_states.items():
            np.testing.assert_array_equal(loaded.bn_states[name].running_mean, st.running_mean)
            np.testing.assert_array_equal(loaded.bn_states[name].running_var, st.running_var)

    def test_loaded_model_predicts_identically(self, tmp_path):
        params = tiny_params(seed=13)
        views = tiny_views()
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, params)
        loaded = md.load_checkpoint(path)
        a, _ = md.predict(views, MASK_MIXED, params)
        b, _ = md.predict(views, MASK_MIXED, loaded)
        np.testing.assert_array_equal(a, b)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            md.load_checkpoint(path)

    def test_same_params_write_same_bytes(self, tmp_path):
        params = tiny_params(seed=14)
        md.save_checkpoint(tmp_path / "a.json", params, extra={"note": 1})
        md.save_checkpoint(tmp_path / "b.json", params, extra={"note": 1})
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_document_layout(self, tmp_path):
        params = tiny_params(seed=15)
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, params, extra={"note": "x"})
        doc = json.loads(path.read_text())
        assert doc["format"] == "clclsa-checkpoint" and doc["version"] == 2
        assert md.ModelConfig(**doc["config"]) == params.config
        assert doc["extra"] == {"note": "x"}
        w = doc["params"]["view0.embed.W"]
        assert w["shape"] == [6, 4]
        np.testing.assert_array_equal(
            np.frombuffer(base64.b64decode(w["values"]), "<f8").reshape(6, 4),
            params["view0.embed.W"].data)
        for entry in doc["bn_states"].values():
            assert isinstance(entry["running_mean"], str)
            assert isinstance(entry["running_var"], str)

    def test_extreme_values_round_trip_bitwise(self, tmp_path):
        extremes = np.array([-0.0, 5e-324, 1.7976931348623157e308, np.nextafter(1.0, 2.0)])
        params = tiny_params(seed=16)
        params["view1.fatt.W"].data.ravel()[:4] = extremes
        st = params.bn_states["view0.enc1_bn"]
        st.running_mean.ravel()[:4] = extremes
        st.running_var.ravel()[:4] = extremes[::-1]
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, params)
        loaded = md.load_checkpoint(path)
        for name, t in params.tensors().items():
            np.testing.assert_array_equal(loaded[name].data.view(np.uint64), t.data.view(np.uint64))
            assert loaded[name].data.flags.writeable
        for name, s in params.bn_states.items():
            for got, want in ((loaded.bn_states[name].running_mean, s.running_mean),
                              (loaded.bn_states[name].running_var, s.running_var)):
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            md.load_checkpoint(path)

    @staticmethod
    def edited_checkpoint(tmp_path, edit):
        """A checkpoint of tiny_params() whose JSON document `edit` changed in place."""
        path = tmp_path / "ckpt.json"
        md.save_checkpoint(path, tiny_params())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_rejects_version_one(self, tmp_path):
        path = self.edited_checkpoint(tmp_path, lambda doc: doc.update(version=1))
        with pytest.raises(ValueError, match="version 1"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("entry_name, key", [("classifier.W", "values"),
                                                  ("view0.enc1_bn", "running_var")],
                             ids=["tensor", "bn_stat"])
    def test_rejects_payload_one_value_short(self, tmp_path, entry_name, key):
        def drop_last_value(doc):
            entry = doc["params" if key == "values" else "bn_states"][entry_name]
            entry[key] = base64.b64encode(base64.b64decode(entry[key])[:-8]).decode()

        path = self.edited_checkpoint(tmp_path, drop_last_value)
        with pytest.raises(ValueError, match=f"{entry_name}.*payload holds"):
            md.load_checkpoint(path)

    def test_rejects_cut_base64(self, tmp_path):
        def cut(doc):
            entry = doc["params"]["classifier.W"]
            entry["values"] = entry["values"][:-1]

        with pytest.raises(ValueError):
            md.load_checkpoint(self.edited_checkpoint(tmp_path, cut))

    def test_aborted_cli_train_checkpoint_loads(self, tmp_path, capsys):
        data, masked, run = tmp_path / "data", tmp_path / "masked", tmp_path / "run"
        assert cli.dispatch(["synth", "--n", "60", "--views", "3", "--dims", "6,6,6",
                             "--shared-dim", "6", "--seed", "7", "--out", str(data)]) == 0
        assert cli.dispatch(["mask", "--data", str(data), "--eta", "0.4", "--seed", "2",
                             "--out", str(masked)]) == 0
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = cli.dispatch(["train", "--data", str(masked), "--out", str(run),
                                 "--seed", "3", "--epochs", "50", "--initial-lr", "1e200",
                                 "--lr-schedule", "constant", "--lambda-co", "1.0",
                                 "--set", "model.embed_dims=[4,4,4]",
                                 "--set", "model.ae_hidden=[4,3]"])
        assert code == 2
        capsys.readouterr()
        path = run / "checkpoint.json"
        extra = json.loads(path.read_text())["extra"]
        assert extra["aborted"] is True and set(extra) == {"aborted", "term", "epoch"}
        loaded = md.load_checkpoint(path)
        assert loaded.config.embed_dims == (4, 4, 4)
