"""Model graph: gating, completion, losses, prediction, checkpoints."""

import base64
import contextlib
import json
import os
import tempfile
import types
import warnings
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from clclsa import cli
from clclsa import data as dt
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


# Op-by-op tape compositions of the fused nodes: the references that the
# model's fused nodes must match bit for bit, in values, in every parent's
# gradient and in the running statistics they stage.


def tape_encode(z, view, params, mode, bn_stats):
    p = params
    h = nm.affine(z, p[f"view{view}.enc1.W"], p[f"view{view}.enc1.b"])
    h = nm.batch_norm(h, p[f"view{view}.enc1_bn.gamma"], p[f"view{view}.enc1_bn.beta"],
                      bn_stats[f"view{view}.enc1_bn"], mode, momentum=p.config.bn_momentum,
                      eps=p.config.bn_eps)
    h = nm.relu(h)
    h = nm.affine(h, p[f"view{view}.enc2.W"], p[f"view{view}.enc2.b"])
    return nm.relu(h)


def tape_decode(code, view, params, mode, bn_stats, source):
    p = params
    h = nm.affine(code, p[f"view{view}.dec1.W"], p[f"view{view}.dec1.b"])
    h = nm.batch_norm(h, p[f"view{view}.dec1_bn.gamma"], p[f"view{view}.dec1_bn.beta"],
                      bn_stats[f"view{view}.dec1_bn@src{source}"], mode,
                      momentum=p.config.bn_momentum, eps=p.config.bn_eps)
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


def tape_forward_view(x, params, view, mode, rng=None):
    p = params
    x = nm.as_tensor(x)
    fatt = nm.sigmoid(nm.affine(x, p[f"view{view}.fatt.W"], p[f"view{view}.fatt.b"]))
    gated = nm.mul(x, fatt)
    xhat = nm.relu(nm.affine(gated, p[f"view{view}.embed.W"], p[f"view{view}.embed.b"]))
    if mode == "train" and params.config.dropout_p > 0.0:
        xhat = nm.dropout(xhat, params.config.dropout_p, mode, rng)
    matt = nm.sigmoid(nm.affine(xhat, p[f"view{view}.gate.W"], p[f"view{view}.gate.b"]))
    zhat = nm.mul(xhat, matt)
    yhat = nm.softmax_rows(nm.affine(zhat, p[f"view{view}.aux.W"], p[f"view{view}.aux.b"]))
    return md.ViewForward(matt=matt, zhat=zhat, yhat=yhat)


def tape_complete_missing(zhats, mask, params):
    mask = np.asarray(mask, dtype=bool)
    zhats = [nm.as_tensor(z) for z in zhats]
    n, m = mask.shape
    observed_counts = mask.sum(axis=1)
    full = [nm.scatter_rows(z, np.flatnonzero(mask[:, i]), n) for i, z in enumerate(zhats)]
    out = []
    for i in range(m):
        miss_rows = np.flatnonzero(~mask[:, i])
        if miss_rows.size == 0 or params.config.completion == "zero":
            out.append(full[i])
            continue
        acc = full[i]
        for k in range(m):
            sel = miss_rows[mask[miss_rows, k]]
            if k == i or sel.size == 0:
                continue
            pred = tape_cross_predict(nm.gather_rows(full[k], sel), k, i, params, "eval")
            acc = nm.add(acc, nm.scatter_rows(pred, sel, n))
        inv = np.ones((n, 1))
        inv[miss_rows, 0] = 1.0 / observed_counts[miss_rows]
        out.append(nm.mul(acc, nm.constant(inv)))
    return out, ~mask


def tape_loss_auxiliary(matts, yhat_views, obs_indices, labels, reduction="mean",
                        conf_targets=None):
    labels = np.asarray(labels)
    total = None
    for i, (matt, yhat, obs) in enumerate(zip(matts, yhat_views, obs_indices)):
        if len(obs) == 0:
            continue
        y_v = labels[obs].astype(np.intp)
        if conf_targets is not None:
            conf = np.asarray(conf_targets[i], dtype=np.float64).reshape(-1, 1)
        else:
            conf = yhat.data.max(axis=1, keepdims=True)
        diff = nm.sub(matt, nm.constant(conf))
        sq = nm.mul(diff, diff)
        nll = nm.neg(nm.log(nm.clamp_min(nm.pick_per_row(yhat, y_v), md.LOG_FLOOR)))
        per_subject = nm.add(sq, nll)
        term = nm.mean_all(per_subject) if reduction == "mean" else nm.sum_all(per_subject)
        total = term if total is None else nm.add(total, term)
    return total if total is not None else nm.constant(0.0)


def tape_loss_cross_omics(zhats, mask, params, mode="eval", reduction="sum", bn_stats=None):
    mask = np.asarray(mask, dtype=bool)
    zhats = [nm.as_tensor(z) for z in zhats]
    total = None
    for i in range(mask.shape[1]):
        for k in range(mask.shape[1]):
            joint = np.flatnonzero(mask[:, i] & mask[:, k])
            if i == k or joint.size < 2:
                continue
            pred = tape_cross_predict(nm.gather_rows(zhats[k], joint), k, i, params, mode,
                                      bn_stats)
            diff = nm.sub(pred, nm.gather_rows(zhats[i], joint))
            term = nm.sum_all(nm.mul(diff, diff))
            if reduction == "mean":
                term = nm.scale(term, 1.0 / joint.size)
            total = term if total is None else nm.add(total, term)
    return total if total is not None else nm.constant(0.0)


def tape_loss_contrastive(zhats, mask, alpha):
    mask = np.asarray(mask, dtype=bool)
    zhats = [nm.as_tensor(z) for z in zhats]
    total = None
    for i in range(mask.shape[1]):
        for k in range(i + 1, mask.shape[1]):
            joint = np.flatnonzero(mask[:, i] & mask[:, k])
            if joint.size < 2:
                continue
            p = tape_joint_distribution(nm.gather_rows(zhats[i], joint),
                                        nm.gather_rows(zhats[k], joint))
            term = nm.scale(md.loss_contrastive_pair(p, alpha), 2.0)
            total = term if total is None else nm.add(total, term)
    return total if total is not None else nm.constant(0.0)


TAPE = {"forward_view": tape_forward_view, "complete_missing": tape_complete_missing,
        "loss_auxiliary": tape_loss_auxiliary, "loss_cross_omics": tape_loss_cross_omics,
        "loss_contrastive": tape_loss_contrastive}


@contextlib.contextmanager
def taped():
    """`build_objective` on the op-by-op references instead of the fused nodes."""
    fused = {name: getattr(md, name) for name in TAPE}
    for name, reference in TAPE.items():
        setattr(md, name, reference)
    try:
        yield
    finally:
        for name, function in fused.items():
            setattr(md, name, function)


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

    @pytest.mark.parametrize("setting, value", [
        ("bn_momentum", 5.0), ("bn_momentum", -0.1), ("bn_momentum", float("nan")),
        ("bn_eps", -1.0), ("bn_eps", 0.0), ("bn_eps", float("nan")), ("bn_eps", float("inf"))])
    def test_batch_norm_setting_outside_its_range_rejected(self, setting, value):
        # either setting out of range makes predict return NaN probabilities
        with pytest.raises(ValueError, match=setting):
            replace(TINY, **{setting: value})

    def test_batch_norm_settings_at_their_bounds_accepted(self):
        for momentum in (0.0, 1.0):
            replace(TINY, bn_momentum=momentum, bn_eps=1e-300)

    @pytest.mark.parametrize("field, value", [
        ("num_views", 3.0), ("num_views", True), ("num_classes", 2.5),
        ("num_classes", True), ("num_classes", "2"), ("input_dims", (6, 6.5, 6)),
        ("input_dims", (4.7,) * 3), ("embed_dims", (4.7,) * 3),
        ("ae_hidden", (True, 3)), ("ae_hidden", (4, np.bool_(True))), ("ae_hidden", (4.0, 3))])
    def test_non_integer_count_or_width_rejected_not_truncated(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} takes integers only"):
            replace(TINY, **{field: value})

    def test_numpy_integers_become_ints(self):
        config = md.ModelConfig(np.int64(3), np.array([6, 6, 6]), [np.int32(4)] * 3,
                                np.intp(2), ae_hidden=(np.uint8(4), 3))
        assert config == md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3))
        assert all(type(v) is int for v in (config.num_views, config.num_classes,
                                             *config.input_dims, *config.ae_hidden))


MODE_ENTRY_POINTS = [
    pytest.param(lambda mode: md.forward_view(nm.constant(tiny_views()[0]), tiny_params(), 0,
                                              mode), id="forward_view"),
    pytest.param(lambda mode: md.forward_full(tiny_views(), MASK_MIXED, tiny_params(), mode),
                 id="forward_full"),
    pytest.param(lambda mode: md.build_objective(tiny_views(), MASK_MIXED, [0, 1, 0, 1, 0],
                                                 tiny_params(), md.LossWeights(),
                                                 mode=mode), id="build_objective"),
    pytest.param(lambda mode: md.cross_predict(nm.constant(np.ones((2, 4))), 0, 1,
                                               tiny_params(), mode), id="cross_predict"),
    pytest.param(lambda mode: md.loss_cross_omics([np.ones((5, 4))] * 3, MASK_MIXED,
                                                  tiny_params(), mode), id="loss_cross_omics"),
]


@pytest.mark.parametrize("entry", MODE_ENTRY_POINTS)
@pytest.mark.parametrize("mode", ["Train", "trian", "EVAL"])
def test_unknown_mode_rejected(entry, mode):
    # unchecked, "Train" would run as eval and a misspelt mode would still give a loss
    with pytest.raises(ValueError, match="mode must be 'train' or 'eval'"):
        entry(mode)


class TestForwardView:
    """`forward_view`'s outputs; the feature gate `fatt` and the embedding
    `xhat`, which it does not return, are read from `_view_latent`, the kernel
    it runs."""

    def test_zero_feature_attention_halves_input(self):
        params = zero_view_params(tiny_params(), 0)
        x = tiny_views()[0]
        _, _, (fatt, _, _, xhat, _) = md._view_latent(x, params, 0, "eval")
        np.testing.assert_allclose(fatt, 0.5, atol=1e-15)
        # xhat therefore embeds x/2
        w, b = params["view0.embed.W"].data, params["view0.embed.b"].data
        expected = np.maximum((x * 0.5) @ w + b, 0.0)
        np.testing.assert_allclose(xhat, expected, atol=1e-12)

    def test_zero_gate_gives_half_scaling(self):
        params = tiny_params()
        for key in ("view1.gate.W", "view1.gate.b"):
            params[key].data = np.zeros_like(params[key].data)
        vf = md.forward_view(nm.constant(tiny_views()[1]), params, 1, "eval")
        xhat = md._view_latent(tiny_views()[1], params, 1, "eval")[2][3]
        np.testing.assert_allclose(vf.matt.data, 0.5, atol=1e-15)
        np.testing.assert_allclose(vf.zhat.data, 0.5 * xhat, atol=1e-15)

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
        fatt = md._view_latent(tiny_views()[2], params, 2, "eval")[2][0]
        assert ((fatt > 0) & (fatt < 1)).all()
        assert ((vf.matt.data > 0) & (vf.matt.data < 1)).all()
        np.testing.assert_allclose(vf.yhat.data.sum(axis=1), 1.0, atol=1e-12)


class TestFuse:
    """`forward_full` fuses the completed latents, one block per view in view order."""

    def test_width_matches_classifier_input(self):
        params = md.CLCLSAParams.init_random(md.preset("rosmap"), 0)
        views = [np.ones((4, 200)) for _ in range(3)]
        fused = md.forward_full(views, np.ones((4, 3), bool), params, "eval").fused
        assert fused.shape == (4, 900) == (4, params["classifier.W"].shape[0])

    def test_zero_block_lands_in_last_columns(self):
        """Under the zero policy, subject 3's block for its missing last view is zero."""
        params = md.CLCLSAParams.init_random(replace(TINY, completion="zero"), 3)
        cache = md.forward_full(tiny_views(), MASK_MIXED, params, "eval")
        out = cache.fused.data
        np.testing.assert_array_equal(out[3, 8:], 0.0)
        for i, z in enumerate(cache.zhat_full):
            np.testing.assert_array_equal(out[:, 4 * i:4 * (i + 1)], z.data)

    def test_row_permutation_equivariance(self):
        perm = np.random.default_rng(5).permutation(5)
        views = tiny_views()
        direct = md.forward_full([v[perm] for v in views], MASK_MIXED[perm], tiny_params(),
                                 "eval").fused.data
        permuted = md.forward_full(views, MASK_MIXED, tiny_params(), "eval").fused.data[perm]
        np.testing.assert_allclose(direct, permuted, rtol=0, atol=1e-12)


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


ALL_ZERO_WEIGHT_COMBINATIONS = [md.LossWeights(al, co, cl, 9.0)
                                for al in (0.0, 0.1) for co in (0.0, 1.0) for cl in (0.0, 0.01)]


def objective_bits(config, mask, seed, tape, weights=md.LossWeights(0.1, 1.0, 0.01, 9.0),
                   reduction="mean", mode="train"):
    """Total, breakdown, staged statistics and every gradient of one step."""
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(mask.shape[0], d)) for d in config.input_dims]
    labels = rng.integers(0, config.num_classes, size=mask.shape[0])
    params = jittered(md.CLCLSAParams.init_random(config, seed))
    rngs = [nm.RngStream(seed, f"dropout/view{i}") for i in range(config.num_views)]
    with taped() if tape else contextlib.nullcontext():
        total, breakdown, cache = md.build_objective(
            views, mask, labels, params, weights, mode=mode, rngs=rngs, reduction=reduction)
        grads = nm.gradients(total, params.tensors())
    stats = [a for state in cache.bn_states.values()
             for a in (state.running_mean, state.running_var)]
    latents = [z.data for z in cache.zhat_full + cache.zhat_obs + cache.matt + cache.yhat_view]
    return [total.data, np.array(astuple(breakdown)), cache.yhat.data, *latents, *stats,
            *grads.values()]


def assert_all_same_bits(fused, tape):
    assert len(fused) == len(tape)
    for index, (a, b) in enumerate(zip(fused, tape)):
        assert same_bits(a, b), index


class TestFusedNodesProperty:
    @given(small_problems(), st.sampled_from(ALL_ZERO_WEIGHT_COMBINATIONS),
           st.sampled_from(["mean", "sum"]))
    def test_objective_matches_tape_bitwise(self, problem, weights, reduction):
        """Any shapes, any mask, any term switched off, either reduction: same
        loss terms, latents, statistics and gradients as the op-by-op record."""
        config, mask, seed = problem
        assert_all_same_bits(objective_bits(config, mask, seed, False, weights, reduction),
                             objective_bits(config, mask, seed, True, weights, reduction))


DROPOUT_TINY = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 3, ae_hidden=(4, 3), dropout_p=0.3)
# view 2 observed for everyone (its latent is its own completion); subject 3
# has one source view, subject 0 two
MASK_ONE_FULL_VIEW = np.array([
    [1, 0, 1],
    [0, 1, 1],
    [1, 1, 1],
    [0, 0, 1],
    [1, 0, 1],
], dtype=bool)


def weighted_sum(tensors, seed=70):
    """A scalar that reads every entry of every tensor with its own weight."""
    rng = np.random.default_rng(seed)
    total = None
    for t in tensors:
        term = nm.sum_all(nm.mul(t, nm.constant(rng.normal(size=t.shape))))
        total = term if total is None else nm.add(total, term)
    return total


class TestFusedNodesMatchTape:
    """Each fused node against its op-by-op reference: value, every parent's
    gradient and the running statistics, bit for bit."""

    VIEW_OUTPUTS = [("zhat", "matt", "yhat"), ("zhat",), ("matt",), ("yhat",), ("zhat", "yhat")]

    def _view_block(self, forward_view, mode, consumed):
        params = jittered(md.CLCLSAParams.init_random(DROPOUT_TINY, 3))
        x = nm.parameter(np.random.default_rng(60).normal(size=(5, 6)), "x")
        vf = forward_view(x, params, 1, mode, nm.RngStream(5, "dropout/view1"))
        grads = nm.gradients(weighted_sum([getattr(vf, name) for name in consumed]),
                             dict(params.tensors(), x=x))
        return [getattr(vf, name).data for name in ("matt", "zhat", "yhat")] \
            + list(grads.values())

    @pytest.mark.parametrize("consumed", VIEW_OUTPUTS, ids="+".join)
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_view_block(self, mode, consumed):
        assert_all_same_bits(self._view_block(md.forward_view, mode, consumed),
                             self._view_block(tape_forward_view, mode, consumed))

    def _auxiliary(self, loss_auxiliary, reduction, targets):
        rng = np.random.default_rng(61)
        labels = rng.integers(0, 3, size=6)
        obs = [np.array([0, 1, 3, 4]), np.array([], dtype=np.intp), np.array([1, 2, 5])]
        matts = [nm.parameter(rng.uniform(0.1, 0.9, size=(len(o), 1)), f"m{i}")
                 for i, o in enumerate(obs)]
        raw = [nm.softmax_values(3.0 * rng.normal(size=(len(o), 3))) for o in obs]
        raw[0][2, labels[3]] = 1e-14   # below the log floor: the clamp passes no gradient
        yhats = [nm.parameter(y, f"y{i}") for i, y in enumerate(raw)]
        conf = [rng.uniform(0.2, 1.0, size=len(o)) for o in obs] if targets else None
        value = loss_auxiliary(matts, yhats, obs, labels, reduction, conf)
        named = {t.name: t for t in matts + yhats}
        return [value.data, *nm.gradients(value, named).values()]

    @pytest.mark.parametrize("targets", [False, True], ids=["max", "given"])
    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_auxiliary(self, reduction, targets):
        assert_all_same_bits(self._auxiliary(md.loss_auxiliary, reduction, targets),
                             self._auxiliary(tape_loss_auxiliary, reduction, targets))

    def _completion(self, complete_missing, mask):
        params = stirred_stats(jittered(tiny_params()))
        rng = np.random.default_rng(62)
        zs = [nm.parameter(rng.normal(size=(int(mask[:, i].sum()), 4)), f"z{i}")
              for i in range(3)]
        out, provenance = complete_missing(zs, mask, params)
        # the latents are read twice downstream and directly, as the aux heads do,
        # so their gradients add several contributions in the record's order
        loss = nm.add(nm.add(weighted_sum(out), weighted_sum(out, seed=71)),
                      weighted_sum(zs, seed=72))
        grads = nm.gradients(loss, dict(params.tensors(), **{z.name: z for z in zs}))
        stats = [a for state in params.bn_states.values()
                 for a in (state.running_mean, state.running_var)]
        return [provenance, *(o.data for o in out), *grads.values(), *stats]

    @pytest.mark.parametrize("mask", [MASK_MIXED, MASK_ONE_FULL_VIEW], ids=["mixed", "full"])
    def test_completion(self, mask):
        assert_all_same_bits(self._completion(md.complete_missing, mask),
                             self._completion(tape_complete_missing, mask))

    def _cross_omics(self, loss_cross_omics, mode, reduction):
        params = stirred_stats(jittered(tiny_params()))
        stats = {name: state.copy() for name, state in params.bn_states.items()}
        rng = np.random.default_rng(63)
        zs = [nm.parameter(rng.normal(size=(5, 4)), f"z{i}") for i in range(3)]
        value = loss_cross_omics(zs, MASK_MIXED, params, mode, reduction, stats)
        grads = nm.gradients(nm.scale(value, 0.7), dict(params.tensors(),
                                                       **{z.name: z for z in zs}))
        staged = [a for state in stats.values() for a in (state.running_mean, state.running_var)]
        return [value.data, *grads.values(), *staged]

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_cross_omics(self, mode, reduction):
        assert_all_same_bits(self._cross_omics(md.loss_cross_omics, mode, reduction),
                             self._cross_omics(tape_loss_cross_omics, mode, reduction))

    def _contrastive(self, loss_contrastive, mask):
        rng = np.random.default_rng(64)
        zs = [nm.parameter(rng.normal(size=(mask.shape[0], 4)), f"z{i}") for i in range(3)]
        value = loss_contrastive(zs, mask, 9.0)
        return [value.data, *nm.gradients(value, {z.name: z for z in zs}).values()]

    @pytest.mark.parametrize("mask", [MASK_MIXED, MASK_ONE_FULL_VIEW], ids=["mixed", "skip"])
    def test_contrastive(self, mask):
        assert_all_same_bits(self._contrastive(md.loss_contrastive, mask),
                             self._contrastive(tape_loss_contrastive, mask))

    @pytest.mark.parametrize("weights", ALL_ZERO_WEIGHT_COMBINATIONS,
                             ids=lambda w: f"{w.lambda_al}-{w.lambda_co}-{w.lambda_cl}")
    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_objective(self, mode, reduction, weights):
        args = (DROPOUT_TINY, MASK_ONE_FULL_VIEW, 5)
        assert_all_same_bits(objective_bits(*args, False, weights, reduction, mode),
                             objective_bits(*args, True, weights, reduction, mode))


class TestFusedNodesFiniteDifferences:
    """The acceptance-1 check (central differences, h=1e-5, relative error
    below 1e-4) on each fused node on its own."""

    def _check(self, build, named):
        analytic = nm.gradients(build(), named)
        assert max_rel_error(analytic, finite_difference(build, named)) < 1e-4

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_view_block(self, mode):
        params = jittered(md.CLCLSAParams.init_random(DROPOUT_TINY, 3))
        x = nm.parameter(np.random.default_rng(65).normal(size=(5, 6)), "x")
        named = {name: t for name, t in params.tensors().items() if name.startswith("view1.")
                 and not name.startswith(("view1.enc", "view1.dec"))}
        named["x"] = x

        def build():
            # the same dropout draw on every evaluation
            vf = md.forward_view(x, params, 1, mode, nm.RngStream(5, "dropout/view1"))
            return weighted_sum([vf.zhat, vf.matt, vf.yhat])

        self._check(build, named)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_auxiliary(self, reduction):
        rng = np.random.default_rng(66)
        obs = [np.array([0, 2, 3]), np.array([1, 2, 3, 4])]
        labels = rng.integers(0, 3, size=5)
        named = {}
        for i, o in enumerate(obs):
            named[f"m{i}"] = nm.parameter(rng.uniform(0.1, 0.9, size=(len(o), 1)), f"m{i}")
            named[f"y{i}"] = nm.parameter(rng.uniform(0.2, 1.0, size=(len(o), 3)), f"y{i}")
        conf = [rng.uniform(0.3, 1.0, size=len(o)) for o in obs]

        def build():
            return md.loss_auxiliary([named["m0"], named["m1"]], [named["y0"], named["y1"]],
                                     obs, labels, reduction, conf)

        self._check(build, named)

    def test_completion(self):
        params = stirred_stats(jittered(tiny_params()))
        rng = np.random.default_rng(67)
        zs = [nm.parameter(rng.normal(size=(int(MASK_ONE_FULL_VIEW[:, i].sum()), 4)), f"z{i}")
              for i in range(3)]
        named = {name: t for name, t in params.tensors().items()
                 if name.startswith(("view2.enc", "view0.dec", "view1.dec"))}
        named.update({z.name: z for z in zs})

        def build():
            out, _ = md.complete_missing(zs, MASK_ONE_FULL_VIEW, params)
            return weighted_sum(out)

        self._check(build, named)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_cross_omics(self, mode, reduction):
        params = stirred_stats(jittered(tiny_params()))
        rng = np.random.default_rng(68)
        zs = [nm.parameter(rng.normal(size=(5, 4)), f"z{i}") for i in range(3)]
        named = {name: t for name, t in params.tensors().items()
                 if name.startswith(("view0.enc", "view2.dec"))}
        named.update({z.name: z for z in zs})

        def build():
            # fresh statistics each call: train mode must not feed its updates back
            stats = {name: state.copy() for name, state in params.bn_states.items()}
            return md.loss_cross_omics(zs, MASK_MIXED, params, mode, reduction, stats)

        self._check(build, named)


class TestTapeNodeCount:
    def test_desk_step_builds_at_most_60_interior_nodes(self):
        """A desk-scale step (3 views of 20 features, eta 0.4, every term on)
        keeps its fused nodes. The fully op-by-op record of the same step has
        272 nodes, and 167 with only the translator and the joint
        distribution fused."""
        spec = dt.SyntheticSpec(n_subjects=280, n_views=3, view_dims=(20, 20, 20),
                                class_count=3, shared_dim=36, snr=5.0, class_sep=0.7, seed=1)
        ds = dt.apply_missingness(dt.minmax_scaled(dt.synth_generate(spec)),
                                  dt.MissingnessSpec(0.4, 2))
        config = md.ModelConfig(3, (20, 20, 20), (16, 16, 16), 3, ae_hidden=(16, 8),
                                dropout_p=0.1)
        counts = []
        for tape in (False, True):
            params = md.CLCLSAParams.init_random(config, 0)
            rngs = [nm.RngStream(0, f"dropout/view{i}") for i in range(3)]
            with taped() if tape else contextlib.nullcontext():
                total, _, _ = md.build_objective(ds.views, ds.mask, ds.labels, params,
                                                 md.LossWeights(0.01, 0.1, 0.01, 9.0),
                                                 rngs=rngs)
            counts.append(len(nm._topo_order(total)))
        assert counts[0] <= 60
        assert counts[1] == 272


class TestCompletionProperty:
    @given(small_problems())
    def test_observed_rows_pass_through_and_statistics_stay(self, problem):
        """Any valid mask: observed latents come out bit for bit, missing ones are
        filled, and completion leaves every running statistic as it was."""
        config, mask, seed = problem
        params = stirred_stats(jittered(md.CLCLSAParams.init_random(config, seed)))
        before = {k: (s.running_mean.copy(), s.running_var.copy())
                  for k, s in params.bn_states.items()}
        rng = np.random.default_rng(seed)
        d = config.embed_dims[0]
        zs = [rng.normal(size=(int(mask[:, i].sum()), d)) for i in range(config.num_views)]
        out, provenance = md.complete_missing(zs, mask, params)
        np.testing.assert_array_equal(provenance, ~mask)
        for i, z in enumerate(zs):
            assert same_bits(out[i].data[mask[:, i]], z)
            assert np.isfinite(out[i].data).all()
        for name, (mean, var) in before.items():
            assert same_bits(params.bn_states[name].running_mean, mean)
            assert same_bits(params.bn_states[name].running_var, var)


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


@pytest.mark.parametrize("name", ["lambda_al", "lambda_co", "lambda_cl", "alpha"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_loss_weight_rejected(name, value):
    # NaN passes a bare `x < 0` check, and `lambda > 0` would then switch its term off
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        md.LossWeights(**{name: value})


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
    def test_skips_the_view_block_of_a_view_no_subject_observes(self, monkeypatch):
        mask = MASK_MIXED.copy()
        mask[:, 2] = False
        params = tiny_params()
        want = md.forward_full(tiny_views(), mask, params, "eval").yhat.data
        seen = []
        view_latent = md._view_latent

        def recording(xd, params, view, *args):
            seen.append(view)
            return view_latent(xd, params, view, *args)

        monkeypatch.setattr(md, "_view_latent", recording)
        yhat, _ = md.predict(tiny_views(), mask, params)
        assert seen == [0, 1]
        assert same_bits(yhat, want)

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

    def test_builds_no_tape_node(self, monkeypatch):
        """`predict` runs the array kernels alone: no node, fused or primitive,
        and no tensor of any kind is made."""
        params = stirred_stats(jittered(tiny_params()))
        views = tiny_views()
        expected = md.forward_full(views, MASK_MIXED, params, "eval").yhat.data

        def refuse(*args, **kwargs):
            raise AssertionError("predict built a tape node")

        for name in ("_node", "custom_op", "multi_output_op"):
            monkeypatch.setattr(nm, name, refuse)
        monkeypatch.setattr(nm.Tensor, "__init__", refuse)
        probs, labels = md.predict(views, MASK_MIXED, params)
        assert same_bits(probs, expected)
        np.testing.assert_array_equal(labels, np.argmax(expected, axis=1))

    @given(small_problems(), st.sampled_from(["cross", "zero"]))
    def test_matches_eval_forward_bitwise(self, problem, completion):
        """Any widths, subject count, valid mask and completion policy: the
        probabilities and labels of `forward_full(..., "eval")`, bit for bit,
        also for each subject predicted alone. A lone subject gets its row of
        the batch call to rounding: a one-row product may take another BLAS
        kernel than a many-row one, as it does in `forward_full`."""
        config, mask, seed = problem
        config = md.ModelConfig(**{**asdict(config), "completion": completion})
        params = stirred_stats(jittered(md.CLCLSAParams.init_random(config, seed)))
        rng = np.random.default_rng(seed)
        views = [rng.normal(size=(mask.shape[0], d)) for d in config.input_dims]
        expected = md.forward_full(views, mask, params, "eval").yhat.data
        probs, labels = md.predict(views, mask, params)
        assert same_bits(probs, expected)
        np.testing.assert_array_equal(labels, np.argmax(expected, axis=1))
        for j in range(mask.shape[0]):
            views_j, mask_j = [v[j:j + 1] for v in views], mask[j:j + 1]
            row, label = md.predict(views_j, mask_j, params)
            assert same_bits(row, md.forward_full(views_j, mask_j, params, "eval").yhat.data)
            np.testing.assert_allclose(row, probs[j:j + 1], rtol=0, atol=1e-12)
            assert label.tolist() == [labels[j]]


BOTH_FORWARDS = [
    pytest.param(lambda views, mask, params: md.forward_full(views, mask, params, "eval"),
                 id="forward_full"),
    pytest.param(md.predict, id="predict"),
]


@pytest.mark.parametrize("forward", BOTH_FORWARDS)
class TestInputChecks:
    """`forward_full` and `predict` reject the same inputs with the same errors."""

    def test_view_with_more_rows_than_mask(self, forward):
        views = tiny_views(n=6)
        with pytest.raises(nm.ShapeError, match="view 0 has 6 rows but the mask has 5"):
            forward(views, MASK_MIXED, tiny_params())

    def test_view_with_fewer_rows_than_mask(self, forward):
        views = tiny_views()
        views[2] = views[2][:4]
        with pytest.raises(nm.ShapeError, match="view 2 has 4 rows but the mask has 5"):
            forward(views, MASK_MIXED, tiny_params())

    def test_one_dimensional_mask(self, forward):
        views = [v[:1] for v in tiny_views()]
        with pytest.raises(nm.ShapeError, match=r"mask must be 2-D.*\(3,\)"):
            forward(views, MASK_MIXED[0], tiny_params())

    def test_view_count(self, forward):
        with pytest.raises(nm.ShapeError, match="expected 3 views, got 2"):
            forward(tiny_views()[:2], MASK_MIXED[:, :2], tiny_params())

    def test_feature_width(self, forward):
        views = tiny_views()
        views[1] = views[1][:, :5]
        with pytest.raises(nm.ShapeError, match="view 1 expects 6 features, got 5"):
            forward(views, MASK_MIXED, tiny_params())

    def test_feature_width_of_a_view_no_subject_observes(self, forward):
        views = tiny_views()
        views[2] = views[2][:, :5]
        mask = MASK_MIXED.copy()
        mask[:, 2] = False
        with pytest.raises(nm.ShapeError, match="view 2 expects 6 features, got 5"):
            forward(views, mask, tiny_params())

    def test_subject_without_observed_view(self, forward):
        mask = MASK_MIXED.copy()
        mask[3] = False
        with pytest.raises(md.SubjectError, match="subject 3"):
            forward(tiny_views(), mask, tiny_params())


class TestLatentVariances:
    @given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 2 ** 16))
    def test_keeps_numpy_var_mean_bits(self, n, d, seed):
        """The logged collapse monitor is `float(z.var(axis=0).mean())` bit for bit."""
        rng = np.random.default_rng(seed)
        zs = [rng.normal(loc=rng.normal(scale=100.0), scale=rng.uniform(1e-3, 10.0),
                         size=(n, d)) for _ in range(3)]
        cache = types.SimpleNamespace(zhat_full=[nm.constant(z) for z in zs])
        got = md.latent_variances(cache)
        assert [type(v) for v in got] == [float] * 3
        assert same_bits(got, [float(z.var(axis=0).mean()) for z in zs])


def save_checkpoint_v2(path, params, extra=None):
    """The version-2 writer, as `model.save_checkpoint` was before format 3: one
    JSON document holding each tensor (with its shape) and each batch-norm
    running mean and variance (with the config's momentum and eps) as a base64
    string of its little-endian float64 bytes."""
    def b64(a):
        return base64.b64encode(np.ascontiguousarray(a, "<f8").tobytes()).decode("ascii")

    config = params.config
    doc = {
        "format": "clclsa-checkpoint",
        "version": 2,
        "config": asdict(config),
        "params": {name: {"shape": list(t.data.shape), "values": b64(t.data)}
                   for name, t in params.tensors().items()},
        "bn_states": {name: {"running_mean": b64(st.running_mean),
                             "running_var": b64(st.running_var),
                             "momentum": config.bn_momentum, "eps": config.bn_eps}
                      for name, st in params.bn_states.items()},
    }
    if extra:
        doc["extra"] = extra
    with open(path, "w") as fh:
        json.dump(doc, fh)


WRITERS = pytest.mark.parametrize("write", [md.save_checkpoint], ids=["format3"])


def header_and_payload(path):
    with open(path, "rb") as fh:
        return json.loads(fh.readline()), fh.read()


class TestCheckpoint:
    @WRITERS
    def test_round_trip_is_value_exact(self, tmp_path, write):
        params = stirred_stats(tiny_params(seed=12))
        path = tmp_path / "ckpt"
        write(path, params)
        loaded = md.load_checkpoint(path)
        assert loaded.config == params.config
        for name, t in params.tensors().items():
            np.testing.assert_array_equal(loaded[name].data, t.data)
        for name, st in params.bn_states.items():
            np.testing.assert_array_equal(loaded.bn_states[name].running_mean, st.running_mean)
            np.testing.assert_array_equal(loaded.bn_states[name].running_var, st.running_var)

    @WRITERS
    def test_loaded_model_predicts_identically(self, tmp_path, write):
        params = stirred_stats(tiny_params(seed=13))
        views = tiny_views()
        path = tmp_path / "ckpt"
        write(path, params)
        loaded = md.load_checkpoint(path)
        a, _ = md.predict(views, MASK_MIXED, params)
        b, _ = md.predict(views, MASK_MIXED, loaded)
        assert same_bits(a, b)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            md.load_checkpoint(path)

    def test_rejects_binary_junk_without_newline(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(bytes(range(256)).replace(b"\n", b"") * 40)
        with pytest.raises(ValueError, match="is not a clclsa-checkpoint file"):
            md.load_checkpoint(path)

    def test_same_params_write_same_bytes(self, tmp_path):
        params = tiny_params(seed=14)
        md.save_checkpoint(tmp_path / "a.json", params, extra={"note": 1})
        md.save_checkpoint(tmp_path / "b.json", params, extra={"note": 1})
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_document_layout(self, tmp_path):
        """A header line with no per-tensor entries, then every tensor's and
        running statistic's little-endian float64 bytes in layout order."""
        params = stirred_stats(tiny_params(seed=15))
        path = tmp_path / "ckpt.ckpt"
        md.save_checkpoint(path, params, extra={"note": "x"})
        header, payload = header_and_payload(path)
        assert header == {"format": "clclsa-checkpoint", "version": 3,
                          "config": json.loads(json.dumps(asdict(params.config))),
                          "dtype": "<f8", "extra": {"note": "x"}}
        assert md.ModelConfig(**header["config"]) == params.config
        arrays = [t.data for t in params.tensors().values()] + [
            a for s in params.bn_states.values() for a in (s.running_mean, s.running_var)]
        assert payload == b"".join(np.ascontiguousarray(a, "<f8").tobytes() for a in arrays)
        shapes, widths = md.param_layout(params.config)
        assert [(n, t.data.shape) for n, t in params.tensors().items()] == shapes
        assert [(n, s.running_mean.shape[1]) for n, s in params.bn_states.items()] == widths
        assert ("view0.embed.W", (6, 4)) in shapes and ("view1.dec1_bn@src2", 4) in widths

    def test_without_extra_the_header_has_no_extra(self, tmp_path):
        path = tmp_path / "ckpt"
        md.save_checkpoint(path, tiny_params())
        assert "extra" not in header_and_payload(path)[0]

    def test_loaded_values_are_writable_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "ckpt"
        md.save_checkpoint(path, tiny_params())
        loaded = md.load_checkpoint(path)
        arrays = [t.data for t in loaded.tensors().values()] + [
            a for s in loaded.bn_states.values() for a in (s.running_mean, s.running_var)]
        buffer = arrays[0].base
        assert buffer.size * 8 == len(header_and_payload(path)[1])
        assert all(a.base is buffer and a.flags.writeable for a in arrays)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt"
        params = tiny_params(seed=17)
        md.save_checkpoint(path, params)

        def no_stream(*args, **kwargs):
            raise AssertionError("load_checkpoint drew from an RngStream")

        monkeypatch.setattr(md, "RngStream", no_stream)
        monkeypatch.setattr(nm, "RngStream", no_stream)
        loaded = md.load_checkpoint(path)
        assert all(same_bits(loaded[n].data, t.data) for n, t in params.tensors().items())

    @WRITERS
    def test_extreme_values_round_trip_bitwise(self, tmp_path, write):
        extremes = np.array([-0.0, 5e-324, 1.7976931348623157e308, np.nextafter(1.0, 2.0)])
        params = tiny_params(seed=16)
        params["view1.fatt.W"].data.ravel()[:4] = extremes
        st = params.bn_states["view0.enc1_bn"]
        st.running_mean.ravel()[:4] = extremes
        st.running_var.ravel()[:4] = extremes[::-1]
        path = tmp_path / "ckpt"
        write(path, params)
        loaded = md.load_checkpoint(path)
        for name, t in params.tensors().items():
            np.testing.assert_array_equal(loaded[name].data.view(np.uint64), t.data.view(np.uint64))
            assert loaded[name].data.flags.writeable
        for name, s in params.bn_states.items():
            for got, want in ((loaded.bn_states[name].running_mean, s.running_mean),
                              (loaded.bn_states[name].running_var, s.running_var)):
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @WRITERS
    @given(small_problems())
    def test_any_shapes_and_bit_patterns_round_trip(self, write, problem):
        """Random architectures whose tensors and statistics hold arbitrary float64
        bit patterns, quiet and signalling NaN payloads of both signs included,
        reload bit for bit and predict the same bits."""
        config, mask, seed = problem
        params = md.CLCLSAParams.init_random(config, seed)
        rng = np.random.default_rng(seed)
        views = [rng.normal(size=(mask.shape[0], d)) for d in config.input_dims]
        nans = np.array([0x7FF8000000000001, 0xFFF0000000000ABC, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF], dtype=np.uint64)

        def arbitrary(shape):
            bits = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64)
            bits.ravel()[:nans.size] = nans[:bits.size]
            return bits.view(np.float64)

        for t in params.tensors().values():
            t.data = arbitrary(t.data.shape)
        for s in params.bn_states.values():
            s.running_mean = arbitrary(s.running_mean.shape)
            s.running_var = arbitrary(s.running_var.shape)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "ckpt")
            write(path, params)
            loaded = md.load_checkpoint(path)
        assert loaded.config == config
        assert list(loaded.tensors()) == list(params.tensors())
        for name, t in params.tensors().items():
            assert same_bits(loaded[name].data, t.data), name
        assert list(loaded.bn_states) == list(params.bn_states)
        for name, s in params.bn_states.items():
            got = loaded.bn_states[name]
            assert same_bits(got.running_mean, s.running_mean), name
            assert same_bits(got.running_var, s.running_var), name
        with np.errstate(all="ignore"):
            assert same_bits(md.predict(views, mask, loaded)[0], md.predict(views, mask, params)[0])

    def test_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            md.load_checkpoint(path)

    @staticmethod
    def edited_checkpoint(tmp_path, edit, params=None):
        """A version-2 checkpoint of `params` (default tiny_params()) whose JSON
        document `edit` changed in place."""
        path = tmp_path / "ckpt.json"
        save_checkpoint_v2(path, tiny_params() if params is None else params)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @staticmethod
    def edited_header(tmp_path, edit, cut=0, tail=b""):
        """A format-3 checkpoint of tiny_params() whose header `edit` changed
        in place, with `cut` bytes taken off its payload and `tail` added."""
        path = tmp_path / "ckpt.ckpt"
        md.save_checkpoint(path, tiny_params())
        header, payload = header_and_payload(path)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n"
                         + payload[:len(payload) - cut] + tail)
        return path

    def test_rejects_version_one(self, tmp_path):
        path = self.edited_checkpoint(tmp_path, lambda doc: doc.update(version=1))
        with pytest.raises(ValueError, match="version 1"):
            md.load_checkpoint(path)

    def test_rejects_unknown_format3_version(self, tmp_path):
        path = self.edited_header(tmp_path, lambda header: header.update(version=4))
        with pytest.raises(ValueError, match="version 4"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["<f4", ">f8", None])
    def test_rejects_other_dtypes(self, tmp_path, dtype):
        path = self.edited_header(tmp_path, lambda header: header.update(dtype=dtype))
        with pytest.raises(ValueError, match="dtype"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [lambda h: h.pop("config"),
                                      lambda h: h["config"].update(depth=2),
                                      lambda h: h["config"].update(bn_eps=-1.0)],
                             ids=["missing", "unknown_key", "invalid_value"])
    def test_rejects_invalid_config(self, tmp_path, edit):
        with pytest.raises(ValueError, match="config|bn_eps"):
            md.load_checkpoint(self.edited_header(tmp_path, edit))

    def test_rejects_fractional_width(self, tmp_path):
        """A header width of 4.7 is refused, not read as a 4-wide model."""
        path = self.edited_header(tmp_path, lambda header: header["config"].update(
            embed_dims=[4.7] * len(header["config"]["embed_dims"])))
        with pytest.raises(ValueError, match="no valid model config .*embed_dims takes "
                                             "integers only, got 4.7"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("cut, tail, held", [(8, b"", -8), (0, b"\0", 1)],
                             ids=["8_bytes_short", "1_byte_long"])
    def test_rejects_payload_of_wrong_length(self, tmp_path, cut, tail, held):
        path = self.edited_header(tmp_path, lambda header: None, cut, tail)
        params = tiny_params()
        needed = 8 * sum(t.data.size for t in params.tensors().values()) + 8 * sum(
            2 * s.running_mean.size for s in params.bn_states.values())
        with pytest.raises(ValueError,
                           match=f"payload holds {needed + held} bytes, .* needs {needed}$"):
            md.load_checkpoint(path)

    def test_rejects_format3_payload_missing_a_tensor(self, tmp_path):
        """A payload without view1.enc1.W's values is short by exactly its bytes."""
        params = tiny_params()
        path = tmp_path / "ckpt.ckpt"
        md.save_checkpoint(path, params)
        header, payload = header_and_payload(path)
        names = list(params.tensors())
        start = 8 * sum(params[n].data.size for n in names[:names.index("view1.enc1.W")])
        size = 8 * params["view1.enc1.W"].data.size
        path.write_bytes(json.dumps(header).encode() + b"\n"
                         + payload[:start] + payload[start + size:])
        with pytest.raises(ValueError, match=f"holds {len(payload) - size} bytes, "
                                             f".* needs {len(payload)}"):
            md.load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.tensors().pop("view1.enc1.W"), "tensor view1.enc1.W is missing"),
        (lambda p: p.bn_states.pop("view0.enc1_bn"), "state view0.enc1_bn is missing"),
        (lambda p: p.tensors().update(junk=p["classifier.b"]), "tensor junk is not in"),
        (lambda p: setattr(p.bn_states["view0.enc1_bn"], "running_var", np.ones((1, 5))),
         r"state view0.enc1_bn is shaped \(\(1, 4\), \(1, 5\)\)")],
        ids=["missing_tensor", "missing_state", "extra_tensor", "missized_state"])
    def test_save_rejects_params_off_their_layout(self, tmp_path, edit, message):
        params = tiny_params()
        edit(params)
        path = tmp_path / "ckpt"
        with pytest.raises(ValueError, match=message):
            md.save_checkpoint(path, params)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("inputs, refusal", [
        (None, "checkpoint version 2 is not supported"),
        (400, "is not a clclsa-checkpoint file")], ids=["short", "past_header_limit"])
    def test_rejects_version2(self, tmp_path, inputs, refusal):
        """Version 2 was written only before format 3; this build reads version 3
        only. A document past HEADER_LIMIT bytes has no whole first line."""
        params = tiny_params() if inputs is None else md.CLCLSAParams.init_random(
            md.ModelConfig(3, (inputs,) * 3, (4, 4, 4), 2, ae_hidden=(4, 3)), 0)
        path = tmp_path / "ckpt.json"
        save_checkpoint_v2(path, params)
        assert (path.stat().st_size > md.HEADER_LIMIT) == (inputs is not None)
        with pytest.raises(ValueError, match=rf"{refusal} \(this build reads version 3\)$"):
            md.load_checkpoint(path)

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
        path = run / "checkpoint.ckpt"
        extra = header_and_payload(path)[0]["extra"]
        assert extra["aborted"] is True and set(extra) == {"aborted", "term", "epoch"}
        loaded = md.load_checkpoint(path)
        assert loaded.config.embed_dims == (4, 4, 4)
        manifest = json.loads((run / "run_manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == sorted(
            str(run / name) for name in ("checkpoint.ckpt", "epochs.csv", "config.json"))
        assert manifest["command"] == "train" and manifest["seeds"] == [3]
