"""The CLCLSA computation graph.

Per view i the network is: a sigmoid feature gate `fatt = sigma(f_i(x))`, an
embedding `xhat = dropout(relu(emb_i(x * fatt)))`, a per-subject scalar view
gate `matt = sigma(g_i(xhat))`, the gated latent `zhat = xhat * matt`, and an
auxiliary softmax classifier `yhat_i = c_i(zhat)`. Latents are concatenated in
view order and classified by a final softmax head. Views missing for a subject
are filled in latent space by cross-view autoencoders: `h[i<-k] = dec_i(enc_k)`
translates view k's latent into view i's, and a missing latent is the mean of
the translations from all observed views.

Four losses are assembled into one objective: cross-entropy on the fused
classifier, a confidence-matching auxiliary term per view, the squared
translation error over jointly observed view pairs, and a contrastive term
that rewards mutual information between paired latents while an entropy bonus
(weight alpha) keeps the per-view code from collapsing.
"""

from __future__ import annotations

import base64
import json
import math
import os
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import numerics as nm
from .numerics import (
    BatchNormState,
    RngStream,
    Tensor,
    affine,
    as_tensor,
    clamp_min,
    concat_cols,
    constant,
    log,
    mean_all,
    neg,
    parameter,
    pick_per_row,
    scale,
    scatter_rows,
    softmax_rows,
    sum_all,
)

# the fused nodes do these ops' arithmetic; bench/tracing.py still wraps them on
# this module by name
from .numerics import (  # noqa: F401
    dropout, gather_rows, mean_outer, mul, relu, sigmoid, sub, unit_sum)

LOG_FLOOR = 1e-12
GRID_VALUES = (0.0, 0.01, 0.02, 0.05, 0.1, 1.0)


class PairError(ValueError):
    """A cross-view operation was asked to map a view onto itself."""


class SubjectError(ValueError):
    """A subject violates the at-least-one-observed-view contract."""


class DistributionError(ValueError):
    """A joint-distribution argument is not a valid distribution."""


class LabelError(ValueError):
    """A class label is outside [0, num_classes)."""


class NumericError(RuntimeError):
    """A loss term became non-finite; carries the term name."""

    def __init__(self, term: str, value):
        super().__init__(f"loss term {term} is non-finite: {value!r}")
        self.term = term


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description: view count, per-view widths, head sizes."""

    num_views: int
    input_dims: tuple
    embed_dims: tuple
    num_classes: int
    ae_hidden: tuple = (64, 32)
    dropout_p: float = 0.5
    completion: str = "cross"
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "input_dims", tuple(int(d) for d in self.input_dims))
        object.__setattr__(self, "embed_dims", tuple(int(d) for d in self.embed_dims))
        object.__setattr__(self, "ae_hidden", tuple(int(d) for d in self.ae_hidden))
        if self.num_views < 2:
            raise ValueError("at least two views required")
        if len(self.input_dims) != self.num_views or len(self.embed_dims) != self.num_views:
            raise ValueError("input_dims and embed_dims must have one entry per view")
        if any(d < 1 for d in self.input_dims + self.embed_dims):
            raise ValueError("all dimensions must be >= 1")
        if len(set(self.embed_dims)) != 1:
            raise ValueError("all embedding dimensions must be equal")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if len(self.ae_hidden) != 2 or any(h < 1 for h in self.ae_hidden):
            raise ValueError("ae_hidden must be two positive widths")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if self.completion not in ("cross", "zero"):
            raise ValueError("completion must be 'cross' or 'zero'")

    @property
    def fused_dim(self) -> int:
        return sum(self.embed_dims)


# Published network settings per dataset. KIPAN is listed with 5 categories in
# the source table but described as a 3-class problem (658 subjects) in the
# dataset text, and its per-view heads are 3-wide; the preset follows 3.
PRESETS = {
    "rosmap": ModelConfig(3, (200, 200, 200), (300, 300, 300), 2),
    "lgg": ModelConfig(3, (2000, 2000, 548), (200, 200, 200), 2),
    "brca": ModelConfig(3, (1000, 1000, 503), (200, 200, 200), 5),
    "kipan": ModelConfig(3, (2000, 2000, 445), (200, 200, 200), 3),
}


def preset(name: str) -> ModelConfig:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


@dataclass(frozen=True)
class LossWeights:
    """Balancing weights for the auxiliary, cross-view, and contrastive terms."""

    lambda_al: float = 0.0
    lambda_co: float = 0.0
    lambda_cl: float = 0.0
    alpha: float = 9.0

    def __post_init__(self):
        for name in ("lambda_al", "lambda_co", "lambda_cl", "alpha"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    l_clf: float
    l_al: float
    l_co: float
    l_cl: float
    total: float


# ---------------------------------------------------------------------------
# Parameters


def _linear_names(prefix):
    return prefix + ".W", prefix + ".b"


class CLCLSAParams:
    """All learnable tensors plus batch-norm running statistics.

    Tensors are keyed by dotted names ("view0.embed.W", "classifier.b", ...)
    in a fixed order, which is also the checkpoint and optimizer-state order.
    """

    def __init__(self, config: ModelConfig, tensors: "OrderedDict[str, Tensor]",
                 bn_states: dict):
        self.config = config
        self._tensors = tensors
        self.bn_states = bn_states

    @classmethod
    def init_random(cls, config: ModelConfig, seed: int) -> "CLCLSAParams":
        rng = RngStream(seed, "init")
        tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        bn_states = {}

        def linear(prefix, fan_in, fan_out):
            wn, bn_ = _linear_names(prefix)
            tensors[wn] = parameter(nm.init_params((fan_in, fan_out), rng.child(wn)), wn)
            tensors[bn_] = parameter(nm.init_params((1, fan_out), rng.child(bn_), kind="bias"), bn_)

        def norm(prefix, dim):
            tensors[prefix + ".gamma"] = parameter(np.ones((1, dim)), prefix + ".gamma")
            tensors[prefix + ".beta"] = parameter(np.zeros((1, dim)), prefix + ".beta")
            bn_states[prefix] = BatchNormState(dim, config.bn_momentum, config.bn_eps)

        h1, h2 = config.ae_hidden
        for i in range(config.num_views):
            v = config.input_dims[i]
            d = config.embed_dims[i]
            linear(f"view{i}.fatt", v, v)
            linear(f"view{i}.embed", v, d)
            linear(f"view{i}.gate", d, 1)
            linear(f"view{i}.aux", d, config.num_classes)
            linear(f"view{i}.enc1", d, h1)
            norm(f"view{i}.enc1_bn", h1)
            linear(f"view{i}.enc2", h1, h2)
            linear(f"view{i}.dec1", h2, h1)
            tensors[f"view{i}.dec1_bn.gamma"] = parameter(np.ones((1, h1)), f"view{i}.dec1_bn.gamma")
            tensors[f"view{i}.dec1_bn.beta"] = parameter(np.zeros((1, h1)), f"view{i}.dec1_bn.beta")
            # the shared decoder serves one code distribution per source view;
            # running stats are kept per route so eval-mode normalization is
            # calibrated for whichever encoder fed it (weights stay shared)
            for k in range(config.num_views):
                if k != i:
                    bn_states[f"view{i}.dec1_bn@src{k}"] = BatchNormState(
                        h1, config.bn_momentum, config.bn_eps)
            linear(f"view{i}.dec2", h1, d)
        linear("classifier", config.fused_dim, config.num_classes)
        return cls(config, tensors, bn_states)

    def tensors(self) -> "OrderedDict[str, Tensor]":
        return self._tensors

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def clone(self) -> "CLCLSAParams":
        tensors = OrderedDict(
            (name, parameter(t.data.copy(), name)) for name, t in self._tensors.items()
        )
        bn_states = {name: st.copy() for name, st in self.bn_states.items()}
        return CLCLSAParams(self.config, tensors, bn_states)


# ---------------------------------------------------------------------------
# Forward pieces


@dataclass
class ViewForward:
    fatt: Tensor
    xhat: Tensor
    matt: Tensor
    zhat: Tensor
    yhat: Tensor


def _plus(a, b):
    """Sum of two gradient contributions, either of which may be absent."""
    return b if a is None else a + b


def forward_view(x, params: CLCLSAParams, view: int, mode: str,
                 rng: Optional[RngStream] = None) -> ViewForward:
    """Gate, embed, and classify one view's features.

    One node with outputs `zhat`, `matt` and `yhat` that does the arithmetic
    of the op-by-op chain (sigmoid(affine), mul, affine, ReLU, dropout drawn
    as `numerics.dropout` draws it, sigmoid(affine), mul, softmax(affine)).
    `fatt` and `xhat` come back as constants.
    """
    x = as_tensor(x)
    cfg = params.config
    if x.cols != cfg.input_dims[view]:
        raise nm.ShapeError(
            f"view {view} expects {cfg.input_dims[view]} features, got {x.cols}")
    fw, fb, ew, eb, gw, gb, aw, ab = (params[f"view{view}.{name}"] for name in (
        "fatt.W", "fatt.b", "embed.W", "embed.b", "gate.W", "gate.b", "aux.W", "aux.b"))
    xd = x.data
    fatt = nm.sigmoid_values(xd @ fw.data + fb.data)
    gated = xd * fatt
    a2 = gated @ ew.data + eb.data
    xhat = np.maximum(a2, 0.0)
    keep = None
    if mode == "train" and cfg.dropout_p > 0.0:
        if rng is None:
            raise ValueError("forward_view needs an RngStream in train mode with dropout")
        keep = nm.dropout_mask(rng, *xhat.shape, cfg.dropout_p)
        xhat *= keep
    matt = nm.sigmoid_values(xhat @ gw.data + gb.data)
    zhat = xhat * matt
    yhat = nm.softmax_values(zhat @ aw.data + ab.data)

    def backward_fn(grads):
        gz, gm, gy = grads
        if gy is not None:
            g = gy * yhat
            np.subtract(gy, g.sum(axis=1, keepdims=True), out=g)
            g *= yhat
            nm.accumulate_grad(aw, zhat.T @ g)
            nm.accumulate_grad(ab, g.sum(axis=0, keepdims=True))
            gz = _plus(gz, g @ aw.data.T)
        gx = None
        if gz is not None:
            gx = gz * matt
            gm = _plus(gm, (gz * xhat).sum(axis=1, keepdims=True))
        if gm is not None:
            g = gm * matt * (1.0 - matt)
            nm.accumulate_grad(gw, xhat.T @ g)
            nm.accumulate_grad(gb, g.sum(axis=0, keepdims=True))
            gx = _plus(gx, g @ gw.data.T)
        if gx is None:
            return
        # gx is this hook's own array from here on
        if keep is not None:
            gx *= keep
        gx *= a2 > 0
        g = gx
        nm.accumulate_grad(ew, gated.T @ g)
        nm.accumulate_grad(eb, g.sum(axis=0, keepdims=True))
        gg = g @ ew.data.T
        g = gg * xd
        g *= fatt
        g *= 1.0 - fatt
        nm.accumulate_grad(fw, xd.T @ g)
        nm.accumulate_grad(fb, g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            nm.accumulate_grad(x, gg * fatt)
            nm.accumulate_grad(x, g @ fw.data.T)

    zhat_t, matt_t, yhat_t = nm.multi_output_op(
        (zhat, matt, yhat), (x, fw, fb, ew, eb, gw, gb, aw, ab), backward_fn)
    return ViewForward(fatt=constant(fatt), xhat=constant(xhat), matt=matt_t, zhat=zhat_t,
                       yhat=yhat_t)


def fuse(zhats) -> Tensor:
    """Concatenate per-view latents in view order."""
    zhats = [as_tensor(z) for z in zhats]
    n = zhats[0].rows
    d = zhats[0].cols
    for z in zhats[1:]:
        if z.rows != n:
            raise nm.ShapeError(f"fuse: row counts differ, {n} vs {z.rows}")
        if z.cols != d:
            raise nm.ShapeError(f"fuse: latent widths differ, {d} vs {z.cols}")
    return concat_cols(zhats)


def _bn_relu(x, w, b, gamma, beta, state, mode):
    """affine -> batch norm -> ReLU on arrays, with `numerics.batch_norm`'s arithmetic.

    Train mode normalizes by batch statistics and updates `state`; eval mode
    normalizes by its running statistics. Returns the output and the arrays
    `_bn_relu_backward` reuses.
    """
    xhat = x @ w.data + b.data
    if mode == "train":
        n = xhat.shape[0]
        if n < 2:
            raise nm.BatchSizeError(f"batch_norm needs at least 2 rows in train mode, got {n}")
        # the steps of numpy's mean and (biased) var, sharing the centred batch
        mu = xhat.sum(axis=0, keepdims=True) / n
        xhat -= mu
        var = (xhat * xhat).sum(axis=0, keepdims=True) / n
        inv_std = 1.0 / np.sqrt(var + state.eps)
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mu
        state.running_var = (1.0 - m) * state.running_var + m * var
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat -= state.running_mean
    xhat *= inv_std
    y = xhat * gamma.data
    y += beta.data
    return np.maximum(y, 0.0), (y, xhat, inv_std)


def _bn_relu_backward(g, x, w, b, gamma, beta, saved, mode, need_x):
    """Add `_bn_relu`'s parameter partials for output gradient g; returns d/dx if need_x."""
    y, xhat, inv_std = saved
    g = g * (y > 0)
    t = g * xhat
    nm.accumulate_grad(gamma, t.sum(axis=0, keepdims=True))
    nm.accumulate_grad(beta, g.sum(axis=0, keepdims=True))
    if mode == "train":
        # (inv_std / n) (n dxhat - sum(dxhat) - xhat sum(dxhat xhat)), dxhat = g gamma,
        # in place in that order
        n = g.shape[0]
        g *= gamma.data
        np.multiply(g, xhat, out=t)
        np.multiply(xhat, t.sum(axis=0, keepdims=True), out=t)
        s = g.sum(axis=0, keepdims=True)
        g *= n
        g -= s
        g -= t
        g *= inv_std / n
    else:
        g *= gamma.data * inv_std
    nm.accumulate_grad(w, x.T @ g)
    nm.accumulate_grad(b, g.sum(axis=0, keepdims=True))
    return g @ w.data.T if need_x else None


def _translate(z, source: int, target: int, params: CLCLSAParams, mode: str, stats):
    """decoder_target(encoder_source(z)) on an array, with the arithmetic of
    the op-by-op composition; train mode updates the running statistics in
    `stats`. Returns the output, the parameter tensors, and `backward(g,
    need_z)`, which adds the parameter partials and returns d/dz if need_z.
    """
    enc, dec = f"view{source}.", f"view{target}."
    weights = tuple(params[enc + name] for name in (
        "enc1.W", "enc1.b", "enc1_bn.gamma", "enc1_bn.beta", "enc2.W", "enc2.b")) \
        + tuple(params[dec + name] for name in (
            "dec1.W", "dec1.b", "dec1_bn.gamma", "dec1_bn.beta", "dec2.W", "dec2.b"))
    enc1, (enc2_w, enc2_b), dec1, (dec2_w, dec2_b) = \
        weights[0:4], weights[4:6], weights[6:10], weights[10:12]
    if z.shape[1] != enc1[0].rows:
        raise nm.ShapeError(
            f"cross_predict: view {source} latents are {enc1[0].rows} wide, got {z.shape[1]}")
    h1, saved1 = _bn_relu(z, *enc1, stats[enc + "enc1_bn"], mode)
    a2 = h1 @ enc2_w.data + enc2_b.data
    code = np.maximum(a2, 0.0)
    h3, saved3 = _bn_relu(code, *dec1, stats[f"{dec}dec1_bn@src{source}"], mode)

    def backward(g, need_z):
        nm.accumulate_grad(dec2_w, h3.T @ g)
        nm.accumulate_grad(dec2_b, g.sum(axis=0, keepdims=True))
        g = _bn_relu_backward(g @ dec2_w.data.T, code, *dec1, saved3, mode, True)
        g *= a2 > 0
        nm.accumulate_grad(enc2_w, h1.T @ g)
        nm.accumulate_grad(enc2_b, g.sum(axis=0, keepdims=True))
        return _bn_relu_backward(g @ enc2_w.data.T, z, *enc1, saved1, mode, need_z)

    return h3 @ dec2_w.data + dec2_b.data, weights, backward


def cross_predict(z, source: int, target: int, params: CLCLSAParams, mode: str,
                  bn_stats=None) -> Tensor:
    """Translate view `source`'s latent into view `target`'s latent space.

    The translator is always the composition decoder_target(encoder_source):
    the encoder is affine -> batch norm -> ReLU -> affine -> ReLU and the
    decoder affine -> batch norm -> ReLU -> affine. Encoder and decoder
    weights are shared across all pairs involving their view, while the
    decoder's batch-norm running statistics are tracked per source route
    (each encoder feeds the decoder a different distribution). Train mode
    updates the running statistics in `bn_stats` (default `params.bn_states`).

    One tape node whose forward and backward are `_translate`'s, the same
    arithmetic that completion and the cross-omics term run inside their own
    nodes.
    """
    if source == target:
        raise PairError(f"cross_predict needs distinct views, got {source} -> {target}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    z = as_tensor(z)
    stats = params.bn_states if bn_stats is None else bn_stats
    out, weights, back = _translate(z.data, source, target, params, mode, stats)

    def backward_fn(node):
        g = back(node.grad, z.requires_grad)
        if g is not None:
            nm.accumulate_grad(z, g)

    return nm.custom_op(out, (z, *weights), backward_fn)


def _complete_view(full, target: int, miss_rows, mask, observed_counts,
                   params: CLCLSAParams) -> Tensor:
    """View `target`'s completed latent as one node over `full`, every view's
    latents scattered to all subjects: the arithmetic of
    (+ scatter(translate(gather)))* -> times the reciprocal source count,
    with the backward taking the sources in descending order, as the op-by-op
    record's reverse order does.
    """
    # adding scatter(pred) adds 0.0 to the rows outside sel: one + 0.0 covers them all
    acc = full[target].data + 0.0
    sources = []
    parents = [full[target]]
    for k, source in enumerate(full):
        sel = miss_rows[mask[miss_rows, k]]
        if k == target or sel.size == 0:
            continue
        pred, weights, back = _translate(source.data[sel], k, target, params, "eval",
                                         params.bn_states)
        acc[sel] += pred
        sources.append((source, sel, back))
        parents += [source, *weights]
    # observed rows keep weight 1; missing rows average their sources
    inv = np.ones((acc.shape[0], 1))
    inv[miss_rows, 0] = 1.0 / observed_counts[miss_rows]
    acc *= inv

    def backward_fn(out):
        g = out.grad * inv
        for source, sel, back in reversed(sources):
            g_source = back(g[sel], source.requires_grad)
            if g_source is not None:
                nm.accumulate_rows(source, sel, g_source)
        nm.accumulate_grad(full[target], g)

    return nm.custom_op(acc, parents, backward_fn)


def complete_missing(zhats, mask, params: CLCLSAParams):
    """Fill missing per-view latents from the observed views.

    `zhats` holds one tensor per view with a row for each subject observed in
    that view, in subject order (the form `ForwardCache.zhat_obs` holds). Each
    missing latent is the mean of the translations from every observed view
    of that subject; observed rows pass through unchanged. Returns (list of
    N x D completed latents, provenance) where provenance[j, i] is True iff
    subject j's view i was completed; each view with a missing row is one node.

    The translators always run in eval mode here, in training too: they
    normalize with the running statistics in `params.bn_states` and update
    none of them.

    With the "zero" completion policy the missing rows are left at zero, the
    trivial-fill reference used by property checks.
    """
    mask = np.asarray(mask, dtype=bool)
    zhats = [as_tensor(z) for z in zhats]
    n, m = mask.shape
    if len(zhats) != m:
        raise nm.ShapeError(f"complete_missing: {len(zhats)} latents for {m} mask columns")
    observed_counts = mask.sum(axis=1)
    if np.any(observed_counts == 0):
        bad = int(np.flatnonzero(observed_counts == 0)[0])
        raise SubjectError(f"subject {bad} has no observed view")
    full = [scatter_rows(z, np.flatnonzero(mask[:, i]), n) for i, z in enumerate(zhats)]
    out = []
    for i in range(m):
        miss_rows = np.flatnonzero(~mask[:, i])
        if miss_rows.size == 0 or params.config.completion == "zero":
            out.append(full[i])
        else:
            out.append(_complete_view(full, i, miss_rows, mask, observed_counts, params))
    return out, ~mask


@dataclass
class ForwardCache:
    """Per-batch intermediates: gates, latents, classifier outputs, provenance.

    Per-view fields hold rows for observed subjects only (masked cells are
    never read); `obs_idx[i]` maps those rows back to subject indices. The
    full-size fields are the completed latents, the fused representation, the
    final class probabilities, and the completed-entry flags. `bn_states`
    holds the batch-norm statistics `build_objective` staged for its step.
    """

    obs_idx: list
    fatt: list
    xhat: list
    matt: list
    zhat_obs: list
    yhat_view: list
    zhat_full: list
    provenance: np.ndarray
    fused: Tensor
    yhat: Tensor
    bn_states: Optional[dict] = None


def forward_full(views, mask, params: CLCLSAParams, mode: str, rngs=None) -> ForwardCache:
    """Run every view, complete missing latents, fuse, and classify."""
    mask = np.asarray(mask, dtype=bool)
    m = mask.shape[1]
    cfg = params.config
    if len(views) != m or m != cfg.num_views:
        raise nm.ShapeError(f"expected {cfg.num_views} views, got {len(views)}")
    per_view = []
    obs_indices = []
    for i in range(m):
        obs = np.flatnonzero(mask[:, i])
        obs_indices.append(obs)
        x = constant(np.asarray(views[i], dtype=np.float64)[obs])
        rng = rngs[i] if rngs is not None else None
        per_view.append(forward_view(x, params, i, mode, rng))
    zhat_full, provenance = complete_missing([vf.zhat for vf in per_view], mask, params)
    fused = fuse(zhat_full)
    yhat = softmax_rows(affine(fused, params["classifier.W"], params["classifier.b"]))
    return ForwardCache(
        obs_idx=obs_indices,
        fatt=[vf.fatt for vf in per_view],
        xhat=[vf.xhat for vf in per_view],
        matt=[vf.matt for vf in per_view],
        zhat_obs=[vf.zhat for vf in per_view],
        yhat_view=[vf.yhat for vf in per_view],
        zhat_full=zhat_full,
        provenance=provenance,
        fused=fused,
        yhat=yhat,
    )


# ---------------------------------------------------------------------------
# Losses


def _check_labels(labels, num_classes, n):
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise nm.ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LabelError(f"labels must lie in [0, {num_classes})")
    return labels.astype(np.intp)


def loss_classification(yhat, labels, reduction: str = "mean") -> Tensor:
    """Cross-entropy -log yhat[j, y_j], probabilities clamped at 1e-12."""
    yhat = as_tensor(yhat)
    labels = _check_labels(labels, yhat.cols, yhat.rows)
    nll = neg(log(clamp_min(pick_per_row(yhat, labels), LOG_FLOOR)))
    return mean_all(nll) if reduction == "mean" else sum_all(nll)


def _auxiliary_term(matt: Tensor, yhat: Tensor, labels, conf, reduction: str) -> Tensor:
    """One view's (matt - conf)^2 - log max(yhat[y], 1e-12), reduced, as one node
    with the arithmetic of sub, mul, pick_per_row, clamp_min, log, neg, add and
    mean_all or sum_all."""
    rows = np.arange(yhat.rows)
    diff = matt.data - conf
    picked = yhat.data[rows, labels].reshape(-1, 1)
    clamped = np.maximum(picked, LOG_FLOOR)
    per_subject = diff * diff + -1.0 * np.log(clamped)
    value = per_subject.mean() if reduction == "mean" else per_subject.sum()

    def backward_fn(out):
        g = out.grad[0, 0]
        g = np.full_like(per_subject, g / per_subject.size if reduction == "mean" else g)
        if yhat.requires_grad:
            g_yhat = np.zeros_like(yhat.data)
            g_yhat[rows, labels] = (-1.0 * g / clamped * (picked >= LOG_FLOOR))[:, 0]
            nm.accumulate_grad(yhat, g_yhat)
        if matt.requires_grad:
            g = g * diff
            nm.accumulate_grad(matt, g + g)

    return nm.custom_op(value, (matt, yhat), backward_fn)


def loss_auxiliary(matts, yhat_views, obs_indices, labels, reduction: str = "mean",
                   conf_targets=None) -> Tensor:
    """Per-view confidence matching plus auxiliary cross-entropy.

    For each view, over its observed subjects: (matt - max_c yhat_i[c])^2
    - log yhat_i[y]. The confidence target is the maximal softmax output,
    taken as a constant so the squared term trains the gate, not the
    classifier. `conf_targets` overrides the targets (used by the
    finite-difference harness, which must differentiate the same function the
    optimizer sees). Each view's term is one node.
    """
    labels = np.asarray(labels)
    total = None
    for i, (matt, yhat, obs) in enumerate(zip(matts, yhat_views, obs_indices)):
        if len(obs) == 0:
            continue
        matt, yhat = as_tensor(matt), as_tensor(yhat)
        y_v = _check_labels(labels[obs], yhat.cols, yhat.rows)
        if conf_targets is not None:
            conf = np.asarray(conf_targets[i], dtype=np.float64).reshape(-1, 1)
        else:
            conf = yhat.data.max(axis=1, keepdims=True)
        term = _auxiliary_term(matt, yhat, y_v, conf, reduction)
        total = term if total is None else nm.add(total, term)
    return total if total is not None else constant(0.0)


def _joint_subjects(mask, i, k):
    return np.flatnonzero(mask[:, i] & mask[:, k])


def _cross_omics_term(zhats, i: int, k: int, joint, params: CLCLSAParams, mode: str,
                      reduction: str, stats) -> Tensor:
    """||h[i<-k](zhat_k) - zhat_i||^2 over the subjects `joint` as one node, with
    the arithmetic of two gathers, the translator, sub, mul, sum_all and, for
    "mean", scale by 1/|joint|."""
    z_i, z_k = zhats[i], zhats[k]
    pred, weights, back = _translate(z_k.data[joint], k, i, params, mode, stats)
    diff = pred
    diff -= z_i.data[joint]
    value = np.asarray((diff * diff).sum()).reshape(1, 1)
    c = 1.0 / joint.size if reduction == "mean" else None
    if c is not None:
        value = c * value

    def backward_fn(out):
        g = out.grad if c is None else c * out.grad
        g = g[0, 0] * diff
        g += g
        if z_i.requires_grad:
            nm.accumulate_rows(z_i, joint, -g)
        g_source = back(g, z_k.requires_grad)
        if g_source is not None:
            nm.accumulate_rows(z_k, joint, g_source)

    return nm.custom_op(value, (z_i, z_k, *weights), backward_fn)


def loss_cross_omics(zhats, mask, params: CLCLSAParams, mode: str = "eval",
                     reduction: str = "sum", bn_stats=None) -> Tensor:
    """Squared cross-view translation error over ordered view pairs.

    For each ordered pair (i, k), i != k, sums ||h[i<-k](zhat_k) - zhat_i||^2
    over the subjects observed in both views. "sum" reduces over subjects as
    written; "mean" divides each pair's term by its subject count. Pairs with
    fewer than two jointly observed subjects are skipped (train-mode batch
    norm needs two rows). Train mode updates the running statistics in
    `bn_stats` (default `params.bn_states`). Each pair's term is one node.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    mask = np.asarray(mask, dtype=bool)
    zhats = [as_tensor(z) for z in zhats]
    stats = params.bn_states if bn_stats is None else bn_stats
    m = mask.shape[1]
    total = None
    for i in range(m):
        for k in range(m):
            if i == k:
                continue
            joint = _joint_subjects(mask, i, k)
            if joint.size < 2:
                continue
            term = _cross_omics_term(zhats, i, k, joint, params, mode, reduction, stats)
            total = term if total is None else nm.add(total, term)
    return total if total is not None else constant(0.0)


def joint_distribution(z_i, z_k, rows=None) -> Tensor:
    """Joint distribution over latent coordinates of two paired views.

    Rows (all of them, or the subjects `rows`) are first mapped through a
    row-softmax so each subject contributes a distribution over coordinates;
    the mean outer product is then renormalized to sum to 1. One tape node
    whose forward and backward do the arithmetic of
    `unit_sum(mean_outer(softmax_rows(gather_rows(z_i, rows)),
    softmax_rows(gather_rows(z_k, rows))))`.
    """
    z_i, z_k = as_tensor(z_i), as_tensor(z_k)
    x_i, x_k = (z_i.data, z_k.data) if rows is None else (z_i.data[rows], z_k.data[rows])
    if x_i.shape[0] != x_k.shape[0]:
        raise nm.ShapeError(f"joint_distribution: row counts differ, {z_i.shape} vs {z_k.shape}")
    n = x_i.shape[0]
    if n == 0:
        raise nm.BatchSizeError("joint_distribution: empty batch")
    a, b = nm.softmax_values(x_i), nm.softmax_values(x_k)
    outer = (a.T @ b) / n
    s = outer.sum()
    p = outer / s

    def add(t, g):
        if rows is None:
            nm.accumulate_grad(t, g)
        else:
            nm.accumulate_rows(t, rows, g)

    def backward_fn(out):
        g = out.grad
        g = (g - (g * p).sum()) / s
        # z_k first: the op-by-op record reaches its softmax before z_i's
        if z_k.requires_grad:
            gb = (a @ g) / n
            add(z_k, b * (gb - (gb * b).sum(axis=1, keepdims=True)))
        if z_i.requires_grad:
            ga = (b @ g.T) / n
            add(z_i, a * (ga - (ga * a).sum(axis=1, keepdims=True)))

    return nm.custom_op(p, (z_i, z_k), backward_fn)


def loss_contrastive_pair(p, alpha: float) -> Tensor:
    """-sum_{dd'} P log(P / (P_d^(a+1) P_d'^(a+1))) with clamped logs.

    Decomposes as -MI(P) - alpha (H_row + H_col): minimizing it raises both
    the mutual information between the paired views and the marginal
    entropies of each view's code.
    """
    p = as_tensor(p)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if np.any(p.data < 0):
        raise DistributionError("joint distribution has negative entries")
    total = p.data.sum()
    if abs(total - 1.0) > 1e-9:
        raise DistributionError(f"joint distribution sums to {total!r}, not 1")
    a1 = float(alpha) + 1.0
    pc = np.maximum(p.data, LOG_FLOOR)
    row = p.data.sum(axis=1)
    col = p.data.sum(axis=0)
    rowc = np.maximum(row, LOG_FLOOR)
    colc = np.maximum(col, LOG_FLOOR)
    log_p = np.log(pc)
    log_row = np.log(rowc)
    log_col = np.log(colc)
    t = p.data * log_p - a1 * (p.data * (log_row[:, None] + log_col[None, :]))
    value = -np.sum(t)

    def backward_fn(out):
        if not p.requires_grad:
            return
        g = out.grad[0, 0]
        direct = log_p + p.data * (p.data >= LOG_FLOOR) / pc
        marg = (log_row + row * (row >= LOG_FLOOR) / rowc)[:, None] \
            + (log_col + col * (col >= LOG_FLOOR) / colc)[None, :]
        nm.accumulate_grad(p, g * (-direct + a1 * marg))

    return nm.custom_op(np.array([[value]]), (p,), backward_fn)


def loss_contrastive(zhats, mask, alpha: float) -> Tensor:
    """Sum of pair losses over ordered view pairs, jointly observed subjects only.

    The pair loss is symmetric under transpose (P_ki = P_ik^T), so each
    unordered pair i < k is computed once with weight 2, which equals the sum
    over both orders. A pair with fewer than two jointly observed subjects
    contributes 0.
    """
    mask = np.asarray(mask, dtype=bool)
    zhats = [as_tensor(z) for z in zhats]
    m = mask.shape[1]
    total = None
    for i in range(m):
        for k in range(i + 1, m):
            joint = _joint_subjects(mask, i, k)
            if joint.size < 2:
                continue
            p = joint_distribution(zhats[i], zhats[k], joint)
            term = scale(loss_contrastive_pair(p, alpha), 2.0)
            total = term if total is None else nm.add(total, term)
    return total if total is not None else constant(0.0)


def total_loss(l_clf, l_al, l_co, l_cl, weights: LossWeights):
    """Combine the four terms; returns (scalar node, LossBreakdown).

    `None` parts are treated as absent (0.0 in the breakdown, no graph edge).
    Raises NumericError naming the first non-finite part.
    """
    parts = {"l_clf": l_clf, "l_al": l_al, "l_co": l_co, "l_cl": l_cl}
    values = {}
    for name, part in parts.items():
        if part is None:
            values[name] = 0.0
            continue
        node = as_tensor(part)
        values[name] = node.item()
        if not np.isfinite(values[name]):
            raise NumericError(name, values[name])
        parts[name] = node
    total = parts["l_clf"] if parts["l_clf"] is not None else constant(0.0)
    for name, lam in (("l_al", weights.lambda_al), ("l_co", weights.lambda_co),
                      ("l_cl", weights.lambda_cl)):
        if parts[name] is not None:
            total = nm.add(total, scale(parts[name], lam))
    breakdown = LossBreakdown(values["l_clf"], values["l_al"], values["l_co"],
                              values["l_cl"], total.item())
    return total, breakdown


def build_objective(views, mask, labels, params: CLCLSAParams, weights: LossWeights,
                    mode: str = "train", rngs=None, reduction: str = "mean",
                    conf_targets=None):
    """Assemble the full training objective.

    Returns (total node, LossBreakdown, ForwardCache). A term whose weight is
    zero is skipped entirely: its loss function is never called and it adds
    no graph edge.

    Completion reads the running statistics in `params.bn_states`. In train
    mode the reconstruction passes update a copy of them, returned as
    `cache.bn_states` while `params.bn_states` stays untouched. The
    objective is therefore a pure function of the parameters and their
    statistics; `train.train` commits the staged statistics only once the
    step's loss and gradients are finite.
    """
    mask = np.asarray(mask, dtype=bool)
    labels = np.asarray(labels)
    stats = params.bn_states
    if mode == "train":
        stats = {name: st.copy() for name, st in stats.items()}
    cache = forward_full(views, mask, params, mode, rngs)
    l_clf = loss_classification(cache.yhat, labels, reduction)
    l_al = l_co = l_cl = None
    if weights.lambda_al > 0:
        l_al = loss_auxiliary(cache.matt, cache.yhat_view, cache.obs_idx, labels,
                              reduction, conf_targets)
    if weights.lambda_co > 0:
        l_co = loss_cross_omics(cache.zhat_full, mask, params, mode, reduction, stats)
    if weights.lambda_cl > 0:
        l_cl = loss_contrastive(cache.zhat_full, mask, weights.alpha)
    total, breakdown = total_loss(l_clf, l_al, l_co, l_cl, weights)
    cache.bn_states = stats
    return total, breakdown, cache


def predict(views, mask, params: CLCLSAParams):
    """Class probabilities and argmax labels in eval mode (deterministic).

    Missing views are completed first; argmax ties resolve to the lowest
    class index.
    """
    cache = forward_full(views, mask, params, mode="eval")
    yhat = cache.yhat.data
    return yhat, np.argmax(yhat, axis=1)


def latent_variances(cache: ForwardCache) -> list:
    """Mean per-coordinate variance of each view's completed latent (collapse monitor)."""
    return [float(z.data.var(axis=0).mean()) for z in cache.zhat_full]


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_FORMAT = "clclsa-checkpoint"
CHECKPOINT_VERSION = 2


def _to_base64(a) -> str:
    return base64.b64encode(np.ascontiguousarray(a, "<f8").tobytes()).decode("ascii")


def _from_base64(text, where, count=None) -> np.ndarray:
    """The float64 values of a base64 payload; `count` is the length it must have."""
    raw = base64.b64decode(text, validate=True)
    expected = len(raw) // 8 if count is None else count
    if len(raw) != 8 * expected:
        raise ValueError(f"{where}: payload holds {len(raw)} bytes, not {expected} float64 values")
    return np.frombuffer(raw, "<f8").astype(np.float64)


def save_checkpoint(path, params: CLCLSAParams, extra=None) -> None:
    """Write config + every named tensor + batch-norm stats as one JSON document.

    Each tensor (row-major, with its shape) and each batch-norm running mean
    and variance is a base64 string of its little-endian float64 bytes, so a
    load reproduces every value bit for bit. The layout has no timestamps:
    saving the same parameters twice writes the same bytes. The file is
    written atomically.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "params": {
            name: {"shape": list(t.data.shape), "values": _to_base64(t.data)}
            for name, t in params.tensors().items()
        },
        "bn_states": {
            name: {
                "running_mean": _to_base64(st.running_mean),
                "running_var": _to_base64(st.running_var),
                "momentum": st.momentum,
                "eps": st.eps,
            }
            for name, st in params.bn_states.items()
        },
    }
    if extra:
        doc["extra"] = extra
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> CLCLSAParams:
    """Read a checkpoint written by `save_checkpoint`.

    Raises ValueError for a file of another format, any version but the
    current one, or a payload whose length does not match its shape.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint version {doc.get('version')!r} is not "
                         f"supported (this build reads version {CHECKPOINT_VERSION})")
    config = ModelConfig(**doc["config"])
    tensors: "OrderedDict[str, Tensor]" = OrderedDict()
    for name, entry in doc["params"].items():
        shape = tuple(entry["shape"])
        arr = _from_base64(entry["values"], f"{path}: {name}", math.prod(shape))
        tensors[name] = parameter(arr.reshape(shape), name)
    bn_states = {}
    for name, entry in doc["bn_states"].items():
        mean = _from_base64(entry["running_mean"], f"{path}: {name}.running_mean")
        var = _from_base64(entry["running_var"], f"{path}: {name}.running_var", mean.size)
        st = BatchNormState(mean.size, entry["momentum"], entry["eps"])
        st.running_mean = mean.reshape(1, -1)
        st.running_var = var.reshape(1, -1)
        bn_states[name] = st
    return CLCLSAParams(config, tensors, bn_states)
