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
    dropout,
    gather_rows,
    log,
    mean_all,
    mul,
    neg,
    parameter,
    pick_per_row,
    relu,
    scale,
    scatter_rows,
    sigmoid,
    softmax_rows,
    sub,
    sum_all,
)

# joint_distribution fuses these two; bench/tracing.py still wraps them on this
# module by name
from .numerics import mean_outer, unit_sum  # noqa: F401

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
    def embed_dim(self) -> int:
        return self.embed_dims[0]

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

    def set_values(self, values: dict) -> None:
        for name, arr in values.items():
            t = self._tensors[name]
            if t.data.shape != arr.shape:
                raise nm.ShapeError(f"value shape {arr.shape} != {t.data.shape} for {name!r}")
            t.data = np.array(arr, dtype=np.float64)


# ---------------------------------------------------------------------------
# Forward pieces


@dataclass
class ViewForward:
    fatt: Tensor
    xhat: Tensor
    matt: Tensor
    zhat: Tensor
    yhat: Tensor


def forward_view(x, params: CLCLSAParams, view: int, mode: str,
                 rng: Optional[RngStream] = None) -> ViewForward:
    """Gate, embed, and classify one view's features."""
    x = as_tensor(x)
    cfg = params.config
    if x.cols != cfg.input_dims[view]:
        raise nm.ShapeError(
            f"view {view} expects {cfg.input_dims[view]} features, got {x.cols}")
    p = params
    fatt = sigmoid(affine(x, p[f"view{view}.fatt.W"], p[f"view{view}.fatt.b"]))
    gated = mul(x, fatt)
    xhat = relu(affine(gated, p[f"view{view}.embed.W"], p[f"view{view}.embed.b"]))
    if mode == "train" and cfg.dropout_p > 0.0:
        if rng is None:
            raise ValueError("forward_view needs an RngStream in train mode with dropout")
        xhat = dropout(xhat, cfg.dropout_p, mode, rng)
    matt = sigmoid(affine(xhat, p[f"view{view}.gate.W"], p[f"view{view}.gate.b"]))
    zhat = mul(xhat, matt)
    yhat = softmax_rows(affine(zhat, p[f"view{view}.aux.W"], p[f"view{view}.aux.b"]))
    return ViewForward(fatt=fatt, xhat=xhat, matt=matt, zhat=zhat, yhat=yhat)


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
    a = x @ w.data + b.data
    if mode == "train":
        n = a.shape[0]
        if n < 2:
            raise nm.BatchSizeError(f"batch_norm needs at least 2 rows in train mode, got {n}")
        mu = a.mean(axis=0, keepdims=True)
        var = a.var(axis=0, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat = (a - mu) * inv_std
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mu
        state.running_var = (1.0 - m) * state.running_var + m * var
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (a - state.running_mean) * inv_std
    y = xhat * gamma.data + beta.data
    return np.maximum(y, 0.0), (y, xhat, inv_std)


def _bn_relu_backward(g, x, w, b, gamma, beta, saved, mode, need_x):
    """Add `_bn_relu`'s parameter partials for output gradient g; returns d/dx if need_x."""
    y, xhat, inv_std = saved
    g = g * (y > 0)
    nm.accumulate_grad(gamma, (g * xhat).sum(axis=0, keepdims=True))
    nm.accumulate_grad(beta, g.sum(axis=0, keepdims=True))
    if mode == "train":
        n = g.shape[0]
        dxhat = g * gamma.data
        g = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0, keepdims=True)
                             - xhat * (dxhat * xhat).sum(axis=0, keepdims=True))
    else:
        g = g * (gamma.data * inv_std)
    nm.accumulate_grad(w, x.T @ g)
    nm.accumulate_grad(b, g.sum(axis=0, keepdims=True))
    return g @ w.data.T if need_x else None


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

    The chain is one tape node with a hand-written backward that does the
    arithmetic of the op-by-op composition, so values and gradients are the
    same bits.
    """
    if source == target:
        raise PairError(f"cross_predict needs distinct views, got {source} -> {target}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    z = as_tensor(z)
    stats = params.bn_states if bn_stats is None else bn_stats
    p = params
    enc, dec = f"view{source}.", f"view{target}."
    enc1 = (p[enc + "enc1.W"], p[enc + "enc1.b"], p[enc + "enc1_bn.gamma"],
            p[enc + "enc1_bn.beta"])
    enc2_w, enc2_b = p[enc + "enc2.W"], p[enc + "enc2.b"]
    dec1 = (p[dec + "dec1.W"], p[dec + "dec1.b"], p[dec + "dec1_bn.gamma"],
            p[dec + "dec1_bn.beta"])
    dec2_w, dec2_b = p[dec + "dec2.W"], p[dec + "dec2.b"]
    if z.cols != enc1[0].rows:
        raise nm.ShapeError(
            f"cross_predict: view {source} latents are {enc1[0].rows} wide, got {z.cols}")
    h1, saved1 = _bn_relu(z.data, *enc1, stats[enc + "enc1_bn"], mode)
    a2 = h1 @ enc2_w.data + enc2_b.data
    code = np.maximum(a2, 0.0)
    h3, saved3 = _bn_relu(code, *dec1, stats[f"{dec}dec1_bn@src{source}"], mode)

    def backward_fn(out):
        g = out.grad
        nm.accumulate_grad(dec2_w, h3.T @ g)
        nm.accumulate_grad(dec2_b, g.sum(axis=0, keepdims=True))
        g = _bn_relu_backward(g @ dec2_w.data.T, code, *dec1, saved3, mode, True)
        g = g * (a2 > 0)
        nm.accumulate_grad(enc2_w, h1.T @ g)
        nm.accumulate_grad(enc2_b, g.sum(axis=0, keepdims=True))
        g = _bn_relu_backward(g @ enc2_w.data.T, z.data, *enc1, saved1, mode,
                              z.requires_grad)
        if g is not None:
            nm.accumulate_grad(z, g)

    return nm.custom_op(h3 @ dec2_w.data + dec2_b.data,
                        (z, *enc1, enc2_w, enc2_b, *dec1, dec2_w, dec2_b), backward_fn)


def complete_missing(zhats, mask, params: CLCLSAParams, mode: str = "eval",
                     bn_stats=None):
    """Fill missing per-view latents from the observed views.

    `zhats` holds one tensor per view with a row for each subject observed in
    that view, in subject order (the form `ForwardCache.zhat_obs` holds). Each
    missing latent is the mean of the translations from every observed view
    of that subject; observed rows pass through unchanged. Returns (list of
    N x D completed latents, provenance) where provenance[j, i] is True iff
    subject j's view i was completed.

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
    cfg = params.config
    provenance = ~mask
    full = [scatter_rows(z, np.flatnonzero(mask[:, i]), n) for i, z in enumerate(zhats)]
    out = []
    for i in range(m):
        miss_rows = np.flatnonzero(~mask[:, i])
        base = full[i]
        if miss_rows.size == 0 or cfg.completion == "zero":
            out.append(base)
            continue
        acc = base
        for k in range(m):
            if k == i:
                continue
            sel = miss_rows[mask[miss_rows, k]]
            if sel.size == 0:
                continue
            pred = cross_predict(gather_rows(full[k], sel), k, i, params, mode, bn_stats)
            acc = nm.add(acc, scatter_rows(pred, sel, n))
        # observed rows keep weight 1; missing rows average their sources
        inv = np.ones((n, 1))
        inv[miss_rows, 0] = 1.0 / observed_counts[miss_rows]
        out.append(mul(acc, constant(inv)))
    return out, provenance


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


def forward_full(views, mask, params: CLCLSAParams, mode: str,
                 rngs=None, completion_bn_stats=None) -> ForwardCache:
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
    completion_mode = "eval"
    stats = completion_bn_stats if mode == "train" else None
    zhat_full, provenance = complete_missing([vf.zhat for vf in per_view], mask, params,
                                             completion_mode, stats)
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


def loss_auxiliary(matts, yhat_views, obs_indices, labels, reduction: str = "mean",
                   conf_targets=None) -> Tensor:
    """Per-view confidence matching plus auxiliary cross-entropy.

    For each view, over its observed subjects: (matt - max_c yhat_i[c])^2
    - log yhat_i[y]. The confidence target is the maximal softmax output,
    taken as a constant so the squared term trains the gate, not the
    classifier. `conf_targets` overrides the targets (used by the
    finite-difference harness, which must differentiate the same function the
    optimizer sees).
    """
    labels = np.asarray(labels)
    total = None
    for i, (matt, yhat, obs) in enumerate(zip(matts, yhat_views, obs_indices)):
        if len(obs) == 0:
            continue
        y_v = _check_labels(labels[obs], yhat.cols, yhat.rows)
        if conf_targets is not None:
            conf = np.asarray(conf_targets[i], dtype=np.float64).reshape(-1, 1)
        else:
            conf = yhat.data.max(axis=1, keepdims=True)
        diff = sub(matt, constant(conf))
        sq = mul(diff, diff)
        nll = neg(log(clamp_min(pick_per_row(yhat, y_v), LOG_FLOOR)))
        per_subject = nm.add(sq, nll)
        term = mean_all(per_subject) if reduction == "mean" else sum_all(per_subject)
        total = term if total is None else nm.add(total, term)
    return total if total is not None else constant(0.0)


def _joint_subjects(mask, i, k):
    return np.flatnonzero(mask[:, i] & mask[:, k])


def loss_cross_omics(zhats, mask, params: CLCLSAParams, mode: str = "eval",
                     reduction: str = "sum", bn_stats=None) -> Tensor:
    """Squared cross-view translation error over ordered view pairs.

    For each ordered pair (i, k), i != k, sums ||h[i<-k](zhat_k) - zhat_i||^2
    over the subjects observed in both views. "sum" reduces over subjects as
    written; "mean" divides each pair's term by its subject count. Pairs with
    fewer than two jointly observed subjects are skipped (train-mode batch
    norm needs two rows). Train mode updates the running statistics in
    `bn_stats` (default `params.bn_states`).
    """
    mask = np.asarray(mask, dtype=bool)
    zhats = [as_tensor(z) for z in zhats]
    m = mask.shape[1]
    total = None
    for i in range(m):
        for k in range(m):
            if i == k:
                continue
            joint = _joint_subjects(mask, i, k)
            if joint.size < 2:
                continue
            pred = cross_predict(gather_rows(zhats[k], joint), k, i, params, mode, bn_stats)
            target = gather_rows(zhats[i], joint)
            diff = sub(pred, target)
            term = sum_all(mul(diff, diff))
            if reduction == "mean":
                term = scale(term, 1.0 / joint.size)
            total = term if total is None else nm.add(total, term)
    return total if total is not None else constant(0.0)


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def joint_distribution(z_i, z_k) -> Tensor:
    """Joint distribution over latent coordinates of two paired views.

    Rows are first mapped through a row-softmax so each subject contributes a
    distribution over coordinates; the mean outer product is then renormalized
    to sum to 1. One tape node whose forward and backward do the arithmetic of
    `unit_sum(mean_outer(softmax_rows(z_i), softmax_rows(z_k)))`.
    """
    z_i, z_k = as_tensor(z_i), as_tensor(z_k)
    if z_i.rows != z_k.rows:
        raise nm.ShapeError(f"joint_distribution: row counts differ, {z_i.shape} vs {z_k.shape}")
    n = z_i.rows
    if n == 0:
        raise nm.BatchSizeError("joint_distribution: empty batch")
    a, b = _softmax_rows(z_i.data), _softmax_rows(z_k.data)
    outer = (a.T @ b) / n
    s = outer.sum()
    p = outer / s

    def backward_fn(out):
        g = out.grad
        g = (g - (g * p).sum()) / s
        # z_k first: the op-by-op record reaches its softmax before z_i's
        if z_k.requires_grad:
            gb = (a @ g) / n
            nm.accumulate_grad(z_k, b * (gb - (gb * b).sum(axis=1, keepdims=True)))
        if z_i.requires_grad:
            ga = (b @ g.T) / n
            nm.accumulate_grad(z_i, a * (ga - (ga * a).sum(axis=1, keepdims=True)))

    return nm.custom_op(p, (z_i, z_k), backward_fn)


def _contrastive_value_and_parts(p_data: np.ndarray, alpha: float):
    """Forward value plus the pieces the backward pass reuses.

    Transposing P gives the same value up to rounding. `loss_contrastive`
    evaluates each unordered view pair once with weight 2, which equals the
    sum over both orders.
    """
    pc = np.maximum(p_data, LOG_FLOOR)
    row = p_data.sum(axis=1)
    col = p_data.sum(axis=0)
    rowc = np.maximum(row, LOG_FLOOR)
    colc = np.maximum(col, LOG_FLOOR)
    log_p = np.log(pc)
    log_row = np.log(rowc)
    log_col = np.log(colc)
    marg = log_row[:, None] + log_col[None, :]
    t = p_data * log_p - (alpha + 1.0) * (p_data * marg)
    value = -np.sum(t)
    return value, (pc, row, col, rowc, colc, log_p, log_row, log_col)


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
    value, parts = _contrastive_value_and_parts(p.data, float(alpha))
    pc, row, col, rowc, colc, log_p, log_row, log_col = parts
    a1 = float(alpha) + 1.0

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
            p = joint_distribution(gather_rows(zhats[i], joint),
                                   gather_rows(zhats[k], joint))
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
                    active=("al", "co", "cl"), conf_targets=None):
    """Assemble the full training objective.

    Returns (total node, LossBreakdown, ForwardCache). Terms named in `active`
    whose weight is nonzero are computed; others are skipped entirely, so a
    zero weight is bitwise identical to removing the term's code path.

    In train mode the batch-norm statistics are staged in a copy: the
    completion path normalizes with them as of entry, the reconstruction
    passes then update the copy, and the result is returned as
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
    cache = forward_full(views, mask, params, mode, rngs, completion_bn_stats=stats)
    l_clf = loss_classification(cache.yhat, labels, reduction)
    l_al = l_co = l_cl = None
    if "al" in active and weights.lambda_al > 0:
        l_al = loss_auxiliary(cache.matt, cache.yhat_view, cache.obs_idx, labels,
                              reduction, conf_targets)
    if "co" in active and weights.lambda_co > 0:
        l_co = loss_cross_omics(cache.zhat_full, mask, params, mode, reduction, stats)
    if "cl" in active and weights.lambda_cl > 0:
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
