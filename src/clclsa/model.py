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

import functools
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Literal, Optional

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
    input_dims: tuple[int, ...]
    embed_dims: tuple[int, ...]
    num_classes: int
    ae_hidden: tuple[int, ...] = (64, 32)
    dropout_p: float = 0.5
    completion: Literal["cross", "zero"] = "cross"
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5

    def __post_init__(self):
        nm.coerce_fields(self)
        if self.num_views < 2:
            raise ValueError(f"num_views must be >= 2, got {self.num_views}")
        if len(self.input_dims) != self.num_views or len(self.embed_dims) != self.num_views:
            raise ValueError("input_dims and embed_dims must have one entry per view")
        if any(d < 1 for d in self.input_dims + self.embed_dims):
            raise ValueError("input_dims and embed_dims must be >= 1")
        if len(set(self.embed_dims)) != 1:
            raise ValueError("embed_dims must all be equal")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if len(self.ae_hidden) != 2 or any(h < 1 for h in self.ae_hidden):
            raise ValueError("ae_hidden must be two positive widths")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ValueError(f"bn_momentum must be in [0, 1], got {self.bn_momentum}")
        if not self.bn_eps > 0:
            raise ValueError(f"bn_eps must be > 0, got {self.bn_eps}")

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
        nm.coerce_fields(self)
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class LossBreakdown:
    l_clf: float
    l_al: float
    l_co: float
    l_cl: float
    total: float


# ---------------------------------------------------------------------------
# Parameters


def param_layout(config: ModelConfig):
    """The parameters a config defines: ([(tensor name, shape)], [(batch-norm
    state name, width)]), in the order of `CLCLSAParams.tensors()` and
    `bn_states`, which is also the order of a checkpoint's payload."""
    shapes, widths = [], []

    def linear(prefix, fan_in, fan_out):
        shapes.extend([(prefix + ".W", (fan_in, fan_out)), (prefix + ".b", (1, fan_out))])

    def norm(prefix, dim, routes=("",)):
        shapes.extend([(prefix + ".gamma", (1, dim)), (prefix + ".beta", (1, dim))])
        widths.extend((prefix + route, dim) for route in routes)

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
        # the shared decoder serves one code distribution per source view;
        # running stats are kept per route so eval-mode normalization is
        # calibrated for whichever encoder fed it (weights stay shared)
        norm(f"view{i}.dec1_bn", h1, [f"@src{k}" for k in range(config.num_views) if k != i])
        linear(f"view{i}.dec2", h1, d)
    linear("classifier", config.fused_dim, config.num_classes)
    return shapes, widths


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
        """Weights from the "init" stream's child named after each weight,
        zero biases and betas, unit gammas, and fresh running statistics."""
        rng = RngStream(seed, "init")
        shapes, widths = param_layout(config)
        tensors: "OrderedDict[str, Tensor]" = OrderedDict()
        for name, shape in shapes:
            kind = name.rsplit(".", 1)[1]
            if kind == "W":
                data = nm.init_params(shape, rng.child(name))
            else:
                data = np.ones(shape) if kind == "gamma" else np.zeros(shape)
            tensors[name] = parameter(data, name)
        return cls(config, tensors, {name: BatchNormState(w) for name, w in widths})

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
    matt: Tensor
    zhat: Tensor
    yhat: Tensor


def _plus(a, b):
    """Sum of two gradient contributions, either of which may be absent."""
    return b if a is None else a + b


def _affine_backward(g, x, w: Tensor, b: Tensor, need_x: bool = True):
    """Add the partials of x @ W + b for output gradient g to W and b; returns
    d/dx if need_x."""
    nm.accumulate_grad(w, x.T @ g)
    nm.accumulate_grad(b, g.sum(axis=0, keepdims=True))
    return g @ w.data.T if need_x else None


def _softmax_backward(y, g):
    """d/dx of the row softmax y = softmax(x) for output gradient g:
    y (g - rowsum(g y)), in place in a fresh array."""
    out = g * y
    np.subtract(g, out.sum(axis=1, keepdims=True), out=out)
    out *= y
    return out


VIEW_WEIGHTS = ("fatt.W", "fatt.b", "embed.W", "embed.b", "gate.W", "gate.b")


def _view_latent(xd, params: CLCLSAParams, view: int, mode: str,
                 rng: Optional[RngStream] = None):
    """The view block on an array of view `view`'s features: feature gate,
    embedding, ReLU, dropout (train mode only, drawn as `numerics.dropout`
    draws it), view gate and gated latent. Returns zhat, matt and the arrays
    `forward_view`'s backward reuses: (fatt, gated, a2, xhat, keep).
    """
    cfg = params.config
    fw, fb, ew, eb, gw, gb = (params[f"view{view}.{name}"].data for name in VIEW_WEIGHTS)
    fatt = nm.sigmoid_values(xd @ fw + fb)
    gated = xd * fatt
    a2 = gated @ ew + eb
    xhat = np.maximum(a2, 0.0)
    keep = None
    if mode == "train" and cfg.dropout_p > 0.0:
        if rng is None:
            raise ValueError("forward_view needs an RngStream in train mode with dropout")
        keep = nm.dropout_mask(rng, *xhat.shape, cfg.dropout_p)
        xhat *= keep
    matt = nm.sigmoid_values(xhat @ gw + gb)
    return xhat * matt, matt, (fatt, gated, a2, xhat, keep)


def _softmax_head(x, w: Tensor, b: Tensor) -> np.ndarray:
    """softmax(x @ W + b) on an array: a view's auxiliary head, and the
    classifier in `predict` (`forward_full` records the classifier as
    `softmax_rows(affine(...))`, the same arithmetic)."""
    return nm.softmax_values(x @ w.data + b.data)


def forward_view(x, params: CLCLSAParams, view: int, mode: str,
                 rng: Optional[RngStream] = None) -> ViewForward:
    """Gate, embed, and classify one view's features.

    One node with outputs `zhat`, `matt` and `yhat` over `_view_latent` and
    the auxiliary head, which do the arithmetic of the op-by-op chain
    (sigmoid(affine), mul, affine, ReLU, dropout, sigmoid(affine), mul,
    softmax(affine)).
    """
    nm._check_mode(mode)
    x = as_tensor(x)
    fw, fb, ew, eb, gw, gb, aw, ab = (params[f"view{view}.{name}"]
                                      for name in VIEW_WEIGHTS + ("aux.W", "aux.b"))
    xd = x.data
    zhat, matt, (fatt, gated, a2, xhat, keep) = _view_latent(xd, params, view, mode, rng)
    yhat = _softmax_head(zhat, aw, ab)

    def backward_fn(grads):
        gz, gm, gy = grads
        if gy is not None:
            gz = _plus(gz, _affine_backward(_softmax_backward(yhat, gy), zhat, aw, ab))
        gx = None
        if gz is not None:
            gx = gz * matt
            gm = _plus(gm, (gz * xhat).sum(axis=1, keepdims=True))
        if gm is not None:
            gx = _plus(gx, _affine_backward(gm * matt * (1.0 - matt), xhat, gw, gb))
        # some output had a gradient, so gx is set: this hook's own array from here on
        if keep is not None:
            gx *= keep
        gx *= a2 > 0
        gg = _affine_backward(gx, gated, ew, eb)
        g = gg * xd
        g *= fatt
        g *= 1.0 - fatt
        g = _affine_backward(g, xd, fw, fb, x.requires_grad)
        if g is not None:
            nm.accumulate_grad(x, gg * fatt)
            nm.accumulate_grad(x, g)

    zhat_t, matt_t, yhat_t = nm.multi_output_op(
        (zhat, matt, yhat), (x, fw, fb, ew, eb, gw, gb, aw, ab), backward_fn)
    return ViewForward(matt=matt_t, zhat=zhat_t, yhat=yhat_t)


def _bn_relu(x, w, b, gamma, beta, state, mode, config: ModelConfig):
    """affine -> batch norm -> ReLU on arrays, with `numerics.batch_norm`'s arithmetic
    at `config.bn_momentum` and `config.bn_eps`.

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
        inv_std = 1.0 / np.sqrt(var + config.bn_eps)
        m = config.bn_momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mu
        state.running_var = (1.0 - m) * state.running_var + m * var
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + config.bn_eps)
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
    return _affine_backward(g, x, w, b, need_x)


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
    h1, saved1 = _bn_relu(z, *enc1, stats[enc + "enc1_bn"], mode, params.config)
    a2 = h1 @ enc2_w.data + enc2_b.data
    code = np.maximum(a2, 0.0)
    h3, saved3 = _bn_relu(code, *dec1, stats[f"{dec}dec1_bn@src{source}"], mode,
                          params.config)

    def backward(g, need_z):
        g = _affine_backward(g, h3, dec2_w, dec2_b)
        g = _bn_relu_backward(g, code, *dec1, saved3, mode, True)
        g *= a2 > 0
        g = _affine_backward(g, h1, enc2_w, enc2_b)
        return _bn_relu_backward(g, z, *enc1, saved1, mode, need_z)

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
    nm._check_mode(mode)
    z = as_tensor(z)
    stats = params.bn_states if bn_stats is None else bn_stats
    out, weights, back = _translate(z.data, source, target, params, mode, stats)

    def backward_fn(node):
        g = back(node.grad, z.requires_grad)
        if g is not None:
            nm.accumulate_grad(z, g)

    return nm.custom_op(out, (z, *weights), backward_fn)


def _complete_values(full, target: int, miss_rows, mask, observed_counts,
                     params: CLCLSAParams):
    """View `target`'s completed latent on arrays, from `full`, every view's
    latents scattered to all subjects: `full[target]` plus the eval-mode
    translation of each observed source at the missing rows, times the
    reciprocal source count there. Returns the completed latent, the row
    weights and, per source view in view order, (view index, rows,
    translator weights, translator backward).
    """
    # adding scatter(pred) adds 0.0 to the rows outside sel: one + 0.0 covers them all
    acc = full[target] + 0.0
    sources = []
    for k, source in enumerate(full):
        sel = miss_rows[mask[miss_rows, k]]
        if k == target or sel.size == 0:
            continue
        pred, weights, back = _translate(source[sel], k, target, params, "eval",
                                         params.bn_states)
        acc[sel] += pred
        sources.append((k, sel, weights, back))
    # observed rows keep weight 1; missing rows average their sources
    inv = np.ones((acc.shape[0], 1))
    inv[miss_rows, 0] = 1.0 / observed_counts[miss_rows]
    acc *= inv
    return acc, inv, sources


def _complete_view(full, target: int, miss_rows, mask, observed_counts,
                   params: CLCLSAParams) -> Tensor:
    """`_complete_values` as one node over the scattered latents `full`: the
    arithmetic of (+ scatter(translate(gather)))* -> times the reciprocal
    source count, with the backward taking the sources in descending order,
    as the op-by-op record's reverse order does.
    """
    acc, inv, sources = _complete_values([z.data for z in full], target, miss_rows, mask,
                                         observed_counts, params)
    parents = [full[target]]
    for k, _, weights, _ in sources:
        parents += [full[k], *weights]

    def backward_fn(out):
        g = out.grad * inv
        for k, sel, _, back in reversed(sources):
            g_source = back(g[sel], full[k].requires_grad)
            if g_source is not None:
                nm.accumulate_rows(full[k], sel, g_source)
        nm.accumulate_grad(full[target], g)

    return nm.custom_op(acc, parents, backward_fn)


def _observed_counts(mask) -> np.ndarray:
    """Observed views per subject; raises SubjectError for a subject with none."""
    observed_counts = mask.sum(axis=1)
    if np.any(observed_counts == 0):
        bad = int(np.flatnonzero(observed_counts == 0)[0])
        raise SubjectError(f"subject {bad} has no observed view")
    return observed_counts


def _completion_targets(mask, config: ModelConfig):
    """(view, its missing rows) for each view whose missing rows the
    completion policy fills; none under the "zero" policy."""
    if config.completion == "zero":
        return []
    targets = ((i, np.flatnonzero(~mask[:, i])) for i in range(mask.shape[1]))
    return [(i, rows) for i, rows in targets if rows.size]


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
    observed_counts = _observed_counts(mask)
    full = [scatter_rows(z, np.flatnonzero(mask[:, i]), n) for i, z in enumerate(zhats)]
    out = list(full)
    targets = _completion_targets(mask, params.config)
    for (i, _), z in zip(targets, nm._fan_out(
            lambda target: _complete_view(full, *target, mask, observed_counts, params), targets)):
        out[i] = z
    return out, ~mask


@dataclass
class ForwardCache:
    """Per-batch intermediates: view gates, latents, classifier outputs, provenance.

    Per-view fields hold rows for observed subjects only (masked cells are
    never read); `obs_idx[i]` maps those rows back to subject indices. The
    full-size fields are the completed latents, the fused representation, the
    final class probabilities, and the completed-entry flags. `bn_states`
    holds the batch-norm statistics `build_objective` staged for its step.
    """

    obs_idx: list
    matt: list
    zhat_obs: list
    yhat_view: list
    zhat_full: list
    provenance: np.ndarray
    fused: Tensor
    yhat: Tensor
    bn_states: Optional[dict] = None


def _check_inputs(views, mask, config: ModelConfig):
    """The views as float64 arrays and the mask as a bool array, once they fit
    `config` and each other: a 2-D mask with a column per view, and a 2-D
    view with a row per mask row and the configured feature width for each
    view, observed or not."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise nm.ShapeError(f"the mask must be 2-D (subjects x views), got shape {mask.shape}")
    n, m = mask.shape
    if len(views) != m or m != config.num_views:
        raise nm.ShapeError(f"expected {config.num_views} views, got {len(views)} views "
                            f"and {m} mask columns")
    arrays = []
    for i, view in enumerate(views):
        x = np.asarray(view, dtype=np.float64)
        if x.ndim != 2:
            raise nm.ShapeError(f"view {i} must be 2-D (subjects x features), got shape {x.shape}")
        if x.shape[0] != n:
            raise nm.ShapeError(f"view {i} has {x.shape[0]} rows but the mask has {n}")
        if x.shape[1] != config.input_dims[i]:
            raise nm.ShapeError(
                f"view {i} expects {config.input_dims[i]} features, got {x.shape[1]}")
        arrays.append(x)
    return arrays, mask


def forward_full(views, mask, params: CLCLSAParams, mode: str, rngs=None) -> ForwardCache:
    """Run every view, complete missing latents, fuse, and classify."""
    nm._check_mode(mode)
    views, mask = _check_inputs(views, mask, params.config)
    obs_indices = [np.flatnonzero(mask[:, i]) for i in range(len(views))]
    per_view = nm._fan_out(
        lambda i: forward_view(constant(views[i][obs_indices[i]]), params, i, mode,
                               rngs[i] if rngs is not None else None),
        range(len(views)))
    zhat_full, provenance = complete_missing([vf.zhat for vf in per_view], mask, params)
    fused = concat_cols(zhat_full)
    yhat = softmax_rows(affine(fused, params["classifier.W"], params["classifier.b"]))
    return ForwardCache(
        obs_idx=obs_indices,
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


def _sum_terms(terms) -> Tensor:
    """The loss terms added left to right; constant 0 when there are none."""
    terms = list(terms)
    return functools.reduce(nm.add, terms) if terms else constant(0.0)


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
    terms = []
    for i, (matt, yhat, obs) in enumerate(zip(matts, yhat_views, obs_indices)):
        if len(obs) == 0:
            continue
        matt, yhat = as_tensor(matt), as_tensor(yhat)
        y_v = _check_labels(labels[obs], yhat.cols, yhat.rows)
        if conf_targets is not None:
            conf = np.asarray(conf_targets[i], dtype=np.float64).reshape(-1, 1)
        else:
            conf = yhat.data.max(axis=1, keepdims=True)
        terms.append(_auxiliary_term(matt, yhat, y_v, conf, reduction))
    return _sum_terms(terms)


def _joint_pairs(mask, ordered: bool):
    """(i, k, the subjects observed in both) for each ordered pair i != k, or
    each unordered pair i < k, that at least two subjects share."""
    m = mask.shape[1]
    for i in range(m):
        for k in range(0 if ordered else i + 1, m):
            if k != i:
                joint = np.flatnonzero(mask[:, i] & mask[:, k])
                if joint.size >= 2:
                    yield i, k, joint


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
    `bn_stats` (default `params.bn_states`). Each pair's term is one node, and a
    source view's pairs are one branch, so its encoder statistics update in order."""
    nm._check_mode(mode)
    mask = np.asarray(mask, dtype=bool)
    zhats = [as_tensor(z) for z in zhats]
    stats = params.bn_states if bn_stats is None else bn_stats
    pairs = list(_joint_pairs(mask, ordered=True))
    sources = sorted({k for _, k, _ in pairs})
    made = dict(zip(sources, map(iter, nm._fan_out(lambda source: [
        _cross_omics_term(zhats, i, k, joint, params, mode, reduction, stats)
        for i, k, joint in pairs if k == source], sources))))
    return _sum_terms(next(made[k]) for _, k, _ in pairs)


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
            add(z_k, _softmax_backward(b, (a @ g) / n))
        if z_i.requires_grad:
            add(z_i, _softmax_backward(a, (b @ g.T) / n))

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
    return _sum_terms(nm._fan_out(
        lambda pair: scale(loss_contrastive_pair(
            joint_distribution(zhats[pair[0]], zhats[pair[1]], pair[2]), alpha), 2.0),
        list(_joint_pairs(mask, ordered=False))))


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
    nm._check_mode(mode)
    mask = np.asarray(mask, dtype=bool)
    labels = np.asarray(labels)
    stats = params.bn_states
    if mode == "train":
        stats = {name: st.copy() for name, st in stats.items()}
    cache = forward_full(views, mask, params, mode, rngs)
    l_clf = loss_classification(cache.yhat, labels, reduction)
    l_al = None
    if weights.lambda_al > 0:
        l_al = loss_auxiliary(cache.matt, cache.yhat_view, cache.obs_idx, labels,
                              reduction, conf_targets)
    l_co, l_cl = nm._fan_out(lambda build: build(), (
        lambda: loss_cross_omics(cache.zhat_full, mask, params, mode, reduction, stats)
        if weights.lambda_co > 0 else None,
        lambda: loss_contrastive(cache.zhat_full, mask, weights.alpha)
        if weights.lambda_cl > 0 else None))
    total, breakdown = total_loss(l_clf, l_al, l_co, l_cl, weights)
    cache.bn_states = stats
    return total, breakdown, cache


def predict(views, mask, params: CLCLSAParams):
    """Class probabilities and argmax labels in eval mode (deterministic).

    Missing views are completed first; argmax ties resolve to the lowest
    class index. The values are `forward_full(..., "eval").yhat` bit for bit:
    this runs the same array kernels (`_view_latent`, `scatter_values`,
    `_complete_values`, `_softmax_head`) with the same checks, but builds no
    tape node and skips the per-view auxiliary heads, and the view block of a
    view no subject in the call observes.
    """
    views, mask = _check_inputs(views, mask, params.config)
    n = mask.shape[0]
    full = []
    for i, x in enumerate(views):
        obs = np.flatnonzero(mask[:, i])
        if obs.size:
            full.append(nm.scatter_values(_view_latent(x[obs], params, i, "eval")[0], obs, n))
        else:  # the zeros scattering no rows gives, without running the view block
            full.append(np.zeros((n, params.config.embed_dims[i])))
    observed_counts = _observed_counts(mask)
    completed = list(full)
    for i, miss_rows in _completion_targets(mask, params.config):
        completed[i] = _complete_values(full, i, miss_rows, mask, observed_counts, params)[0]
    yhat = _softmax_head(np.concatenate(completed, axis=1), params["classifier.W"],
                         params["classifier.b"])
    return yhat, np.argmax(yhat, axis=1)


def latent_variances(cache: ForwardCache) -> list:
    """Mean per-coordinate variance of each view's completed latent (collapse
    monitor), by the steps of numpy's `z.var(axis=0).mean()` without its
    Python wrappers."""
    out = []
    for z in cache.zhat_full:
        n = z.data.shape[0]
        centred = z.data - z.data.sum(axis=0, keepdims=True) / n
        centred *= centred
        var = centred.sum(axis=0) / n
        out.append(float(var.sum() / var.size))
    return out


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_FORMAT = "clclsa-checkpoint"
CHECKPOINT_VERSION = 3
CHECKPOINT_DTYPE = "<f8"
HEADER_LIMIT = 1 << 20  # bytes a format-3 header line may take, newline included


def _in_layout(where, config: ModelConfig, tensors: dict, stats: dict):
    """`tensors` (name -> array) and `stats` (name -> (running mean, running
    variance)) in `param_layout(config)`'s order, after checking them against
    it: raises ValueError naming the first missing, extra or mis-shaped tensor,
    then the first missing, extra or mis-sized batch-norm state."""
    shapes, widths = param_layout(config)
    expected = (("tensor", dict(shapes), {n: a.shape for n, a in tensors.items()}),
                ("batch-norm state", {n: ((1, w), (1, w)) for n, w in widths},
                 {n: (m.shape, v.shape) for n, (m, v) in stats.items()}))
    for kind, want, got in expected:
        for name, shape in want.items():
            if name not in got:
                raise ValueError(f"{where}: {kind} {name} is missing")
            if got[name] != shape:
                raise ValueError(f"{where}: {kind} {name} is shaped {got[name]}, "
                                 f"its config gives {shape}")
        for name in got:
            if name not in want:
                raise ValueError(f"{where}: {kind} {name} is not in its config's layout")
    return ([(n, tensors[n]) for n, _ in shapes], [(n, stats[n]) for n, _ in widths])


def save_checkpoint(path, params: CLCLSAParams, extra=None) -> None:
    """Write a format-3 checkpoint: one JSON header line, then the raw values.

    The header holds the format, version, config, dtype ("<f8") and the
    optional `extra`. The little-endian float64 bytes of every tensor, then of
    each batch-norm state's running mean and variance, follow it directly, in
    the order `param_layout(params.config)` gives, so a load reproduces every
    value bit for bit. There are no timestamps: saving the same parameters
    twice writes the same bytes. Raises ValueError, before writing, for
    parameters that do not fit their config's layout. The file is written
    atomically.
    """
    tensors, stats = _in_layout(path, params.config,
                                {n: t.data for n, t in params.tensors().items()},
                                {n: (st.running_mean, st.running_var)
                                 for n, st in params.bn_states.items()})
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
              "config": asdict(params.config), "dtype": CHECKPOINT_DTYPE}
    if extra:
        header["extra"] = extra
    line = (json.dumps(header) + "\n").encode("ascii")
    if len(line) > HEADER_LIMIT:
        raise ValueError(f"{path}: checkpoint header takes {len(line)} bytes, "
                         f"more than {HEADER_LIMIT}")
    arrays = [a for _, a in tensors] + [a for _, pair in stats for a in pair]
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(line)
            for a in arrays:
                fh.write(np.ascontiguousarray(a, CHECKPOINT_DTYPE))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> CLCLSAParams:
    """Read a checkpoint written by `save_checkpoint`.

    The payload is read into one float64 buffer, and every tensor and
    running statistic is a writable view into it. Raises ValueError for a file
    of another format, a version other than 3 (the version-2 documents that
    builds before format 3 wrote included), a dtype other than "<f8", a
    config that is not valid, or a payload whose byte count does not fit the
    layout its config defines (see `param_layout`).
    """
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.readline(HEADER_LIMIT))
        except ValueError:
            doc = None
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            # also a version-2 document longer than HEADER_LIMIT, whose first line is cut
            raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file "
                             f"(this build reads version {CHECKPOINT_VERSION})")
        version = doc.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {version!r} is not supported "
                             f"(this build reads version {CHECKPOINT_VERSION})")
        if doc.get("dtype") != CHECKPOINT_DTYPE:
            raise ValueError(f"{path}: checkpoint dtype {doc.get('dtype')!r} is not "
                             f"{CHECKPOINT_DTYPE!r}")
        try:
            config = ModelConfig(**doc["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: checkpoint holds no valid model config ({exc})") from None
        shapes, widths = param_layout(config)
        sizes = [shape for _, shape in shapes] + [(1, w) for _, w in widths for _ in (0, 1)]
        count = sum(r * c for r, c in sizes)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != 8 * count:
            raise ValueError(f"{path}: payload holds {held} bytes, its config's layout "
                             f"needs {8 * count}")
        flat = np.empty(count, CHECKPOINT_DTYPE)
        if fh.readinto(flat) != 8 * count:
            raise ValueError(f"{path}: payload changed while it was read")
    views = iter(nm._views(flat.astype(np.float64, copy=False), sizes))
    tensors = OrderedDict((name, parameter(next(views), name)) for name, _ in shapes)
    bn_states = {name: BatchNormState(width) for name, width in widths}
    for st in bn_states.values():
        st.running_mean, st.running_var = next(views), next(views)
    return CLCLSAParams(config, tensors, bn_states)
