"""Training loop and grid search.

One epoch is: forward all observed views, complete missing latents, assemble
the weighted objective, one Adam step. Full-batch is the default (the
reference recipe trains on the whole set each step); mini-batching is
available. Runs are bitwise reproducible for a fixed seed at one BLAS
thread, also when a wide fit runs its steps' branches on threads.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass, field, replace
from typing import Literal, Optional, get_args

import numpy as np

from . import model as md
from . import numerics as nm
from .data import MultiOmicsDataset, SplitSpec, split
from .model import CLCLSAParams, LossBreakdown, LossWeights, ModelConfig
from .numerics import AdamState, RngStream, adam_step, gradients


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; defaults follow the published recipe.

    2500 epochs, Adam at 1e-4 with step decay, full-batch. `reduction` picks
    per-subject means ("mean", default) or the as-printed sums ("sum") inside
    the loss terms. A loss term is turned off by setting its weight to zero.
    """

    epochs: int = 2500
    initial_lr: float = 1e-4
    lr_schedule: Literal["step", "constant"] = "step"
    lr_decay_factor: float = 0.2
    lr_decay_every: int = 500
    batch_size: Optional[int] = None
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    reduction: Literal["mean", "sum"] = "mean"
    eval_every: int = 0

    def __post_init__(self):
        nm.coerce_fields(self)
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("initial_lr", "lr_decay_factor"):
            value = getattr(self, name)
            if not value > 0:
                raise nm.HyperparameterError(f"{name} must be positive, got {value}")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch norm needs 2 rows)")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")


@dataclass
class EpochLog:
    epoch: int
    breakdown: LossBreakdown
    lr: float
    latent_variance: list
    train_acc: Optional[float] = None


class TrainingAborted(RuntimeError):
    """A loss term or gradient went non-finite; carries the last good state."""

    def __init__(self, term: str, epoch: int, params: CLCLSAParams, logs):
        super().__init__(
            f"training aborted at epoch {epoch}: term {term!r} is non-finite")
        self.term = term
        self.epoch = epoch
        self.params = params
        self.logs = logs


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step decay: initial_lr * factor^(epoch // every); or constant."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if cfg.lr_schedule == "constant":
        return cfg.initial_lr
    return cfg.initial_lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def _effective_weights(ds: MultiOmicsDataset, weights: LossWeights) -> LossWeights:
    # with complete data there is nothing to translate; the cross-view term is off
    if ds.is_complete() and weights.lambda_co != 0.0:
        return replace(weights, lambda_co=0.0)
    return weights


def train(ds: MultiOmicsDataset, model_config: ModelConfig, train_config: TrainConfig):
    """Train CLCLSA on a dataset; returns (params, [EpochLog]).

    Aborts with TrainingAborted (carrying the pre-step parameters and
    batch-norm statistics, and the logs so far) the first time a loss term or
    gradient is non-finite. Wide fits run on threads (`numerics._branch_pool`)."""
    if ds.n_subjects == 0:
        raise ValueError("training set is empty")
    if ds.n_views != model_config.num_views:
        raise nm.ShapeError(
            f"dataset has {ds.n_views} views, model expects {model_config.num_views}")
    weights = _effective_weights(ds, train_config.weights)
    params = CLCLSAParams.init_random(model_config, train_config.seed)
    tensors = params.tensors()
    # one buffer behind every parameter: Adam updates it a chunk at a time
    _, views = nm.pack([t.data for t in tensors.values()])
    for t, view in zip(tensors.values(), views):
        t.data = view
    adam = AdamState()
    rngs = [RngStream(train_config.seed, f"dropout/view{i}")
            for i in range(model_config.num_views)]
    batch_rng = RngStream(train_config.seed, "batches")
    logs = []
    n = ds.n_subjects
    rows = n if train_config.batch_size is None else min(train_config.batch_size, n)
    with nm._branch_pool(rows * max(model_config.input_dims + model_config.embed_dims)):
        for epoch in range(train_config.epochs):
            lr = lr_at(epoch, train_config)
            if train_config.batch_size is None or train_config.batch_size >= n:
                batches = [slice(None)]  # the whole set, without copying it
            else:
                order = batch_rng.permutation(n)
                b = train_config.batch_size
                batches = [np.sort(order[s:s + b]) for s in range(0, n, b)]
                # a trailing 1-row batch cannot be batch-normalized; merge it
                if len(batches) > 1 and batches[-1].size < 2:
                    batches[-2] = np.sort(np.concatenate(batches[-2:]))
                    batches.pop()
            batch_logs = []
            for batch in batches:
                views_b = [v[batch] for v in ds.views]
                mask_b = ds.mask[batch]
                labels_b = ds.labels[batch]
                try:
                    total, breakdown, cache = md.build_objective(
                        views_b, mask_b, labels_b, params, weights,
                        mode="train", rngs=rngs, reduction=train_config.reduction)
                except md.NumericError as exc:
                    raise TrainingAborted(exc.term, epoch, params, logs) from exc
                grads = gradients(total, tensors)
                # the gradients fill one buffer, so one check covers them all
                if not np.isfinite(nm.flat_view(list(grads.values()))).all():
                    raise TrainingAborted("gradient", epoch, params, logs)
                adam_step(tensors, grads, adam, lr)
                # the step's batch-norm updates land only once its loss and gradients are finite
                params.bn_states.update(cache.bn_states)
                batch_logs.append(astuple(breakdown) + tuple(md.latent_variances(cache)))
            # a mini-batch epoch logs the mean over its batches; one batch logs as is
            logged = batch_logs[0] if len(batch_logs) == 1 else np.mean(batch_logs, axis=0)
            logged = [float(v) for v in logged]
            entry = EpochLog(epoch=epoch, breakdown=LossBreakdown(*logged[:5]), lr=lr,
                             latent_variance=logged[5:])
            if train_config.eval_every and (epoch + 1) % train_config.eval_every == 0:
                _, pred = md.predict(ds.views, ds.mask, params)
                entry.train_acc = float((pred == ds.labels).mean())
            logs.append(entry)
    # the last step's gradients would double the trained model's resident size
    nm.zero_grads(tensors)
    return params, logs


# ---------------------------------------------------------------------------
# Grid search

# `evaluation.MetricsReport` fields a grid can rank by
Metric = Literal["acc", "macro_f1", "weighted_f1"]
SELECTION_METRICS = get_args(Metric)


@dataclass(frozen=True)
class GridSpec:
    """Candidate weight sets and the selection rule for grid search."""

    lambda_al_values: tuple[float, ...] = md.GRID_VALUES
    lambda_co_values: tuple[float, ...] = md.GRID_VALUES
    lambda_cl_values: tuple[float, ...] = md.GRID_VALUES
    metric: Metric = "acc"
    val_fraction: float = 0.2

    def __post_init__(self):
        nm.coerce_fields(self)
        if not (self.lambda_al_values and self.lambda_co_values and self.lambda_cl_values):
            raise ValueError("lambda_al_values, lambda_co_values and lambda_cl_values "
                             "must be nonempty")
        if not 0 < self.val_fraction < 1:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        for name in ("lambda_al", "lambda_co", "lambda_cl"):
            for value in getattr(self, f"{name}_values"):
                LossWeights(**{name: value})  # rejects a negative candidate


@dataclass
class GridTrial:
    index: int
    weights: LossWeights
    metric: Optional[float]
    status: str
    detail: str = ""


@dataclass
class GridSearchResult:
    trials: list
    best: Optional[GridTrial]

    def ranked(self):
        ok = [t for t in self.trials if t.status == "ok"]
        return sorted(ok, key=lambda t: (-t.metric, t.weights.lambda_cl,
                                         t.weights.lambda_co, t.weights.lambda_al))


def grid_search(train_ds: MultiOmicsDataset, val_ds: Optional[MultiOmicsDataset],
                model_config: ModelConfig, grid: GridSpec,
                base: TrainConfig) -> GridSearchResult:
    """Train one model per weight triple and rank by the validation metric.

    With complete training data the cross-view candidates collapse to {0}.
    Ties break toward the smaller (lambda_cl, lambda_co, lambda_al) triple.
    Aborted trials are recorded as failed and excluded from the ranking.
    """
    from . import evaluation as ev  # evaluation imports this module

    if val_ds is None:
        train_ds, val_ds = split(
            train_ds, SplitSpec(train_fraction=1.0 - grid.val_fraction,
                                seed=nm.derive_seed(base.seed, "grid-val")))
    co_values = grid.lambda_co_values
    if train_ds.is_complete():
        co_values = (0.0,)
    trials = []
    for index, (al, co, cl) in enumerate(
            itertools.product(grid.lambda_al_values, co_values, grid.lambda_cl_values)):
        weights = LossWeights(lambda_al=al, lambda_co=co, lambda_cl=cl,
                              alpha=base.weights.alpha)
        cfg = replace(base, weights=weights,
                      seed=nm.derive_seed(base.seed, "grid-trial", index))
        report, detail = ev.fit_and_score(train_ds, val_ds, model_config, cfg)
        metric = None if report is None else getattr(report, grid.metric)
        trials.append(GridTrial(index, weights, metric, "failed" if report is None else "ok",
                                detail))
    result = GridSearchResult(trials=trials, best=None)
    ranked = result.ranked()
    result.best = ranked[0] if ranked else None
    return result

