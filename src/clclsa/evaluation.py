"""Classification metrics and the experiment runners.

Metrics are pure functions with documented degenerate-case conventions
(zero-denominator F1 is 0, AUC ties earn half credit). The experiment shapes
are missing-rate sweeps, partial-view runs, hyperparameter surfaces, and
component ablations. A builder per shape checks every value it was given and
returns its trial list; `run_trials` runs any such list and returns a
SweepResult: one long-format row per trial, so aggregates can always be
recomputed, and one point per (dataset, variant, eta) group.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Literal, Optional, get_args

import numpy as np

from . import model as md
from . import train as tr
from .data import (
    MissingnessSpec,
    MultiOmicsDataset,
    SplitSpec,
    apply_missingness,
    restrict_views,
    split,
)
from .model import LossWeights, ModelConfig
from .numerics import coerce_fields, derive_seed

METRIC_COLUMNS = ("acc", "f1", "auc", "weighted_f1", "macro_f1")
REPORT_COLUMNS = ("dataset", "variant", "eta", "seed", "lambda_al", "lambda_co",
                  "lambda_cl", "alpha", *METRIC_COLUMNS, "status")


# ---------------------------------------------------------------------------
# Metrics


def _as_labels(x):
    return np.asarray(x).ravel()


def accuracy(pred, true) -> float:
    pred, true = _as_labels(pred), _as_labels(true)
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError(f"label vectors must share a nonzero length, got {pred.shape} and {true.shape}")
    return float((pred == true).mean())


def confusion_matrix(pred, true, class_count: int) -> np.ndarray:
    """counts[i, j] = subjects with true class i predicted as class j; labels
    may be of any numeric dtype but must be whole numbers in [0, class_count)."""
    pred, true = _as_labels(pred), _as_labels(true)
    for name, labels in (("predicted", pred), ("true", true)):
        outside = labels[(labels < 0) | (labels >= class_count) | (labels % 1 != 0)]
        if outside.size:
            raise ValueError(f"{name} label {outside[0]} is outside [0, {class_count})")
    counts = np.zeros((class_count, class_count), dtype=np.intp)
    np.add.at(counts, (true.astype(np.intp), pred.astype(np.intp)), 1)
    return counts


def _class_f1(confusion) -> tuple:
    """(per-class, macro, support-weighted) one-vs-rest F1 = 2PR/(P+R) of a
    confusion matrix; 0 by convention for a class with no true positive, and
    for the weighted mean of an empty matrix."""
    tp = np.diag(confusion)
    hit = tp > 0
    support = confusion.sum(axis=1)
    precision = tp[hit] / confusion.sum(axis=0)[hit]
    recall = tp[hit] / support[hit]
    f1 = np.zeros(tp.size)
    f1[hit] = 2.0 * precision * recall / (precision + recall)
    return f1, float(f1.mean()), float((f1 * support).sum() / max(support.sum(), 1))


def f1_binary(pred, true, positive_class: int = 1) -> float:
    """2PR/(P+R) of `positive_class` (0 or 1) over 0/1 labels; 0 by convention
    when the denominator degenerates."""
    if positive_class not in (0, 1):
        raise ValueError(f"positive_class must be 0 or 1, got {positive_class!r}")
    pred, true = _as_labels(pred), _as_labels(true)
    if pred.shape != true.shape:
        raise ValueError("label vectors must share a length")
    return float(_class_f1(confusion_matrix(pred, true, 2))[0][positive_class])


def _average_ranks(scores):
    """1-based ranks; each run of equal scores, sorted positions first..last,
    shares the mean of its ranks, and a NaN, equal to nothing, ranks alone."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    first = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    last = np.append(first[1:], scores.size) - 1
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def auc_binary(scores, true) -> float:
    """P(random positive outscores a random negative), ties counted 0.5.

    Computed in the rank-based (Mann-Whitney) form.
    """
    scores, true = np.asarray(scores, dtype=np.float64).ravel(), _as_labels(true)
    if scores.shape != true.shape:
        raise ValueError("scores and labels must share a length")
    n_pos = int(np.sum(true == 1))
    n_neg = int(np.sum(true == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC is undefined unless both classes are present")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[true == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def multiclass_f1(pred, true, class_count: int, mode: str = "macro") -> float:
    """Per-class one-vs-rest F1 over classes 0..class_count-1, averaged
    unweighted (macro) or by support.

    Classes absent from both vectors count as F1 = 0 in macro mode and carry
    zero weight in weighted mode, so the score does not depend on which
    classes a prediction happens to contain. A label outside
    [0, class_count) is a ValueError.
    """
    if mode not in ("macro", "weighted"):
        raise ValueError("mode must be 'macro' or 'weighted'")
    pred, true = _as_labels(pred), _as_labels(true)
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError("label vectors must share a nonzero length")
    _, macro, weighted = _class_f1(confusion_matrix(pred, true, class_count))
    return macro if mode == "macro" else weighted


@dataclass
class MetricsReport:
    """Metric bundle for one evaluation; binary-only fields are None for C > 2."""

    acc: float
    weighted_f1: float
    macro_f1: float
    f1: Optional[float]
    auc: Optional[float]
    confusion: list
    n_subjects: int
    metadata: dict = field(default_factory=dict)


def compute_report(yhat, true, class_count: int, metadata=None) -> MetricsReport:
    """Build a MetricsReport from class probabilities and true labels."""
    yhat = np.asarray(yhat, dtype=np.float64)
    true = _as_labels(true)
    pred = np.argmax(yhat, axis=1)
    conf = confusion_matrix(pred, true, class_count)
    f1s, macro_f1, weighted_f1 = _class_f1(conf)
    binary = class_count == 2
    auc = None
    if binary and len(np.unique(true)) == 2:
        auc = auc_binary(yhat[:, 1], true)
    return MetricsReport(
        acc=accuracy(pred, true),
        weighted_f1=weighted_f1,
        macro_f1=macro_f1,
        f1=float(f1s[1]) if binary else None,
        auc=auc,
        confusion=conf.tolist(),
        n_subjects=int(true.size),
        metadata=dict(metadata or {}),
    )


# ---------------------------------------------------------------------------
# Trial protocol shared by the runners


@dataclass
class TrialRow:
    """One long-format result row (the CSV/JSON schema)."""

    dataset: str
    variant: str
    eta: float
    seed: int
    weights: LossWeights
    report: Optional[MetricsReport]
    status: str = "ok"
    detail: str = ""

    def to_record(self) -> dict:
        metrics = {} if self.report is None else {k: getattr(self.report, k)
                                                  for k in METRIC_COLUMNS}
        return {
            **dict.fromkeys(REPORT_COLUMNS),
            "dataset": self.dataset, "variant": self.variant, "eta": self.eta,
            "seed": self.seed, "lambda_al": self.weights.lambda_al,
            "lambda_co": self.weights.lambda_co, "lambda_cl": self.weights.lambda_cl,
            "alpha": self.weights.alpha, "status": self.status, **metrics,
        }


def fit_and_score(train_ds: MultiOmicsDataset, test_ds: MultiOmicsDataset,
                  model_config: ModelConfig, cfg: tr.TrainConfig) -> tuple:
    """Train on one side and score on the other: (MetricsReport, ""), or
    (None, the reason) when training aborts."""
    try:
        params, _ = tr.train(train_ds, model_config, cfg)
    except tr.TrainingAborted as exc:
        return None, str(exc)
    yhat, _ = md.predict(test_ds.views, test_ds.mask, params)
    return compute_report(yhat, test_ds.labels, test_ds.class_count), ""


def run_trial(ds: MultiOmicsDataset, model_config: ModelConfig,
              train_config: tr.TrainConfig, eta: float, seed: int,
              mask_test: bool = True, dataset_name: str = "dataset",
              variant: str = "clclsa") -> TrialRow:
    """Split, mask at eta, train, and evaluate one configuration.

    The train and test sides are masked with independent seeded streams (the
    incomplete-test scenario is the default; pass mask_test=False to evaluate
    on complete test data).
    """
    train_ds, test_ds = split(ds, SplitSpec(seed=derive_seed(seed, "split")))
    if eta > 0:
        train_ds = apply_missingness(
            train_ds, MissingnessSpec(eta=eta, seed=derive_seed(seed, "mask-train")))
        if mask_test:
            test_ds = apply_missingness(
                test_ds, MissingnessSpec(eta=eta, seed=derive_seed(seed, "mask-test")))
    cfg = replace(train_config, seed=seed)
    report, detail = fit_and_score(train_ds, test_ds, model_config, cfg)
    return TrialRow(dataset_name, variant, eta, seed, cfg.weights, report,
                    status="failed" if report is None else "ok", detail=detail)


# ---------------------------------------------------------------------------
# Runners: a builder checks and returns a whole trial list, `run_trials` runs it


@dataclass
class SweepPoint:
    """One (dataset, variant, eta) group: mean and std over its ok trials."""

    dataset: str
    variant: str
    eta: float
    reports: list
    mean: dict
    std: dict
    failures: int = 0


@dataclass
class SweepResult:
    points: list
    rows: list


def _points(rows) -> list:
    """Group rows by (dataset, variant, eta), in first-row order."""
    groups = {}
    for row in rows:
        groups.setdefault((row.dataset, row.variant, row.eta), []).append(row)
    points = []
    for (dataset, variant, eta), members in groups.items():
        reports = [m.report for m in members if m.status == "ok"]
        point = SweepPoint(dataset, variant, eta, reports, {}, {}, len(members) - len(reports))
        for key in METRIC_COLUMNS:
            values = [getattr(r, key) for r in reports if getattr(r, key) is not None]
            if values:
                point.mean[key] = float(np.mean(values))
                point.std[key] = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        points.append(point)
    return points


def _checked(etas, seeds) -> list:
    """The etas, nonempty, sorted and each a valid missing rate, given nonempty seeds."""
    etas = list(etas)
    if not etas:
        raise ValueError("etas must be nonempty")
    if sorted(etas) != etas:
        raise ValueError("etas must be sorted ascending")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    for eta in etas:
        MissingnessSpec(eta=eta, seed=0)
    return etas


def _distinct(trials) -> list:
    """`trials`, given no (variant, eta, seed) is listed twice: each would
    train the same model again and count twice in its point."""
    keys = [trial[:3] for trial in trials]
    for i, (variant, eta, seed) in enumerate(keys):
        if (variant, eta, seed) in keys[:i]:
            raise ValueError(f"trial {variant!r} at eta {eta}, seed {seed} is listed twice")
    return trials


def run_trials(ds: MultiOmicsDataset, model_config: ModelConfig,
               train_config: tr.TrainConfig, trials, mask_test: bool = True,
               dataset_name: str = "dataset") -> SweepResult:
    """Run trials (variant, eta, seed, weights, views) in order; `views`, when
    not None, restricts the dataset and the model to that view subset. A
    (variant, eta, seed) listed twice is rejected before any training."""
    rows = []
    for variant, eta, seed, weights, views in _distinct(trials):
        trial_ds, trial_config = ds, model_config
        if views is not None:
            trial_ds = restrict_views(ds, views)
            trial_config = replace(model_config, num_views=len(views),
                                   input_dims=[model_config.input_dims[i] for i in views],
                                   embed_dims=[model_config.embed_dims[i] for i in views])
        rows.append(run_trial(trial_ds, trial_config, replace(train_config, weights=weights),
                              eta, seed, mask_test=mask_test, dataset_name=dataset_name,
                              variant=variant))
    return SweepResult(points=_points(rows), rows=rows)


def sweep_trials(weights: LossWeights, etas, seeds, variant: str = "clclsa") -> list:
    """A missing-rate sweep: each eta with each seed, at one weight set."""
    return _distinct([(variant, eta, seed, weights, None)
                      for eta in _checked(etas, seeds) for seed in seeds])


def partial_omics_trials(ds: MultiOmicsDataset, view_subsets, weights: LossWeights,
                         etas, seeds) -> list:
    """A missing-rate sweep per view subset of `ds`, named by its views joined
    by "+"; `run_trials` shrinks each model to its subset's M."""
    etas = _checked(etas, seeds)
    trials = []
    for subset in map(tuple, view_subsets):
        if len(subset) < 2:
            raise ValueError(f"view subset {subset} needs at least two views")
        for i in subset:
            if not 0 <= i < ds.n_views:
                raise ValueError(f"view subset {subset} names view {i}, outside "
                                 f"[0, {ds.n_views})")
            if subset.count(i) > 1:
                raise ValueError(f"view subset {subset} names view {i} twice")
        name = "+".join(ds.view_names[i] for i in subset)
        trials += [(name, eta, seed, weights, subset) for eta in etas for seed in seeds]
    if not trials:
        raise ValueError("view_subsets must be nonempty")
    return _distinct(trials)


# the loss weights a surface fixes one of and varies two of
SURFACE_WEIGHTS = ("lambda_al", "lambda_co", "lambda_cl")


def surface_trials(weights: LossWeights, fix, vary, eta: float, seeds) -> list:
    """One variant per cell of a weight grid at a fixed missing rate.

    `fix` is one (name, value) pair and `vary` two (name, values) pairs that
    together name each of SURFACE_WEIGHTS once, mirroring the three-panel
    analysis; `weights` gives alpha. All cells share each seed so differences
    are attributable to the weights alone.
    """
    names = [name for name, _ in [fix, *vary]]
    if sorted(names) != sorted(SURFACE_WEIGHTS):
        raise ValueError(f"a surface needs one fixed and two varying weights naming each of "
                         f"{', '.join(SURFACE_WEIGHTS)} once, got {', '.join(names)}")
    for name, values in [(fix[0], [fix[1]]), *vary]:
        for i, value in enumerate(values):  # each one, even beside an empty grid
            LossWeights(**{name: value})
            if value in values[:i]:  # 0.0 and -0.0 name two cells of one weight set
                raise ValueError(f"{name} value {value} is listed twice")
    for name, values in vary:
        if not values:
            raise ValueError(f"the {name} grid must be nonempty")
    _checked([eta], seeds)
    (name_a, values_a), (name_b, values_b) = sorted(vary)
    trials = []
    for va in values_a:
        for vb in values_b:
            cell = LossWeights(alpha=weights.alpha, **{fix[0]: fix[1], name_a: va, name_b: vb})
            trials += [(f"{name_a}={va},{name_b}={vb}", eta, seed, cell, None)
                       for seed in seeds]
    return _distinct(trials)


AblationVariant = Literal["plain", "ctst", "aux", "ctst+aux"]
ABLATION_VARIANTS = get_args(AblationVariant)


@dataclass(frozen=True)
class AblationSpec:
    """Component toggles for the ablation: which variants, etas, seeds.

    Variants map onto weight zeroing: "ctst" keeps only the contrastive term,
    "aux" only the auxiliary term, "ctst+aux" both, "plain" neither. The
    cross-view completion weight stays fixed (0.1) throughout.
    """

    variants: tuple[AblationVariant, ...] = ABLATION_VARIANTS
    etas: tuple[float, ...] = (0.2, 0.4)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    lambda_co: float = 0.1

    def __post_init__(self):
        coerce_fields(self)


def ablation_weights(variant: str, base: LossWeights, lambda_co: float) -> LossWeights:
    use_cl = "ctst" in variant
    use_al = "aux" in variant
    return LossWeights(
        lambda_al=base.lambda_al if use_al else 0.0,
        lambda_co=lambda_co,
        lambda_cl=base.lambda_cl if use_cl else 0.0,
        alpha=base.alpha,
    )


def ablation_trials(spec: AblationSpec, weights: LossWeights) -> list:
    """The component-toggle variants of `weights` across missing rates."""
    etas = _checked(spec.etas, spec.seeds)
    trials = []
    for variant in spec.variants:
        toggled = ablation_weights(variant, weights, spec.lambda_co)
        trials += [(variant, eta, seed, toggled, None) for eta in etas for seed in spec.seeds]
    return _distinct(trials)


# ---------------------------------------------------------------------------
# Report emission


def emit_report(rows, path, fmt: str = "csv"):
    """Write long-format trial rows (one per trial) plus a mean and a std row
    per (dataset, variant, eta) group that has an ok trial.

    CSV columns are fixed (cells as `write_table` writes them); JSON mirrors
    the same records.
    """
    records = [row.to_record() for row in rows]
    aggregated = [p for p in _points(rows) if p.reports]
    for p in sorted(aggregated, key=lambda p: (p.dataset, p.variant, p.eta)):
        for status, stats in (("aggregate-mean", p.mean), ("aggregate-std", p.std)):
            records.append({**dict.fromkeys(REPORT_COLUMNS), "dataset": p.dataset,
                            "variant": p.variant, "eta": p.eta, "status": status,
                            **{k: stats.get(k) for k in METRIC_COLUMNS}})
    if fmt == "csv":
        write_table(path, REPORT_COLUMNS, ([rec[c] for c in REPORT_COLUMNS] for rec in records))
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump({"columns": list(REPORT_COLUMNS), "rows": records}, fh, indent=2)
    else:
        raise ValueError("format must be 'csv' or 'json'")
    return path


def _cell(value):
    """A CSV cell: "" for None, a list's cells joined by ";", a float as its
    exact `repr(float(v))` (numpy 2's repr is "np.float64(...)"), else `v`."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return repr(float(value)) if isinstance(value, float) else value


def write_table(path, columns, rows):
    """Write a CSV table: the column names, then each row's values as `_cell`s."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)


def parse_report_csv(path) -> list:
    """Read an emit_report CSV back into dicts (floats where they parse)."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            parsed = {}
            for key, value in row.items():
                if value == "" or value is None:
                    parsed[key] = None
                else:
                    try:
                        parsed[key] = float(value)
                    except ValueError:
                        parsed[key] = value
            out.append(parsed)
    return out
