"""Classification metrics and the experiment runners.

Metrics are pure functions with documented degenerate-case conventions
(zero-denominator F1 is 0, AUC ties earn half credit). The runners reproduce
the experiment shapes: missing-rate sweeps, partial-view runs, hyperparameter
surfaces, and component ablations. Each checks every value it was given before
the first training and returns a SweepResult: one long-format row per trial,
so aggregates can always be recomputed, and one point per (dataset, variant,
eta) group.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Optional

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
from .numerics import derive_seed

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
    """counts[i, j] = subjects with true class i predicted as class j."""
    pred, true = _as_labels(pred), _as_labels(true)
    for name, labels in (("predicted", pred), ("true", true)):
        outside = labels[(labels < 0) | (labels >= class_count)]
        if outside.size:
            raise ValueError(f"{name} label {outside[0]} is outside [0, {class_count})")
    counts = np.zeros((class_count, class_count), dtype=np.intp)
    np.add.at(counts, (true, pred), 1)
    return counts


def f1_binary(pred, true, positive_class: int = 1) -> float:
    """2PR/(P+R); 0 by convention when the denominator degenerates."""
    pred, true = _as_labels(pred), _as_labels(true)
    if pred.shape != true.shape:
        raise ValueError("label vectors must share a length")
    values = np.union1d(pred, true)
    if values.size and not np.isin(values, (0, 1)).all():
        raise ValueError(f"f1_binary expects 0/1 labels, saw {values.tolist()}")
    tp = int(np.sum((pred == positive_class) & (true == positive_class)))
    fp = int(np.sum((pred == positive_class) & (true != positive_class)))
    fn = int(np.sum((pred != positive_class) & (true == positive_class)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2.0 * precision * recall / (precision + recall))


def _average_ranks(scores):
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
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
    classes a prediction happens to contain.
    """
    if mode not in ("macro", "weighted"):
        raise ValueError("mode must be 'macro' or 'weighted'")
    pred, true = _as_labels(pred), _as_labels(true)
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError("label vectors must share a nonzero length")
    f1s = np.zeros(class_count)
    supports = np.zeros(class_count)
    for c in range(class_count):
        tp = int(np.sum((pred == c) & (true == c)))
        fp = int(np.sum((pred == c) & (true != c)))
        fn = int(np.sum((pred != c) & (true == c)))
        supports[c] = tp + fn
        if tp > 0:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            f1s[c] = 2.0 * precision * recall / (precision + recall)
    if mode == "macro":
        return float(f1s.mean())
    if supports.sum() == 0:
        return 0.0
    return float((f1s * supports).sum() / supports.sum())


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
    binary = class_count == 2
    f1 = f1_binary(pred, true) if binary else None
    auc = None
    if binary and len(np.unique(true)) == 2:
        auc = auc_binary(yhat[:, 1], true)
    return MetricsReport(
        acc=accuracy(pred, true),
        weighted_f1=multiclass_f1(pred, true, class_count, "weighted"),
        macro_f1=multiclass_f1(pred, true, class_count, "macro"),
        f1=f1,
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
                  model_config: ModelConfig, cfg: tr.TrainConfig, metadata=None) -> tuple:
    """Train on one side and score on the other: (MetricsReport, ""), or
    (None, the reason) when training aborts."""
    try:
        params, _ = tr.train(train_ds, model_config, cfg)
    except tr.TrainingAborted as exc:
        return None, str(exc)
    yhat, _ = md.predict(test_ds.views, test_ds.mask, params)
    return compute_report(yhat, test_ds.labels, test_ds.class_count, metadata=metadata), ""


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
    report, detail = fit_and_score(train_ds, test_ds, model_config, cfg,
                                   metadata={"dataset": dataset_name, "eta": eta,
                                             "seed": seed, "variant": variant})
    return TrialRow(dataset_name, variant, eta, seed, cfg.weights, report,
                    status="failed" if report is None else "ok", detail=detail)


# ---------------------------------------------------------------------------
# Runners: each builds and checks its whole trial list, then runs `_run_trials`


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
    """The etas, sorted and each a valid missing rate, given nonempty seeds."""
    etas = list(etas)
    if sorted(etas) != etas:
        raise ValueError("etas must be sorted ascending")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    for eta in etas:
        MissingnessSpec(eta=eta, seed=0)
    return etas


def _run_trials(ds: MultiOmicsDataset, model_config: ModelConfig,
                train_config: tr.TrainConfig, trials, mask_test: bool = True,
                dataset_name: str = "dataset") -> SweepResult:
    """Run trials (variant, eta, seed, weights, views) in order; `views`, when
    not None, restricts the dataset and the model to that view subset."""
    rows = []
    for variant, eta, seed, weights, views in trials:
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


def missing_rate_sweep(ds: MultiOmicsDataset, model_config: ModelConfig,
                       train_config: tr.TrainConfig, etas, seeds,
                       mask_test: bool = True, dataset_name: str = "dataset",
                       variant: str = "clclsa") -> SweepResult:
    """Train/evaluate at each missing rate, aggregating mean/std over seeds."""
    trials = [(variant, eta, seed, train_config.weights, None)
              for eta in _checked(etas, seeds) for seed in seeds]
    return _run_trials(ds, model_config, train_config, trials, mask_test, dataset_name)


def partial_omics_run(ds: MultiOmicsDataset, view_subsets, model_config: ModelConfig,
                      train_config: tr.TrainConfig, etas, seeds,
                      dataset_name: str = "dataset", mask_test: bool = True) -> SweepResult:
    """Missing-rate sweep per view subset, named by its views joined by "+";
    models shrink to the subset's M."""
    etas = _checked(etas, seeds)
    trials = []
    for subset in map(tuple, view_subsets):
        if len(subset) < 2:
            raise ValueError(f"view subset {subset} needs at least two views")
        name = "+".join(ds.view_names[i] for i in subset)
        trials += [(name, eta, seed, train_config.weights, subset)
                   for eta in etas for seed in seeds]
    return _run_trials(ds, model_config, train_config, trials, mask_test, dataset_name)


# the loss weights a surface fixes one of and varies two of
SURFACE_WEIGHTS = ("lambda_al", "lambda_co", "lambda_cl")


def hyperparam_surface(ds: MultiOmicsDataset, model_config: ModelConfig,
                       train_config: tr.TrainConfig, fixed: dict, grids: dict,
                       eta: float, seeds, dataset_name: str = "dataset") -> SweepResult:
    """Train per grid cell at a fixed missing rate; each cell is one variant.

    Exactly one weight is fixed and the other two vary, mirroring the
    three-panel analysis. All cells share each seed so differences are
    attributable to the weights alone.
    """
    if set(fixed) | set(grids) != set(SURFACE_WEIGHTS) or len(fixed) != 1 or len(grids) != 2:
        raise ValueError("need exactly one fixed weight and two varying grids")
    _checked([eta], seeds)
    (fixed_name, fixed_value), = fixed.items()
    (name_a, values_a), (name_b, values_b) = sorted(grids.items())
    trials = []
    for va in values_a:
        for vb in values_b:
            weights = LossWeights(alpha=train_config.weights.alpha,
                                  **{fixed_name: fixed_value, name_a: va, name_b: vb})
            trials += [(f"{name_a}={va},{name_b}={vb}", eta, seed, weights, None)
                       for seed in seeds]
    return _run_trials(ds, model_config, train_config, trials, dataset_name=dataset_name)


ABLATION_VARIANTS = ("plain", "ctst", "aux", "ctst+aux")


@dataclass(frozen=True)
class AblationSpec:
    """Component toggles for the ablation: which variants, etas, seeds.

    Variants map onto weight zeroing: "ctst" keeps only the contrastive term,
    "aux" only the auxiliary term, "ctst+aux" both, "plain" neither. The
    cross-view completion weight stays fixed (0.1) throughout.
    """

    variants: tuple = ABLATION_VARIANTS
    etas: tuple = (0.2, 0.4)
    seeds: tuple = (0, 1, 2, 3, 4)
    lambda_co: float = 0.1

    def __post_init__(self):
        unknown = set(self.variants) - set(ABLATION_VARIANTS)
        if unknown:
            raise ValueError(f"unknown ablation variants: {sorted(unknown)}")


def ablation_weights(variant: str, base: LossWeights, lambda_co: float) -> LossWeights:
    use_cl = "ctst" in variant
    use_al = "aux" in variant
    return LossWeights(
        lambda_al=base.lambda_al if use_al else 0.0,
        lambda_co=lambda_co,
        lambda_cl=base.lambda_cl if use_cl else 0.0,
        alpha=base.alpha,
    )


def ablation_run(ds: MultiOmicsDataset, spec: AblationSpec, model_config: ModelConfig,
                 train_config: tr.TrainConfig, dataset_name: str = "dataset") -> SweepResult:
    """Run the component-toggle variants across missing rates."""
    etas = _checked(spec.etas, spec.seeds)
    trials = []
    for variant in spec.variants:
        weights = ablation_weights(variant, train_config.weights, spec.lambda_co)
        trials += [(variant, eta, seed, weights, None) for eta in etas for seed in spec.seeds]
    return _run_trials(ds, model_config, train_config, trials, dataset_name=dataset_name)


# ---------------------------------------------------------------------------
# Report emission


def emit_report(rows, path, fmt: str = "csv"):
    """Write long-format trial rows (one per trial) plus a mean and a std row
    per (dataset, variant, eta) group that has an ok trial.

    CSV columns are fixed; JSON mirrors the same records. Floats are written
    via repr so a parse reproduces them exactly.
    """
    records = [row.to_record() for row in rows]
    aggregated = [p for p in _points(rows) if p.reports]
    for p in sorted(aggregated, key=lambda p: (p.dataset, p.variant, p.eta)):
        for status, stats in (("aggregate-mean", p.mean), ("aggregate-std", p.std)):
            records.append({**dict.fromkeys(REPORT_COLUMNS), "dataset": p.dataset,
                            "variant": p.variant, "eta": p.eta, "status": status,
                            **{k: stats.get(k) for k in METRIC_COLUMNS}})
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_COLUMNS)
            for rec in records:
                writer.writerow([
                    "" if rec[c] is None else
                    (repr(float(rec[c])) if isinstance(rec[c], float) else rec[c])
                    for c in REPORT_COLUMNS
                ])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump({"columns": list(REPORT_COLUMNS), "rows": records}, fh, indent=2)
    else:
        raise ValueError("format must be 'csv' or 'json'")
    return path


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
