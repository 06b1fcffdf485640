"""The benchmark's workloads: seeded inputs, one timed round, and its checks.

A round is the user-visible pipeline: load the dataset directory that set-up
wrote, fit (after a weight grid search on `desk_grid`), save and reload the
checkpoint, predict the test side whole and one subject at a time, and score
the predictions. Every round of a run repeats the same operations on the same
inputs, so rounds are interchangeable samples. Operations that take a moment
(checkpoint save and load, dataset load) are repeated within a round, and
dataset loads are spread over it, so each metric is a median of many samples
taken at different times.
"""

from __future__ import annotations

import contextlib
import gc
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
from clclsa import data as dt
from clclsa import evaluation as ev
from clclsa import model as md
from clclsa import train as tr

ALPHA = 9.0
ALL_TERMS = md.LossWeights(lambda_al=0.01, lambda_co=0.1, lambda_cl=0.01, alpha=ALPHA)
DESK_GRID = tr.GridSpec(lambda_al_values=(0.0, 0.01), lambda_co_values=(0.0, 0.1),
                        lambda_cl_values=(0.0, 0.01))
DESK_ACC_MARGIN = 0.15   # desk_grid test accuracy must reach 1/3 + this
BATCH_REPEATS = 2        # whole-side predictions per serving block


@dataclass(frozen=True)
class Workload:
    name: str
    n_subjects: int
    view_dims: tuple
    class_count: int
    class_sep: float
    model: md.ModelConfig
    eta: float            # 0: complete data, written whole and scaled at load
    epochs: int
    lr: float
    saves: int            # checkpoint saves per round
    loads: int            # checkpoint loads per round
    reloads: int          # dataset loads after the serving blocks, spread over them
    grid_epochs: int = 0  # > 0: grid search over DESK_GRID before the fit

    def synth_spec(self, seed):
        return dt.SyntheticSpec(n_subjects=self.n_subjects, n_views=3,
                                view_dims=self.view_dims, class_count=self.class_count,
                                shared_dim=36, snr=5.0, class_sep=self.class_sep,
                                seed=seed)

    @property
    def complete(self):
        return self.eta == 0.0


WORKLOADS = {w.name: w for w in (
    Workload("desk_grid", 400, (20, 20, 20), 3, 0.7,
             md.ModelConfig(3, (20, 20, 20), (16, 16, 16), 3, ae_hidden=(16, 8),
                            dropout_p=0.1),
             eta=0.4, epochs=160, lr=2e-3, saves=8, loads=8, reloads=9,
             grid_epochs=40),
    Workload("rosmap_incomplete", 500, (200, 200, 200), 2, 1.5, md.preset("rosmap"),
             eta=0.4, epochs=5, lr=1e-3, saves=2, loads=2, reloads=3),
    Workload("lgg_complete", 500, (2000, 2000, 548), 2, 1.5, md.preset("lgg"),
             eta=0.0, epochs=4, lr=5e-4, saves=1, loads=2, reloads=1),
)}


def seeds(seed):
    """Per-purpose seeds derived from the workload seed."""
    return {"synth": seed, "split": seed + 1, "mask_train": seed + 2,
            "mask_test": seed + 3, "train": seed + 4}


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Inputs:
    directory: str
    written: list          # datasets as written: [full] or [train, test]


def setup(w: Workload, seed: int, directory: str) -> Inputs:
    """Generate, scale, split, mask and write the workload's dataset."""
    s = seeds(seed)
    raw = dt.synth_generate(w.synth_spec(s["synth"]))
    if w.complete:
        # written unscaled; the round loads it with scale=True and splits
        dt.write_dataset(raw, os.path.join(directory, "full"))
        return Inputs(directory, [raw])
    train, test = dt.split(dt.minmax_scaled(raw), dt.SplitSpec(0.7, seed=s["split"]))
    train = dt.apply_missingness(train, dt.MissingnessSpec(w.eta, s["mask_train"]))
    test = dt.apply_missingness(test, dt.MissingnessSpec(w.eta, s["mask_test"]))
    dt.write_dataset(train, os.path.join(directory, "train"))
    dt.write_dataset(test, os.path.join(directory, "test"))
    return Inputs(directory, [train, test])


# ---------------------------------------------------------------------------
# Timing


class Sections:
    """Wall time per named section of a round; a span per section if traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = {}

    @contextlib.contextmanager
    def __call__(self, name):
        span = self.tracer.span("bench." + name) if self.tracer else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.seconds.setdefault(name, []).append(time.perf_counter() - t0)

    def total(self):
        return sum(sum(v) for v in self.seconds.values())


class FitTimer:
    """Times every `train.train` call, including those grid_search makes:
    `calls` holds (seconds, epochs) per call, in call order."""

    def __init__(self):
        self.calls = []
        self._original = None

    def __enter__(self):
        self._original = original = tr.train

        def timed_train(*args, **kwargs):
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            self.calls.append((time.perf_counter() - t0, len(out[1])))
            return out

        tr.train = timed_train
        return self

    def __exit__(self, *exc):
        tr.train = self._original
        return False


# ---------------------------------------------------------------------------
# One round


@dataclass
class RoundResult:
    sections: dict
    n1_pass: int          # single-subject predictions per serving block
    total_s: float
    fit_calls: list       # (seconds, epochs) per `train.train` call
    checkpoint_bytes: int
    attempted: int
    failed: int
    params: md.CLCLSAParams
    probs: np.ndarray
    checks: list


def _load(w, seed, inputs):
    """Read the dataset directory set-up wrote: ([loaded], train side, test side)."""
    if w.complete:
        full = dt.load_dataset_dir(os.path.join(inputs.directory, "full"), scale=True)
        train, test = dt.split(full, dt.SplitSpec(0.7, seed=seeds(seed)["split"]))
        return [full], train, test
    train = dt.load_dataset_dir(os.path.join(inputs.directory, "train"))
    test = dt.load_dataset_dir(os.path.join(inputs.directory, "test"))
    return [train, test], train, test


def warm_up(w: Workload, seed: int, inputs: Inputs) -> None:
    """Untimed: one load, a one-epoch fit and one prediction, so the first
    timed round does not pay for allocator growth and first calls."""
    _, train, test = _load(w, seed, inputs)
    cfg = tr.TrainConfig(epochs=1, initial_lr=w.lr, lr_schedule="constant",
                         seed=seeds(seed)["train"], weights=ALL_TERMS)
    params, _ = tr.train(train, w.model, cfg)
    md.predict(test.views, test.mask, params)


def run_round(w: Workload, seed: int, inputs: Inputs, tmp: str, tracer=None) -> RoundResult:
    s = seeds(seed)
    sec = Sections(tracer)
    found = []
    attempted = failed = 0

    def load():
        """One timed dataset load, checked at once; returns the train and test sides."""
        nonlocal attempted
        with sec("dataset_load"):
            loaded, train, test = _load(w, seed, inputs)
        attempted += len(loaded)
        found.extend(_check_load(w, inputs, loaded))
        return train, test

    gc.collect()
    with FitTimer() as fit:
        train, test = load()
        weights = ALL_TERMS
        base = tr.TrainConfig(epochs=w.epochs, initial_lr=w.lr, lr_schedule="constant",
                              seed=s["train"], weights=ALL_TERMS)
        grid = None
        if w.grid_epochs:
            with sec("grid"):
                grid = tr.grid_search(train, None, w.model, DESK_GRID,
                                      replace(base, epochs=w.grid_epochs))
            attempted += len(grid.trials)
            failed += sum(t.status != "ok" for t in grid.trials)
            weights = grid.best.weights
        cfg = replace(base, weights=weights)
        with sec("fit"):
            params, logs = tr.train(train, w.model, cfg)
        attempted += 1

    singles = [([v[j:j + 1] for v in test.views], test.mask[j:j + 1])
               for j in range(test.n_subjects)]
    served = []

    def serve(model):
        """One of the three serving blocks: whole-side predictions, each
        subject alone, then this block's share of the `w.reloads` dataset
        loads (the last blocks take any remainder)."""
        nonlocal attempted
        block = len(served)
        for _ in range(BATCH_REPEATS):
            with sec("predict_batch"):
                probs, _ = md.predict(test.views, test.mask, model)
        single = []
        for views_j, mask_j in singles:
            with sec("predict_n1"):
                single.append(md.predict(views_j, mask_j, model)[0][0])
        served.append((probs, np.array(single)))
        attempted += BATCH_REPEATS + len(singles)
        for _ in range(w.reloads * (block + 1) // 3 - w.reloads * block // 3):
            load()

    # serving blocks before, between and after the checkpoint saves and loads,
    # so latencies and loads are sampled at three moments of the round
    path = os.path.join(tmp, "checkpoint.json")
    serve(params)
    for _ in range(w.saves):
        with sec("checkpoint_save"):
            md.save_checkpoint(path, params)
    checkpoint_bytes = os.path.getsize(path)
    serve(params)
    for i in range(w.loads):
        with sec("checkpoint_load"):
            reloaded = md.load_checkpoint(path)
        if i < w.loads - 1:  # the last is checked with its predictions
            found.append(checks.params_bitwise_equal("checkpoint_round_trip", params,
                                                     reloaded))
    os.remove(path)
    serve(reloaded)
    probs = served[-1][0]
    with sec("report"):
        report = ev.compute_report(probs, test.labels, test.class_count)
    attempted += w.saves + w.loads + 1

    found += _check_round(w, train, params, reloaded, logs, served, report, grid)
    return RoundResult(sections=sec.seconds, n1_pass=len(singles), total_s=sec.total(),
                       fit_calls=fit.calls, checkpoint_bytes=checkpoint_bytes,
                       attempted=attempted, failed=failed, params=params, probs=probs,
                       checks=found)


def _check_load(w, inputs, loaded):
    if w.complete:
        return [checks.scaled_load_matches(loaded[0].views, inputs.written[0].views)]
    return [checks.load_round_trip(got, want) for got, want in zip(loaded, inputs.written)]


def _check_round(w, train, params, reloaded, logs, served, report, grid):
    found = []
    if grid is not None:
        expected = [(al, co, cl) for al in DESK_GRID.lambda_al_values
                    for co in DESK_GRID.lambda_co_values
                    for cl in DESK_GRID.lambda_cl_values]
        found.append(checks.grid_ranking(grid.trials, grid.best, expected))
        found.append(checks.accuracy_above_chance(report.acc, w.class_count,
                                                  DESK_ACC_MARGIN))
    for probs, single in served:
        found.append(checks.probabilities_sum_to_one(probs))
        found.append(checks.probabilities_sum_to_one(single))
        found.append(checks.single_matches_batch(single, probs))

    # eval mode is deterministic: the objective is a function of the parameters
    check_weights = replace(ALL_TERMS, lambda_co=0.0) if w.complete else ALL_TERMS
    _, bd, cache = md.build_objective(train.views, train.mask, train.labels, params,
                                      check_weights, mode="eval")
    found.append(checks.loss_recomputed(
        cache.yhat.data, [z.data for z in cache.zhat_full], train.mask, train.labels,
        ALPHA, bd))
    found.append(checks.observed_rows_unchanged(
        [z.data for z in cache.zhat_full], [z.data for z in cache.zhat_obs], cache.obs_idx))
    found.append(checks.loss_falls(logs[0].breakdown.total, logs[-1].breakdown.total))

    # the first block served the trained parameters, the last the reloaded ones
    found.append(checks.params_bitwise_equal("checkpoint_round_trip", params, reloaded,
                                             served[0][0], served[-1][0]))
    if w.complete:
        found.append(checks.no_completion([e.breakdown.l_co for e in logs],
                                          cache.provenance))
    return found
