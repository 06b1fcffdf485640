"""Runs a workload, turns its rounds into metrics, and reports them.

Untraced (end-to-end) run: set up several times and keep the median set-up
time, then repeat whole rounds while the next is expected to end within
`seconds` (at least one round).
Traced (per-layer) run: one traced set-up, one untraced round, one traced
round; the two rounds must agree bit for bit, and their difference is the
tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import checks
from bootstrap import ROOT, THREAD_VARS
from tracing import OPS, SpanTable, Tracer
from workloads import WORKLOADS, run_round, setup, warm_up

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0


def run(name, seed, seconds, traced):
    w = WORKLOADS[name]
    out_dir = ROOT / "bench" / "out"
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        if traced:
            result = _traced(w, seed, str(tmp), out_dir / f"spans-{stem}.jsonl")
        else:
            result = _untraced(w, seed, seconds, str(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["environment"] = environment()
    result["workload"] = {"name": name, "seed": seed, "seconds": seconds,
                          "trace": int(traced)}
    with open(out_dir / f"result-{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    failed_checks = [c for c in result["checks"] if not c["ok"]]
    print(f"checks: {len(result['checks']) - len(failed_checks)} passed, "
          f"{len(failed_checks)} failed")
    for c in failed_checks:
        print(f"check {c['name']} FAILED: {c['detail']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["correct"] else 1


def _untraced(w, seed, seconds, tmp):
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        inputs = setup(w, seed, tmp)
        setup_s.append(time.perf_counter() - t0)
    warm_up(w, seed, inputs)
    rounds = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(run_round(w, seed, inputs, tmp))
        now = time.perf_counter()
        if now - t0 + (now - start) > seconds:  # another round would overrun
            break
    found = [c for r in rounds for c in r.checks]
    found += [checks.params_bitwise_equal("rerun_bitwise", rounds[0].params, r.params,
                                          rounds[0].probs, r.probs) for r in rounds[1:]]
    metrics = end_to_end(setup_s, rounds)
    return _summary(found, rounds, metrics, setup_s=setup_s,
                    rounds=[_round_record(r) for r in rounds])


def _traced(w, seed, tmp, spans_path):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            inputs = setup(w, seed, tmp)
    finally:
        tracer.remove()
    warm_up(w, seed, inputs)
    plain = run_round(w, seed, inputs, tmp)
    tracer.install()
    try:
        traced = run_round(w, seed, inputs, tmp, tracer)
    finally:
        tracer.remove()
    found = plain.checks + traced.checks + [checks.params_bitwise_equal(
        "traced_bitwise", plain.params, traced.params, plain.probs, traced.probs)]
    metrics = per_layer(SpanTable(tracer.spans), tracer.counts, inputs, plain, traced)
    tracer.write(spans_path)
    return _summary(found, [plain, traced], metrics, spans=len(tracer.spans),
                    rounds=[_round_record(r) for r in (plain, traced)])


def _round_record(r):
    return {"total_s": r.total_s, "train_epoch_ms": _epoch_ms(r),
            "sections_s": {k: sum(v) for k, v in r.sections.items()}}


def _summary(found, counted, metrics, **extra):
    return {"correct": all(c.ok for c in found),
            "attempted": sum(r.attempted for r in counted),
            "failed": sum(r.failed for r in counted),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "checks": [c.__dict__ for c in found],
            **extra}


# ---------------------------------------------------------------------------
# Metrics


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _epoch_ms(r):
    return 1000.0 * sum(s for s, _ in r.fit_calls) / sum(e for _, e in r.fit_calls)


def central_mean(values):
    """Interquartile mean: the mean of the middle half of the values (of all
    of them when there are fewer than four). Like a median it ignores stray
    spikes, but it averages over the machine's fast and slow spells instead of
    landing in one of them."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(setup_s, rounds):
    """Each figure is an interquartile mean (`central_mean`) over the run's
    samples. An operation repeated in a round (a prediction, a checkpoint save
    or load, a dataset load) is one sample per call. A figure of a whole round
    (its total time, its fitting time) is rebuilt as the sum of its parts,
    each part averaged over rounds, so a slow spell of the machine moves only
    the parts it hit."""

    def over_rounds(per_round):
        return central_mean(per_round(r) for r in rounds)

    def part(name):
        return over_rounds(lambda r: sum(r.sections.get(name, [])))

    def per_call(name):
        return central_mean(x for r in rounds for x in r.sections[name])

    fits = len(rounds[0].fit_calls)
    fit_parts = [over_rounds(lambda r, k=k: r.fit_calls[k][0]) for k in range(fits)]
    epochs = sum(e for _, e in rounds[0].fit_calls)
    # grid bookkeeping outside `train.train`: validation split and predictions
    fit_overhead = over_rounds(lambda r: sum(r.sections.get("grid", [])) + sum(r.sections["fit"])
                               - sum(s for s, _ in r.fit_calls))

    # latencies are summarised per pass over the test side, then over passes
    passes = [r.sections["predict_n1"][i:i + r.n1_pass]
              for r in rounds for i in range(0, len(r.sections["predict_n1"]), r.n1_pass)]

    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "total_s": (sum(part(name) for name in rounds[0].sections), "s"),
        "train_epoch_ms": (1000.0 * sum(fit_parts) / epochs, "ms"),
        "trials_per_min": (60.0 * fits / (sum(fit_parts) + fit_overhead), "trials/min"),
        "predict_ms_n1": (1000.0 * central_mean(statistics.median(p) for p in passes), "ms"),
        "predict_ms_n1_p90": (1000.0 * central_mean(percentile(p, 0.9) for p in passes), "ms"),
        "predict_ms_batch": (1000.0 * per_call("predict_batch"), "ms"),
        "checkpoint_save_s": (per_call("checkpoint_save"), "s"),
        "checkpoint_load_s": (per_call("checkpoint_load"), "s"),
        "checkpoint_mb": (over_rounds(lambda r: r.checkpoint_bytes) / 1e6, "MB"),
        "dataset_load_s": (per_call("dataset_load"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(table, counts, inputs, plain, traced):
    in_train = table.inside("train.train")
    in_grid = table.inside("train.grid_search")
    in_n1 = table.inside("bench.predict_n1")
    in_setup = table.inside("bench.setup")

    def spans(name, within=None):
        return table.select(name, within)

    def self_s(name, within=None):
        return sum((table.self_time[i] for i in spans(name, within)), 0.0)

    steps = len(spans("train.gradients", in_train))

    def per_step_ms(name):
        return 1000.0 * self_s(name, in_train) / steps

    m = {}
    for name in ("build_objective", "gradients", "adam_step"):
        m[f"train.{name}_ms"] = (per_step_ms(f"train.{name}"), "ms")
    m["train.loop_other_ms"] = (per_step_ms("train.train"), "ms")
    grid = spans("train.grid_search")
    trials = len(spans("train.train", in_grid))
    m["train.grid_trial_s"] = (
        sum(table.dur[i] for i in grid) / trials if trials else 0.0, "s")
    m["train.grid_val_predict_ms"] = (
        1000.0 * sum(table.dur[i] for i in spans("model.predict", in_grid)) / trials
        if trials else 0.0, "ms")

    for name in ("forward_view", "complete_missing", "cross_predict", "loss_classification",
                 "loss_auxiliary", "loss_cross_omics", "loss_contrastive", "total_loss"):
        m[f"model.{name}_ms"] = (per_step_ms(f"model.{name}"), "ms")
    contrastive_calls = len(spans("model.loss_contrastive"))
    m["model.contrastive_pairs"] = (
        counts["model.loss_contrastive_pair"] / contrastive_calls if contrastive_calls else 0.0,
        "count")
    passes = len(spans("model.complete_missing", in_train)) \
        + len(spans("model.loss_cross_omics", in_train))
    m["model.cross_predict_calls"] = (
        len(spans("model.cross_predict", in_train)) / passes if passes else 0.0, "count")
    n1 = spans("model.predict", in_n1)
    m["model.predict_forward_ms"] = (1000.0 * statistics.mean(table.dur[i] for i in n1), "ms")

    op_calls = {op: len(spans(f"numerics.{op}", in_train)) / steps for op in OPS}
    m["numerics.op_calls"] = (sum(op_calls.values()), "count")
    for op in OPS:
        m[f"numerics.op_calls.{op}"] = (op_calls[op], "count")
    affine_ms = per_step_ms("numerics.affine")
    gflop = sum(table.work[i] for i in spans("numerics.affine", in_train)) / steps / 1e9
    m["numerics.affine_ms"] = (affine_ms, "ms")
    m["numerics.affine_gflop"] = (gflop, "GFLOP")
    m["numerics.affine_gflops"] = (gflop / (affine_ms / 1000.0), "GFLOP/s")
    for op in ("mean_outer", "batch_norm", "gather_rows", "scatter_rows"):
        m[f"numerics.{op}_ms"] = (per_step_ms(f"numerics.{op}"), "ms")

    for name in ("synth_generate", "split", "apply_missingness", "write_dataset"):
        m[f"data.{name}_s"] = (self_s(f"data.{name}", in_setup), "s")
    loads = spans("data.load_dataset_dir")
    cells = sum(v.size for ds in inputs.written for v in ds.views) \
        * len(loads) / len(inputs.written)
    m["data.load_cells_per_s"] = (cells / self_s("data.load_dataset_dir"), "cells/s")
    reports = spans("evaluation.compute_report")
    m["evaluation.compute_report_ms"] = (
        1000.0 * statistics.mean(table.dur[i] for i in reports), "ms")

    m["trace.overhead_train_epoch_ms"] = (_epoch_ms(traced) - _epoch_ms(plain), "ms")
    m["trace.overhead_total_s"] = (traced.total_s - plain.total_s, "s")
    return m


# ---------------------------------------------------------------------------
# Environment


def _git_revision(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": _git_revision(ROOT),
    }
