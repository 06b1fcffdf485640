"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale criteria
(6-8) train real models on the synthetic family: N=400 subjects, M=3 views of
20 features, 3 classes, SNR 5, features min-max scaled to [0, 1] (the standard
input convention for preprocessed omics matrices). Training uses a svelte
architecture (embed 16, autoencoder 16/8, dropout 0.1) and Adam at 2e-3 so
every run finishes in seconds.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from clclsa import data as dt
from clclsa import evaluation as ev
from clclsa import model as md
from clclsa import numerics as nm
from clclsa import train as tr
from tests.test_numerics import finite_difference, max_rel_error
from tests.test_train import raising_stub

FAMILY = dt.SyntheticSpec(n_subjects=400, n_views=3, view_dims=(20, 20, 20),
                          class_count=3, shared_dim=36, snr=5.0, class_sep=0.7,
                          seed=1)
DESK_MODEL = md.ModelConfig(3, (20, 20, 20), (16, 16, 16), 3,
                            ae_hidden=(16, 8), dropout_p=0.1)
DESK_TRAIN = tr.TrainConfig(epochs=400, initial_lr=2e-3, lr_schedule="constant",
                            weights=md.LossWeights(0.01, 0.1, 0.01, 9.0))


def family_dataset():
    return dt.minmax_scaled(dt.synth_generate(FAMILY))


def report_line(index, ok, detail, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} - {detail}{stamp}")
    assert ok, f"criterion {index}: {detail}"


class TestCriterion1GradientCorrectness:
    def test_full_loss_gradients_match_finite_differences(self):
        """M=3, |V|=6, D=4, N=5, mixed mask, all weights on, alpha=9, no dropout."""
        start = time.time()
        cfg = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.0)
        weights = md.LossWeights(lambda_al=0.1, lambda_co=1.0, lambda_cl=0.01, alpha=9.0)
        data_rng = np.random.default_rng(7)
        views = [data_rng.normal(size=(5, 6)) for _ in range(3)]
        mask = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1], [1, 1, 0], [1, 1, 1]], dtype=bool)
        labels = np.array([0, 1, 0, 1, 1])
        params = md.CLCLSAParams.init_random(cfg, seed=3)
        tensors = params.tensors()
        # check at a generic point: zero-initialized biases put ReLU inputs
        # exactly on the kink, where the objective is not differentiable
        jitter = nm.RngStream(11, "jitter")
        for name, t in tensors.items():
            t.data = t.data + jitter.child(name).uniform(*t.data.shape, -0.1, 0.1)
        init_stats = {k: s.copy() for k, s in params.bn_states.items()}

        def reset():
            for k, s in init_stats.items():
                params.bn_states[k].running_mean = s.running_mean.copy()
                params.bn_states[k].running_var = s.running_var.copy()

        reset()
        _, _, cache = md.build_objective(views, mask, labels, params, weights, mode="train")
        # confidence targets are constants of the optimized objective; freeze
        # them so finite differences probe the same function
        conf = [y.data.max(axis=1, keepdims=True).copy() for y in cache.yhat_view]

        def build():
            reset()
            total, _, _ = md.build_objective(views, mask, labels, params, weights,
                                             mode="train", conf_targets=conf)
            return total

        analytic = nm.gradients(build(), tensors)
        fd = finite_difference(build, tensors, h=1e-5)
        worst = max_rel_error(analytic, fd)
        elapsed = time.time() - start
        report_line(1, worst < 1e-4 and elapsed < 60,
                    f"max relative error {worst:.2e} (< 1e-4) over "
                    f"{sum(t.data.size for t in tensors.values())} parameters", elapsed)


class TestCriterion2ContrastiveOracle:
    def test_pair_loss_against_double_loop_oracle(self):
        start = time.time()
        rng = np.random.default_rng(202)
        floor = 1e-12
        worst = 0.0
        for _ in range(100):
            d_i, d_k = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            p = rng.uniform(0.005, 1.0, size=(d_i, d_k))
            p /= p.sum()
            for alpha in (0.0, 1.0, 9.0):
                value = md.loss_contrastive_pair(nm.constant(p), alpha).item()
                row, col = p.sum(axis=1), p.sum(axis=0)
                oracle = 0.0
                for d in range(d_i):
                    for e in range(d_k):
                        oracle -= p[d, e] * (np.log(max(p[d, e], floor))
                                             - (alpha + 1.0) * np.log(max(row[d], floor))
                                             - (alpha + 1.0) * np.log(max(col[e], floor)))
                worst = max(worst, abs(value - oracle))
        uniform_worst = 0.0
        for d in (2, 4, 8):
            p = nm.constant(np.full((d, d), 1.0 / (d * d)))
            for alpha in (0.0, 1.0, 9.0):
                value = md.loss_contrastive_pair(p, alpha).item()
                uniform_worst = max(uniform_worst, abs(value - (-2.0 * alpha * np.log(d))))
        elapsed = time.time() - start
        report_line(2, worst < 1e-10 and uniform_worst < 1e-12 and elapsed < 5,
                    f"oracle deviation {worst:.2e} (< 1e-10) on 100 matrices, "
                    f"uniform closed form {uniform_worst:.2e} (< 1e-12)", elapsed)


class TestCriterion3CrossOmicsOracle:
    def test_triple_loop_oracle_and_bi_view_exactness(self):
        start = time.time()
        cfg = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.0)
        params = md.CLCLSAParams.init_random(cfg, 6)
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(10):
            zs_data = [rng.normal(size=(4, 4)) for _ in range(3)]
            mask = np.ones((4, 3), dtype=bool)
            mask[rng.integers(0, 4), rng.integers(0, 3)] = False
            value = md.loss_cross_omics([nm.constant(z) for z in zs_data], mask,
                                        params, mode="eval").item()
            oracle = 0.0
            for i in range(3):
                for k in range(3):
                    if i == k:
                        continue
                    joint = [j for j in range(4) if mask[j, i] and mask[j, k]]
                    if len(joint) < 2:
                        continue
                    pred = md.cross_predict(nm.constant(zs_data[k][joint]), k, i,
                                            params, "eval").data
                    for row, j in enumerate(joint):
                        for c in range(4):
                            oracle += (pred[row, c] - zs_data[i][j, c]) ** 2
            worst = max(worst, abs(value - oracle))

        cfg2 = md.ModelConfig(2, (6, 6), (4, 4), 2, ae_hidden=(4, 3), dropout_p=0.0)
        params2 = md.CLCLSAParams.init_random(cfg2, 7)
        zs = [nm.constant(rng.normal(size=(5, 4))) for _ in range(2)]
        mask2 = np.ones((5, 2), dtype=bool)
        total = md.loss_cross_omics(zs, mask2, params2, mode="eval").item()
        h12 = md.cross_predict(zs[1], 1, 0, params2, "eval")
        h21 = md.cross_predict(zs[0], 0, 1, params2, "eval")
        d1, d2 = nm.sub(h12, zs[0]), nm.sub(h21, zs[1])
        bi_view = nm.add(nm.sum_all(nm.mul(d1, d1)), nm.sum_all(nm.mul(d2, d2))).item()
        exact = total == bi_view
        elapsed = time.time() - start
        report_line(3, worst < 1e-10 and exact and elapsed < 5,
                    f"triple-loop deviation {worst:.2e} (< 1e-10); "
                    f"two-view expression bitwise equal: {exact}", elapsed)


class TestCriterion4AblationWiring:
    def test_breakdown_and_bitwise_term_removal(self):
        start = time.time()
        spec = dt.SyntheticSpec(n_subjects=30, n_views=3, view_dims=(6, 6, 6),
                                class_count=2, shared_dim=6, snr=5.0, class_sep=1.5,
                                seed=9)
        ds = dt.apply_missingness(dt.synth_generate(spec),
                                  dt.MissingnessSpec(eta=0.3, seed=99))
        tiny_model = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3),
                                    dropout_p=0.1)
        base = tr.TrainConfig(epochs=20, initial_lr=1e-3, lr_schedule="constant",
                              seed=0, weights=md.LossWeights(0.1, 0.1, 0.01, 9.0))
        _, logs = tr.train(ds, tiny_model, base)
        recon_ok = all(
            abs(e.breakdown.total - (e.breakdown.l_clf + 0.1 * e.breakdown.l_al
                                     + 0.1 * e.breakdown.l_co + 0.01 * e.breakdown.l_cl)) < 1e-12
            for e in logs)
        bitwise_ok = True
        # the removed code path: the term's loss function raises if it is called
        for loss_fn, zeroed in (
            ("loss_auxiliary", md.LossWeights(0.0, 0.1, 0.01, 9.0)),
            ("loss_cross_omics", md.LossWeights(0.1, 0.0, 0.01, 9.0)),
            ("loss_contrastive", md.LossWeights(0.1, 0.1, 0.0, 9.0)),
        ):
            cfg = replace(base, weights=zeroed)
            p_zero, _ = tr.train(ds, tiny_model, cfg)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(md, loss_fn, raising_stub(loss_fn))
                p_off, _ = tr.train(ds, tiny_model, cfg)
            for name, t in p_zero.tensors().items():
                if not np.array_equal(t.data, p_off[name].data):
                    bitwise_ok = False
        elapsed = time.time() - start
        report_line(4, recon_ok and bitwise_ok and elapsed < 60,
                    f"breakdown reconstructs at 1e-12: {recon_ok}; zero weight "
                    f"bitwise equals removed code path: {bitwise_ok}", elapsed)


class TestCriterion5MetricOracles:
    def test_metric_oracles(self):
        start = time.time()
        rng = np.random.default_rng(505)
        auc_worst = 0.0
        for _ in range(200):
            n = int(rng.integers(8, 40))
            true = rng.integers(0, 2, size=n)
            if true.min() == true.max():
                true[0] = 1 - true[0]
            scores = np.round(rng.uniform(size=n), 2)
            fast = ev.auc_binary(scores, true)
            pos, neg = scores[true == 1], scores[true == 0]
            wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                       for p in pos for q in neg)
            auc_worst = max(auc_worst, abs(fast - wins / (len(pos) * len(neg))))

        f1_worst = 0.0
        for _ in range(50):
            c = int(rng.integers(2, 5))
            n = int(rng.integers(10, 60))
            pred, true = rng.integers(0, c, size=n), rng.integers(0, c, size=n)
            conf = ev.confusion_matrix(pred, true, c)
            f1s, supports = [], []
            for cls in range(c):
                tp = conf[cls, cls]
                fp = conf[:, cls].sum() - tp
                fn = conf[cls, :].sum() - tp
                f1s.append(0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))
                supports.append(conf[cls, :].sum())
            f1_worst = max(f1_worst,
                           abs(ev.multiclass_f1(pred, true, c, "macro") - np.mean(f1s)))
            if sum(supports):
                f1_worst = max(f1_worst,
                               abs(ev.multiclass_f1(pred, true, c, "weighted")
                                   - np.average(f1s, weights=supports)))
            if c == 2:
                f1_worst = max(f1_worst, abs(ev.f1_binary(pred, true) - f1s[1]))

        true = np.repeat([0, 1, 2], 25)
        pred = rng.integers(0, 3, size=75)
        balanced_gap = abs(ev.multiclass_f1(pred, true, 3, "weighted")
                           - ev.multiclass_f1(pred, true, 3, "macro"))
        elapsed = time.time() - start
        report_line(5, auc_worst < 1e-12 and f1_worst < 1e-12 and balanced_gap < 1e-12
                    and elapsed < 10,
                    f"AUC oracle {auc_worst:.2e}, F1 oracles {f1_worst:.2e}, "
                    f"balanced weighted-vs-macro {balanced_gap:.2e} (all < 1e-12)", elapsed)


@pytest.mark.slow
class TestCriterion6EndToEndLearnability:
    def test_complete_data_accuracy(self):
        """Complete data, 500 epochs, mean test accuracy over 5 seeds >= 0.95."""
        start = time.time()
        ds = family_dataset()
        cfg = replace(DESK_TRAIN, epochs=500,
                      weights=md.LossWeights(0.01, 0.0, 0.01, 9.0))
        accs = []
        slowest = 0.0
        for seed in range(5):
            t0 = time.time()
            row = ev.run_trial(ds, DESK_MODEL, cfg, eta=0.0, seed=seed)
            slowest = max(slowest, time.time() - t0)
            accs.append(row.report.acc)
        mean_acc = float(np.mean(accs))
        elapsed = time.time() - start
        report_line(6, mean_acc >= 0.95 and slowest < 120,
                    f"mean test ACC {mean_acc:.4f} (>= 0.95) over 5 seeds "
                    f"{[round(a, 3) for a in accs]}; slowest run {slowest:.1f}s (< 120s)",
                    elapsed)


@pytest.mark.slow
class TestCriterion7CompletionBenefit:
    def test_completion_gap_and_missing_rate_trend(self):
        """At eta=0.5 cross-view completion beats the zero-fill completion
        policy by >= 3 points over 10 seeds (same trained weights, ablated
        completion); mean ACC is non-increasing in eta within 2-point slack.
        """
        start = time.time()
        ds = family_dataset()
        gaps, cross_accs, zero_accs = [], [], []
        for seed in range(10):
            train_ds, test_ds = dt.split(
                ds, dt.SplitSpec(seed=nm.derive_seed(seed, "split")))
            train_m = dt.apply_missingness(
                train_ds, dt.MissingnessSpec(0.5, nm.derive_seed(seed, "mask-train")))
            test_m = dt.apply_missingness(
                test_ds, dt.MissingnessSpec(0.5, nm.derive_seed(seed, "mask-test")))
            params, _ = tr.train(train_m, DESK_MODEL, replace(DESK_TRAIN, seed=seed))
            _, pred_cross = md.predict(test_m.views, test_m.mask, params)
            zero_view = md.CLCLSAParams(replace(DESK_MODEL, completion="zero"),
                                        params.tensors(), params.bn_states)
            _, pred_zero = md.predict(test_m.views, test_m.mask, zero_view)
            cross_accs.append(ev.accuracy(pred_cross, test_m.labels))
            zero_accs.append(ev.accuracy(pred_zero, test_m.labels))
            gaps.append(cross_accs[-1] - zero_accs[-1])
        mean_gap = float(np.mean(gaps))

        etas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        sweep = ev.missing_rate_sweep(ds, DESK_MODEL, DESK_TRAIN, etas, [0, 1, 2, 3])
        means = [p.mean["acc"] for p in sweep.points]
        max_step = max(b - a for a, b in zip(means, means[1:]))
        elapsed = time.time() - start
        report_line(7, mean_gap >= 0.03 and max_step <= 0.02 and elapsed < 1800,
                    f"completion gap {mean_gap * 100:+.2f} points (>= 3) "
                    f"[cross {np.mean(cross_accs):.3f} vs zero-fill {np.mean(zero_accs):.3f}]; "
                    f"sweep means {[round(m, 3) for m in means]}, "
                    f"max upward step {max_step * 100:+.2f} points (<= 2)", elapsed)


@pytest.mark.slow
class TestCriterion8AblationTrend:
    def test_all_components_help(self):
        """ctst+aux is no worse than plain (within 1 point) at eta 0.2 and 0.4."""
        start = time.time()
        ds = family_dataset()
        spec = ev.AblationSpec(variants=("plain", "ctst+aux"), etas=(0.2, 0.4),
                               seeds=(0, 1, 2, 3, 4), lambda_co=0.1)
        points = ev.ablation_run(ds, spec, DESK_MODEL, DESK_TRAIN).points
        plain = [p.mean["acc"] for p in points if p.variant == "plain"]
        both = [p.mean["acc"] for p in points if p.variant == "ctst+aux"]
        ok = all(b >= p - 0.01 for b, p in zip(both, plain))
        elapsed = time.time() - start
        report_line(8, ok and elapsed < 1200,
                    f"ctst+aux {[round(a, 4) for a in both]} vs plain "
                    f"{[round(a, 4) for a in plain]} at eta (0.2, 0.4); "
                    f"within 1-point slack: {ok}", elapsed)


class TestCriterion9Determinism:
    def test_cli_rerun_is_bitwise(self, tmp_path):
        from clclsa import cli

        start = time.time()
        synth_args = ["--n", "50", "--views", "3", "--classes", "2", "--dims", "6,6,6",
                      "--shared-dim", "6", "--sep", "1.5", "--seed", "5"]
        train_args = ["--seed", "2", "--epochs", "6", "--initial-lr", "1e-3",
                      "--lr-schedule", "constant", "--lambda-al", "0.01",
                      "--lambda-co", "0.1", "--lambda-cl", "0.01",
                      "--set", "model.embed_dims=[4,4,4]",
                      "--set", "model.ae_hidden=[4,3]",
                      "--set", "model.dropout_p=0.1"]
        data_dir = tmp_path / "data"
        run_dir = tmp_path / "run"
        masked_dir = tmp_path / "masked"
        metrics = tmp_path / "metrics.json"
        watched = [data_dir / "view0.csv", data_dir / "labels.csv",
                   masked_dir / "mask.csv", run_dir / "checkpoint.json",
                   run_dir / "epochs.csv", metrics]

        def pipeline():
            assert cli.dispatch(["synth", *synth_args, "--out", str(data_dir)]) == 0
            assert cli.dispatch(["mask", "--data", str(data_dir), "--eta", "0.4",
                                 "--seed", "9", "--out", str(masked_dir)]) == 0
            assert cli.dispatch(["train", "--data", str(masked_dir),
                                 "--out", str(run_dir), *train_args]) == 0
            assert cli.dispatch(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                                 "--data", str(masked_dir), "--out", str(metrics)]) == 0
            return [path.read_bytes() for path in watched]

        first = pipeline()
        second = pipeline()
        same = all(a == b for a, b in zip(first, second))
        elapsed = time.time() - start
        report_line(9, same, "re-executing identical synth/mask/train/eval commands "
                             f"reproduces every artifact bitwise: {same}", elapsed)


class TestCriterion10ExternalDataRecipe:
    def test_reproduction_recipe_documented_and_runnable(self):
        """Non-gating: the recipe for user-supplied real omics matrices.

        Always checks the README documents the recipe (preset, grid values,
        expected accuracy band). If CLCLSA_ROSMAP_DIR points at MOGONET-style
        preprocessed matrices, a short confirmation run executes as well.
        """
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        documented = ("rosmap" in readme.lower()
                      and "0.0001" in readme
                      and "85.7" in readme
                      and "grid" in readme.lower())
        data_dir = os.environ.get("CLCLSA_ROSMAP_DIR")
        if data_dir:
            ds = dt.load_dataset_dir(data_dir, scale=True)
            cfg = md.preset("rosmap")
            out = tr.train(ds, cfg, replace(tr.TrainConfig(), epochs=10))
            ran = out is not None
        else:
            ran = None
        detail = "reproduction recipe documented in README (non-gating)"
        if ran is not None:
            detail += f"; confirmation run executed: {ran}"
        else:
            detail += "; external data not supplied (set CLCLSA_ROSMAP_DIR to run)"
        report_line(10, documented, detail)
