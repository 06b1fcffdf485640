"""Metrics, report emission, and experiment runners."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clclsa import data as dt
from clclsa import evaluation as ev
from clclsa import model as md
from clclsa import train as tr
from tests.test_train import aborting_train, raising_stub


class TestAccuracy:
    def test_identical(self):
        assert ev.accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_complementary_binary(self):
        assert ev.accuracy([0, 1, 0], [1, 0, 1]) == 0.0

    def test_three_of_four(self):
        assert ev.accuracy([0, 1, 1, 0], [0, 1, 1, 1]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ev.accuracy([0, 1], [0, 1, 2])

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, size=50)
        true = rng.integers(0, 4, size=50)
        relabel = np.array([2, 3, 0, 1])
        assert ev.accuracy(pred, true) == ev.accuracy(relabel[pred], relabel[true])


class TestF1Binary:
    def test_forced_arithmetic(self):
        # TP=1, FP=1, FN=1 -> P=R=0.5 -> F1=0.5
        pred = np.array([1, 1, 0])
        true = np.array([1, 0, 1])
        assert ev.f1_binary(pred, true) == 0.5

    def test_perfect(self):
        assert ev.f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_degenerate_convention(self):
        assert ev.f1_binary([0, 0], [0, 0]) == 0.0

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            ev.f1_binary([0, 2], [0, 1])

    @pytest.mark.parametrize("positive_class", [2, -1])
    def test_positive_class_outside_binary_rejected(self, positive_class):
        with pytest.raises(ValueError, match=f"positive_class must be 0 or 1, got {positive_class}"):
            ev.f1_binary([0, 1], [0, 1], positive_class=positive_class)


class TestAucBinary:
    def test_perfect_separation(self):
        assert ev.auc_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert ev.auc_binary([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ev.auc_binary([0.1, 0.9], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(10, 60))
            true = rng.integers(0, 2, size=n)
            if true.min() == true.max():
                true[0] = 1 - true[0]
            scores = np.round(rng.uniform(size=n), 2)  # rounding forces ties
            fast = ev.auc_binary(scores, true)
            pos = scores[true == 1]
            neg = scores[true == 0]
            wins = 0.0
            for p in pos:
                for q in neg:
                    wins += 1.0 if p > q else (0.5 if p == q else 0.0)
            oracle = wins / (len(pos) * len(neg))
            assert abs(fast - oracle) < 1e-12, f"trial {trial}"


def loop_average_ranks(scores):
    """The reference: walk the mergesort order, one run of equal scores at a time."""
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


# a few distinct values, so runs of ties are common, plus NaN, which ties with nothing
TIED_SCORES = st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.inf, np.nan]),
                       max_size=40)


@given(TIED_SCORES)
def test_average_ranks_match_the_loop_bit_for_bit(values):
    scores = np.array(values, dtype=np.float64)
    assert ev._average_ranks(scores).tobytes() == loop_average_ranks(scores).tobytes()


class TestMulticlassF1:
    def test_perfect_balanced(self):
        pred = true = np.array([0, 1, 2, 0, 1, 2])
        assert ev.multiclass_f1(pred, true, 3, "macro") == 1.0
        assert ev.multiclass_f1(pred, true, 3, "weighted") == 1.0

    def test_balanced_weighted_equals_macro(self):
        rng = np.random.default_rng(2)
        true = np.repeat([0, 1, 2], 30)
        pred = rng.integers(0, 3, size=90)
        macro = ev.multiclass_f1(pred, true, 3, "macro")
        weighted = ev.multiclass_f1(pred, true, 3, "weighted")
        assert abs(macro - weighted) < 1e-12

    def test_confusion_matrix_rejects_labels_outside_the_classes(self):
        with pytest.raises(ValueError, match=r"predicted label -1 is outside \[0, 2\)"):
            ev.confusion_matrix([0, -1, 1], [0, 1, 1], 2)
        with pytest.raises(ValueError, match=r"true label 2 is outside \[0, 2\)"):
            ev.confusion_matrix([0, 1, 1], [0, 2, 1], 2)

    @pytest.mark.parametrize("pred, true, message", [
        ([0, 3, 1], [0, 1, 2], r"predicted label 3 is outside \[0, 3\)"),
        ([0, 1, 2], [0, -1, 2], r"true label -1 is outside \[0, 3\)"),
        ([0, 0.5, 2], [0, 1, 2], r"predicted label 0.5 is outside \[0, 3\)"),
    ])
    def test_labels_outside_the_classes_rejected(self, pred, true, message):
        for mode in ("macro", "weighted"):
            with pytest.raises(ValueError, match=message):
                ev.multiclass_f1(pred, true, 3, mode)

    def test_whole_number_float_labels_count_as_their_classes(self):
        pred, true = np.array([0, 1, 2, 1]), np.array([0, 1, 1, 1])
        for mode in ("macro", "weighted"):
            assert (ev.multiclass_f1(pred.astype(float), true.astype(float), 3, mode)
                    == ev.multiclass_f1(pred, true, 3, mode))

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 3, size=40)
        true = rng.integers(0, 3, size=40)
        conf = ev.confusion_matrix(pred, true, 3)
        f1s, supports = [], []
        for c in range(3):
            tp = conf[c, c]
            fp = conf[:, c].sum() - tp
            fn = conf[c, :].sum() - tp
            f1 = 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)
            f1s.append(f1)
            supports.append(conf[c, :].sum())
        macro_oracle = np.mean(f1s)
        weighted_oracle = np.average(f1s, weights=supports)
        assert abs(ev.multiclass_f1(pred, true, 3, "macro") - macro_oracle) < 1e-12
        assert abs(ev.multiclass_f1(pred, true, 3, "weighted") - weighted_oracle) < 1e-12

    def test_binary_macro_consistent_with_f1_binary(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 2, size=30)
        true = rng.integers(0, 2, size=30)
        macro = ev.multiclass_f1(pred, true, 2, "macro")
        mean_of_views = 0.5 * (ev.f1_binary(pred, true, positive_class=1)
                               + ev.f1_binary(1 - pred, 1 - true, positive_class=1))
        assert abs(macro - mean_of_views) < 1e-12

    def test_score_does_not_depend_on_which_class_is_absent(self):
        # perfect predictions on a 3-class problem with one class unseen
        without_two = np.array([0, 1, 0, 1])
        without_one = np.array([0, 2, 0, 2])
        for mode in ("macro", "weighted"):
            assert (ev.multiclass_f1(without_two, without_two, 3, mode)
                    == ev.multiclass_f1(without_one, without_one, 3, mode))
        assert ev.multiclass_f1(without_two, without_two, 3, "macro") == pytest.approx(2 / 3)


class TestMetricsReport:
    def test_binary_fields_present_for_two_classes(self):
        yhat = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4]])
        report = ev.compute_report(yhat, np.array([0, 1, 0]), 2)
        assert report.f1 is not None and report.auc is not None
        assert report.acc == 1.0

    def test_binary_fields_absent_for_multiclass(self):
        yhat = np.full((4, 3), 1 / 3)
        report = ev.compute_report(yhat, np.array([0, 1, 2, 0]), 3)
        assert report.f1 is None and report.auc is None

    @given(st.integers(2, 4), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                       min_size=1, max_size=30))
    def test_f1_fields_equal_the_public_functions_bit_for_bit(self, classes, pairs):
        pred = np.array([p % classes for p, _ in pairs])
        true = np.array([t % classes for _, t in pairs])
        report = ev.compute_report(np.eye(classes)[pred], true, classes)
        assert report.macro_f1 == ev.multiclass_f1(pred, true, classes, "macro")
        assert report.weighted_f1 == ev.multiclass_f1(pred, true, classes, "weighted")
        assert report.f1 == (ev.f1_binary(pred, true) if classes == 2 else None)

    def test_confusion_sums_to_n_and_acc_is_trace(self):
        rng = np.random.default_rng(5)
        yhat = rng.uniform(size=(25, 3))
        yhat /= yhat.sum(axis=1, keepdims=True)
        true = rng.integers(0, 3, size=25)
        report = ev.compute_report(yhat, true, 3)
        conf = np.array(report.confusion)
        assert conf.sum() == 25
        assert abs(report.acc - conf.trace() / 25) < 1e-12


def fast_runner_setup():
    spec = dt.SyntheticSpec(n_subjects=60, view_dims=(6, 6, 6), class_count=2,
                            shared_dim=6, snr=5.0, class_sep=1.5, seed=3)
    ds = dt.synth_generate(spec)
    model_cfg = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.1)
    train_cfg = tr.TrainConfig(epochs=5, initial_lr=1e-3, lr_schedule="constant",
                               weights=md.LossWeights(0.01, 0.1, 0.01, 9.0))
    return ds, model_cfg, train_cfg


class TestRunners:
    def test_degenerate_sweep_equals_direct_trial(self):
        ds, model_cfg, train_cfg = fast_runner_setup()
        sweep = ev.run_trials(ds, model_cfg, train_cfg,
                              ev.sweep_trials(train_cfg.weights, [0.0], [7]))
        direct = ev.run_trial(ds, model_cfg, train_cfg, 0.0, 7)
        assert sweep.rows[0].report.acc == direct.report.acc
        assert sweep.points[0].mean["acc"] == direct.report.acc

    def test_sweep_engages_each_eta_and_seed(self):
        ds, model_cfg, train_cfg = fast_runner_setup()
        sweep = ev.run_trials(ds, model_cfg, train_cfg,
                              ev.sweep_trials(train_cfg.weights, [0.0, 0.4], [1, 2]))
        assert len(sweep.rows) == 4
        assert [p.eta for p in sweep.points] == [0.0, 0.4]
        for point in sweep.points:
            assert len(point.reports) == 2

    def test_unsorted_etas_rejected(self):
        with pytest.raises(ValueError, match="etas must be sorted ascending"):
            ev.sweep_trials(md.LossWeights(), [0.4, 0.1], [0])

    def test_empty_lists_rejected_by_every_builder(self):
        """Each would make a trial list that trains nothing."""
        ds = fast_runner_setup()[0]
        w = md.LossWeights()
        axes = ("lambda_al", 0.1), [("lambda_co", [0.1]), ("lambda_cl", [0.1])]
        cases = [
            ("etas", lambda: ev.sweep_trials(w, [], [0, 1])),
            ("seeds", lambda: ev.sweep_trials(w, [0.2], [])),
            ("etas", lambda: ev.partial_omics_trials(ds, [(0, 1)], w, (), [0])),
            ("seeds", lambda: ev.partial_omics_trials(ds, [(0, 1)], w, [0.2], [])),
            ("view_subsets", lambda: ev.partial_omics_trials(ds, [], w, [0.2], [0])),
            ("etas", lambda: ev.ablation_trials(ev.AblationSpec(etas=()), w)),
            ("seeds", lambda: ev.ablation_trials(ev.AblationSpec(seeds=()), w)),
            ("seeds", lambda: ev.surface_trials(w, *axes, 0.2, [])),
            ("lambda_co grid", lambda: ev.surface_trials(
                w, axes[0], [("lambda_co", []), ("lambda_cl", [0.1])], 0.2, [0])),
            ("lambda_cl grid", lambda: ev.surface_trials(
                w, axes[0], [("lambda_co", [0.1]), ("lambda_cl", [])], 0.2, [0])),
        ]
        for name, build in cases:
            with pytest.raises(ValueError, match=f"{name} must be nonempty"):
                build()

    def test_aggregates_recompute_from_rows(self):
        ds, model_cfg, train_cfg = fast_runner_setup()
        sweep = ev.run_trials(ds, model_cfg, train_cfg,
                              ev.sweep_trials(train_cfg.weights, [0.3], [1, 2, 3]))
        accs = [r.report.acc for r in sweep.rows]
        assert abs(sweep.points[0].mean["acc"] - np.mean(accs)) < 1e-12
        assert abs(sweep.points[0].std["acc"] - np.std(accs, ddof=1)) < 1e-12

    def test_partial_omics_shrinks_model(self):
        ds, model_cfg, train_cfg = fast_runner_setup()
        result = ev.run_trials(ds, model_cfg, train_cfg, ev.partial_omics_trials(
            ds, [(0, 1)], train_cfg.weights, [0.0], [1]))
        assert [p.variant for p in result.points] == ["view0+view1"]
        row = result.rows[0]
        assert row.status == "ok"

    def test_partial_omics_singleton_rejected(self):
        ds, _, train_cfg = fast_runner_setup()
        with pytest.raises(ValueError):
            ev.partial_omics_trials(ds, [(1,)], train_cfg.weights, [0.0], [1])

    def test_surface_validates_fixed_and_varying(self):
        with pytest.raises(ValueError, match="got lambda_al, lambda_cl$"):
            ev.surface_trials(md.LossWeights(), ("lambda_al", 0.1), [("lambda_cl", [0.0])],
                              0.2, [1])

    def test_surface_names_a_weight_varied_twice(self):
        with pytest.raises(ValueError, match="got lambda_al, lambda_co, lambda_co$"):
            ev.surface_trials(md.LossWeights(), ("lambda_al", 0.1),
                              [("lambda_co", [0.1]), ("lambda_co", [0.2])], 0.2, [1])

    @pytest.mark.parametrize("values, offending", [([0.1, 0.1], "0.1"), ([0.0, -0.0], "-0.0")])
    def test_surface_value_repeated_in_a_grid_rejected(self, values, offending):
        with pytest.raises(ValueError, match=f"lambda_cl value {offending} is listed twice"):
            ev.surface_trials(md.LossWeights(), ("lambda_al", 0.1),
                              [("lambda_co", [0.1]), ("lambda_cl", values)], 0.2, [1])

    def test_surface_checks_a_value_beside_an_empty_grid(self):
        with pytest.raises(ValueError, match="lambda_cl must be >= 0, got -1"):
            ev.surface_trials(md.LossWeights(), ("lambda_al", 0.1),
                              [("lambda_co", []), ("lambda_cl", [-1.0])], 0.2, [1])

    def test_surface_cells(self):
        ds, model_cfg, train_cfg = fast_runner_setup()
        rows = ev.run_trials(ds, model_cfg, train_cfg, ev.surface_trials(
            train_cfg.weights, ("lambda_al", 0.1),
            [("lambda_co", [0.01, 0.1]), ("lambda_cl", [0.01, 0.1])], 0.2, [1])).rows
        assert len(rows) == 4
        assert all(r.weights.lambda_al == 0.1 for r in rows)

    def test_ablation_weight_mapping(self):
        base = md.LossWeights(0.2, 0.0, 0.3, 5.0)
        assert ev.ablation_weights("plain", base, 0.1) == md.LossWeights(0.0, 0.1, 0.0, 5.0)
        assert ev.ablation_weights("ctst", base, 0.1) == md.LossWeights(0.0, 0.1, 0.3, 5.0)
        assert ev.ablation_weights("aux", base, 0.1) == md.LossWeights(0.2, 0.1, 0.0, 5.0)
        assert ev.ablation_weights("ctst+aux", base, 0.1) == md.LossWeights(0.2, 0.1, 0.3, 5.0)

    def test_accuracy_degrades_from_complete_to_extreme_missingness(self):
        """Mean ACC at eta=0 is at least the mean at eta=0.8 over 5 seeds."""
        spec = dt.SyntheticSpec(n_subjects=150, view_dims=(10, 10, 10), class_count=2,
                                shared_dim=18, snr=5.0, class_sep=0.8, seed=2)
        ds = dt.minmax_scaled(dt.synth_generate(spec))
        cfg = md.ModelConfig(3, (10, 10, 10), (8, 8, 8), 2, ae_hidden=(8, 4), dropout_p=0.1)
        tcfg = tr.TrainConfig(epochs=120, initial_lr=2e-3, lr_schedule="constant",
                              weights=md.LossWeights(0.01, 0.1, 0.01, 9.0))
        sweep = ev.run_trials(ds, cfg, tcfg,
                              ev.sweep_trials(tcfg.weights, [0.0, 0.8], [0, 1, 2, 3, 4]))
        assert sweep.points[0].mean["acc"] >= sweep.points[1].mean["acc"]

    def test_subsets_with_the_informative_view_win(self):
        """Views 2 and 3 are shuffled across subjects: only view 1 carries
        class signal, so subsets containing it outperform the complement."""
        rng = np.random.default_rng(44)
        spec = dt.SyntheticSpec(n_subjects=150, view_dims=(10, 10, 10), class_count=2,
                                shared_dim=18, snr=5.0, class_sep=0.8, seed=2)
        base = dt.minmax_scaled(dt.synth_generate(spec))
        views = [base.views[0].copy(),
                 base.views[1][rng.permutation(150)],
                 base.views[2][rng.permutation(150)]]
        ds = dt.MultiOmicsDataset(views=views, mask=base.mask.copy(),
                                  labels=base.labels.copy(), class_count=2)
        cfg = md.ModelConfig(3, (10, 10, 10), (8, 8, 8), 2, ae_hidden=(8, 4), dropout_p=0.1)
        tcfg = tr.TrainConfig(epochs=120, initial_lr=2e-3, lr_schedule="constant",
                              weights=md.LossWeights(0.01, 0.1, 0.01, 9.0))
        res = ev.run_trials(ds, cfg, tcfg, ev.partial_omics_trials(
            ds, [(0, 1), (0, 2), (1, 2)], tcfg.weights, [0.0], [0, 1]))
        acc = {p.variant: p.mean["acc"] for p in res.points}
        assert min(acc["view0+view1"], acc["view0+view2"]) > acc["view1+view2"] + 0.1

    def test_ablation_run_variants(self):
        ds, model_cfg, train_cfg = fast_runner_setup()
        spec = ev.AblationSpec(variants=("plain", "ctst+aux"), etas=(0.2,), seeds=(1,))
        result = ev.run_trials(ds, model_cfg, train_cfg,
                               ev.ablation_trials(spec, train_cfg.weights))
        assert {p.variant for p in result.points} == {"plain", "ctst+aux"}



class TestValuesCheckedBeforeTraining:
    @pytest.mark.parametrize("build, offending", [
        (lambda ds, w: ev.sweep_trials(w, [0.0, 0.2, 1.5], [0, 1]), "1.5"),
        # a negative rate masks nothing, so it once trained unchecked
        (lambda ds, w: ev.sweep_trials(w, [-0.2, 0.2], [0]), "-0.2"),
        (lambda ds, w: ev.ablation_trials(ev.AblationSpec(etas=(0.2, 1.5), seeds=(0,)), w),
         "1.5"),
        (lambda ds, w: ev.surface_trials(w, ("lambda_al", 0.1),
                                         [("lambda_co", [0.1]), ("lambda_cl", [0.1, -0.5])],
                                         0.2, [0]), "-0.5"),
        (lambda ds, w: ev.surface_trials(w, ("lambda_al", 0.1),
                                         [("lambda_co", [0.1]), ("lambda_cl", [0.1])],
                                         -0.1, [0]), "-0.1"),
        (lambda ds, w: ev.partial_omics_trials(ds, [(0, 1), (2,)], w, [0.0], [0]), "(2,)"),
    ], ids=["sweep_eta", "sweep_negative_eta", "ablation_eta", "surface_weight",
            "surface_eta", "partial_singleton"])
    def test_bad_last_value_raises_before_any_training(self, build, offending):
        ds, _, train_cfg = fast_runner_setup()
        with pytest.raises(ValueError) as info:
            build(ds, train_cfg.weights)
        assert offending in str(info.value)


class TestTrialListsCheckedBeforeTraining:
    @pytest.mark.parametrize("build, offending", [
        (lambda ds, w: ev.ablation_trials(
            ev.AblationSpec(variants=("plain", "plain"), etas=(0.2,), seeds=(0,)), w),
         "'plain' at eta 0.2, seed 0 is listed twice"),
        (lambda ds, w: ev.partial_omics_trials(ds, [(0, 1), (0, 1)], w, [0.0], [0]),
         "'view0+view1' at eta 0.0, seed 0 is listed twice"),
        (lambda ds, w: ev.sweep_trials(w, [0.2], [0, 1, 0]),
         "at eta 0.2, seed 0 is listed twice"),
        (lambda ds, w: ev.partial_omics_trials(ds, [(0, 0, 1)], w, [0.0], [0]),
         "view subset (0, 0, 1) names view 0 twice"),
        (lambda ds, w: ev.partial_omics_trials(ds, [(0, 1), (0, 5)], w, [0.0], [0]),
         "view subset (0, 5) names view 5, outside [0, 3)"),
        (lambda ds, w: ev.partial_omics_trials(ds, [(-1, 1)], w, [0.0], [0]),
         "view subset (-1, 1) names view -1, outside [0, 3)"),
    ], ids=["ablation_variant_twice", "partial_subset_twice", "sweep_seed_twice",
            "partial_view_twice", "partial_view_out_of_range", "partial_negative_view"])
    def test_duplicate_or_out_of_range_trial_raises_before_any_training(self, build,
                                                                        offending):
        ds, _, train_cfg = fast_runner_setup()
        with pytest.raises(ValueError) as info:
            build(ds, train_cfg.weights)
        assert offending in str(info.value)

    def test_run_trials_rejects_a_repeat_before_any_training(self, monkeypatch):
        """A list put together by hand gets the builders' repeated-trial check."""
        ds, model_cfg, train_cfg = fast_runner_setup()
        monkeypatch.setattr(tr, "train", raising_stub("train"))
        trials = ev.sweep_trials(train_cfg.weights, [0.2], [0, 1])
        with pytest.raises(ValueError, match="'clclsa' at eta 0.2, seed 1 is listed twice"):
            ev.run_trials(ds, model_cfg, train_cfg, trials + trials[1:])


class TestAbortedTrials:
    def test_failed_row_and_point(self, monkeypatch):
        ds, model_cfg, train_cfg = fast_runner_setup()
        monkeypatch.setattr(tr, "train", aborting_train(lambda _, cfg: cfg.seed == 2))
        sweep = ev.run_trials(ds, model_cfg, train_cfg,
                              ev.sweep_trials(train_cfg.weights, [0.0], [1, 2, 3]))
        assert [r.status for r in sweep.rows] == ["ok", "failed", "ok"]
        assert sweep.rows[1].report is None
        assert sweep.rows[1].detail == "training aborted at epoch 3: term 'l_cl' is non-finite"
        point, = sweep.points
        assert point.failures == 1 and len(point.reports) == 2
        assert point.mean["acc"] == np.mean([sweep.rows[0].report.acc, sweep.rows[2].report.acc])

    def test_all_failed_group_has_rows_but_no_aggregates(self, tmp_path, monkeypatch):
        ds, model_cfg, train_cfg = fast_runner_setup()
        # only the eta 0.3 trials train on incomplete data
        monkeypatch.setattr(tr, "train", aborting_train(lambda d, _: not d.is_complete()))
        sweep = ev.run_trials(ds, model_cfg, train_cfg,
                              ev.sweep_trials(train_cfg.weights, [0.0, 0.3], [1, 2]))
        assert [p.failures for p in sweep.points] == [0, 2]
        assert sweep.points[1].mean == {} and sweep.points[1].reports == []
        path = tmp_path / "sweep.csv"
        ev.emit_report(sweep.rows, path, fmt="csv")
        parsed = ev.parse_report_csv(path)
        assert [(r["eta"], r["status"]) for r in parsed] == [
            (0.0, "ok"), (0.0, "ok"), (0.3, "failed"), (0.3, "failed"),
            (0.0, "aggregate-mean"), (0.0, "aggregate-std")]


def test_write_table_cells(tmp_path):
    """None is empty, a float (numpy's too) is its exact repr, a list's cells are
    joined by ";", and other values are written as csv writes them."""
    path = tmp_path / "t.csv"
    ev.write_table(path, ["none", "float", "np", "list", "int", "text"],
                   [[None, 0.1, np.float64(1 / 3), [1.5, np.float64(-0.0)], 3, "a,b"]])
    assert path.read_bytes() == (b"none,float,np,list,int,text\r\n"
                                 b',0.1,0.3333333333333333,1.5;-0.0,3,"a,b"\r\n')


class TestEmitReport:
    def test_empty_results_give_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        ev.emit_report([], path, fmt="csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == list(ev.REPORT_COLUMNS)

    def test_round_trip_numeric_fields(self, tmp_path):
        report = ev.MetricsReport(acc=1 / 3, weighted_f1=0.123456789012345678,
                                  macro_f1=np.pi / 4, f1=0.5, auc=2 / 3,
                                  confusion=[[1, 0], [0, 1]], n_subjects=2)
        row = ev.TrialRow("ds", "v", 0.1, 7, md.LossWeights(0.01, 0.1, 1.0, 9.0), report)
        path = tmp_path / "r.csv"
        ev.emit_report([row], path, fmt="csv")
        parsed = ev.parse_report_csv(path)
        assert parsed[0]["acc"] == report.acc
        assert parsed[0]["weighted_f1"] == report.weighted_f1
        assert parsed[0]["auc"] == report.auc

    def test_row_counts_with_aggregates(self, tmp_path):
        ds, model_cfg, train_cfg = fast_runner_setup()
        sweep = ev.run_trials(ds, model_cfg, train_cfg,
                              ev.sweep_trials(train_cfg.weights, [0.0, 0.3], [1, 2, 3]))
        path = tmp_path / "sweep.csv"
        ev.emit_report(sweep.rows, path, fmt="csv")
        parsed = ev.parse_report_csv(path)
        data_rows = [r for r in parsed if r["status"] == "ok"]
        agg_rows = [r for r in parsed if str(r["status"]).startswith("aggregate")]
        assert len(data_rows) == 6
        assert len(agg_rows) == 4  # mean+std per eta

    def test_json_mirror(self, tmp_path):
        import json

        ds, model_cfg, train_cfg = fast_runner_setup()
        sweep = ev.run_trials(ds, model_cfg, train_cfg,
                              ev.sweep_trials(train_cfg.weights, [0.0], [1]))
        path = tmp_path / "sweep.json"
        ev.emit_report(sweep.rows, path, fmt="json")
        doc = json.loads(path.read_text())
        assert doc["columns"] == list(ev.REPORT_COLUMNS)
        assert doc["rows"][0]["acc"] == sweep.rows[0].report.acc
