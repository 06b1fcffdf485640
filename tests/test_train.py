"""Training loop, schedule, ablation wiring, grid search."""

import json
import warnings
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest

from clclsa import data as dt
from clclsa import model as md
from clclsa import train as tr

TINY_MODEL = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.1)


def tiny_dataset(n=24, seed=0, eta=0.0):
    spec = dt.SyntheticSpec(n_subjects=n, n_views=3, view_dims=(6, 6, 6),
                            class_count=2, shared_dim=6, snr=5.0, class_sep=1.5,
                            seed=seed)
    ds = dt.synth_generate(spec)
    if eta > 0:
        ds = dt.apply_missingness(ds, dt.MissingnessSpec(eta=eta, seed=seed + 100))
    return ds


def raising_stub(name):
    """A stand-in for code that must not run (such as a switched-off loss term):
    calling it fails the test."""
    def stub(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return stub


def aborting_train(fails):
    """A `train.train` that aborts the trials `fails(train_ds, cfg)` picks."""
    original = tr.train

    def train(train_ds, model_config, cfg):
        if fails(train_ds, cfg):
            raise tr.TrainingAborted("l_cl", 3, None, [])
        return original(train_ds, model_config, cfg)
    return train


def quick_config(**kw):
    base = dict(epochs=20, initial_lr=1e-3, lr_schedule="constant", seed=0,
                weights=md.LossWeights(0.1, 0.1, 0.01, 9.0))
    base.update(kw)
    return tr.TrainConfig(**base)


class TestConfigJson:
    def test_configs_round_trip_through_json(self):
        cfg = quick_config(batch_size=8, reduction="sum")
        doc = json.loads(json.dumps(asdict(cfg)))
        doc["weights"] = md.LossWeights(**doc["weights"])
        assert tr.TrainConfig(**doc) == cfg
        model = md.preset("rosmap")
        assert md.ModelConfig(**json.loads(json.dumps(asdict(model)))) == model


class TestLrSchedule:
    def test_initial(self):
        assert tr.lr_at(0, tr.TrainConfig()) == 1e-4

    def test_first_decay_step(self):
        assert tr.lr_at(500, tr.TrainConfig()) == pytest.approx(2e-5)

    def test_last_epoch_of_default_budget(self):
        assert tr.lr_at(2499, tr.TrainConfig()) == pytest.approx(1e-4 * 0.2 ** 4)

    def test_constant_schedule(self):
        cfg = tr.TrainConfig(lr_schedule="constant", initial_lr=3e-3)
        assert tr.lr_at(1234, cfg) == 3e-3

    def test_decay_interval_below_one_rejected(self):
        for every in (0, -3):
            with pytest.raises(ValueError, match="lr_decay_every"):
                tr.TrainConfig(lr_decay_every=every)

    def test_nonpositive_decay_factor_rejected(self):
        for factor in (0.0, -1.0):
            with pytest.raises(ValueError, match="lr_decay_factor"):
                tr.TrainConfig(lr_decay_factor=factor)


class TestTrain:
    def test_zero_weights_reduce_to_classification(self):
        ds = tiny_dataset()
        cfg = quick_config(weights=md.LossWeights(0, 0, 0, 9.0), epochs=5)
        _, logs = tr.train(ds, TINY_MODEL, cfg)
        for entry in logs:
            assert entry.breakdown.total == entry.breakdown.l_clf
            assert entry.breakdown.l_al == entry.breakdown.l_co == entry.breakdown.l_cl == 0.0

    def test_eval_every_logs_training_accuracy(self):
        """Every second epoch logs the training-set accuracy `predict` gives for
        the parameters after that epoch; the other epochs log none."""
        ds = tiny_dataset(eta=0.3)
        cfg = quick_config(epochs=5, eval_every=2)
        _, logs = tr.train(ds, TINY_MODEL, cfg)
        assert [e.train_acc is not None for e in logs] == [False, True, False, True, False]
        for entry in logs[1::2]:
            params, _ = tr.train(ds, TINY_MODEL, replace(cfg, epochs=entry.epoch + 1,
                                                         eval_every=0))
            _, pred = md.predict(ds.views, ds.mask, params)
            assert entry.train_acc == float((pred == ds.labels).mean())

    def test_loss_descends_on_separable_data(self):
        """Total loss strictly decreases over the first 20 epochs for most seeds.

        Dropout off: the full-batch loss must be deterministic for strict
        monotonicity to be a meaningful check.
        """
        model = md.ModelConfig(3, (6, 6, 6), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.0)
        good = 0
        for seed in range(5):
            ds = tiny_dataset(n=60, seed=seed)
            cfg = quick_config(seed=seed, epochs=20,
                               weights=md.LossWeights(0.01, 0.0, 0.01, 9.0))
            _, logs = tr.train(ds, model, cfg)
            totals = [e.breakdown.total for e in logs]
            if all(b < a for a, b in zip(totals, totals[1:])):
                good += 1
        assert good >= 4

    def test_mini_batch_epoch_logs_batch_means(self, monkeypatch):
        seen = []
        build = md.build_objective

        def recording(*args, **kwargs):
            total, breakdown, cache = build(*args, **kwargs)
            seen.append([*astuple(breakdown), *md.latent_variances(cache)])
            return total, breakdown, cache

        monkeypatch.setattr(md, "build_objective", recording)
        ds = tiny_dataset(eta=0.3)
        _, logs = tr.train(ds, TINY_MODEL, quick_config(epochs=3, batch_size=8))
        assert len(seen) == 9
        for entry, batches in zip(logs, np.split(np.array(seen), 3)):
            logged = [*astuple(entry.breakdown), *entry.latent_variance]
            np.testing.assert_allclose(logged, batches.mean(axis=0), rtol=1e-14, atol=0)
            assert logged != list(batches[-1])
        seen.clear()
        _, logs = tr.train(ds, TINY_MODEL, quick_config(epochs=3, batch_size=ds.n_subjects))
        assert len(seen) == 3
        for entry, values in zip(logs, seen):
            assert [*astuple(entry.breakdown), *entry.latent_variance] == values

    def test_bitwise_deterministic(self):
        ds = tiny_dataset(eta=0.3)
        cfg = quick_config(epochs=10)
        p1, logs1 = tr.train(ds, TINY_MODEL, cfg)
        p2, logs2 = tr.train(ds, TINY_MODEL, cfg)
        assert logs1[-1].breakdown.total == logs2[-1].breakdown.total
        for name, t in p1.tensors().items():
            np.testing.assert_array_equal(t.data, p2[name].data)

    def test_returns_parameters_without_gradients(self):
        params, _ = tr.train(tiny_dataset(eta=0.3), TINY_MODEL, quick_config(epochs=2))
        assert all(t.grad is None for t in params.tensors().values())

    def test_one_log_entry_per_epoch(self):
        ds = tiny_dataset()
        _, logs = tr.train(ds, TINY_MODEL, quick_config(epochs=7))
        assert [e.epoch for e in logs] == list(range(7))

    def test_complete_data_forces_lambda_co_to_zero(self):
        ds = tiny_dataset(eta=0.0)
        cfg = quick_config(weights=md.LossWeights(0.0, 0.5, 0.0, 9.0), epochs=3)
        _, logs = tr.train(ds, TINY_MODEL, cfg)
        assert all(e.breakdown.l_co == 0.0 for e in logs)

    def test_incomplete_data_keeps_lambda_co(self):
        ds = tiny_dataset(n=40, eta=0.4)
        cfg = quick_config(weights=md.LossWeights(0.0, 0.5, 0.0, 9.0), epochs=3)
        _, logs = tr.train(ds, TINY_MODEL, cfg)
        assert logs[0].breakdown.l_co > 0.0

    def test_latent_variance_diagnostic_logged(self):
        ds = tiny_dataset()
        _, logs = tr.train(ds, TINY_MODEL, quick_config(epochs=2))
        assert len(logs[0].latent_variance) == 3
        assert all(v >= 0 for v in logs[0].latent_variance)

    def test_one_optimizer_step_per_epoch_in_full_batch_mode(self, monkeypatch):
        import clclsa.train as train_module

        states = []
        original = train_module.adam_step

        def counting(params, grads, state, lr):
            states.append(state)
            return original(params, grads, state, lr)

        monkeypatch.setattr(train_module, "adam_step", counting)
        ds = tiny_dataset()
        tr.train(ds, TINY_MODEL, quick_config(epochs=7))
        assert len(states) == 7
        assert states[0].t == 7  # one shared state, stepped once per epoch

    def test_minibatch_mode_runs(self):
        ds = tiny_dataset(n=30)
        cfg = quick_config(epochs=3, batch_size=8)
        params, logs = tr.train(ds, TINY_MODEL, cfg)
        assert len(logs) == 3

    def test_non_finite_loss_aborts_with_last_good_state(self):
        ds = tiny_dataset(n=30, eta=0.4)
        cfg = quick_config(epochs=200, initial_lr=1e200,
                           weights=md.LossWeights(0.1, 1.0, 0.01, 9.0))
        with pytest.raises(tr.TrainingAborted) as info, np.errstate(all="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tr.train(ds, TINY_MODEL, cfg)
        exc = info.value
        assert exc.term
        assert exc.params is not None
        for t in exc.params.tensors().values():
            assert np.isfinite(t.data).all()

    def test_aborted_step_leaves_batch_norm_statistics_as_before_it(self):
        ds = tiny_dataset(n=30, eta=0.4)
        cfg = quick_config(epochs=2, initial_lr=1e200,
                           weights=md.LossWeights(0.01, 0.1, 0.01, 9.0))
        with pytest.raises(tr.TrainingAborted) as info, np.errstate(all="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tr.train(ds, TINY_MODEL, cfg)
        exc = info.value
        assert exc.epoch == 1
        before, _ = tr.train(ds, TINY_MODEL, replace(cfg, epochs=1))
        assert exc.params.bn_states.keys() == before.bn_states.keys()
        for name, st in exc.params.bn_states.items():
            want = before.bn_states[name]
            for got, expected in ((st.running_mean, want.running_mean),
                                  (st.running_var, want.running_var)):
                assert np.isfinite(got).all(), name
                assert got.tobytes() == expected.tobytes(), name


class TestAblationEquivalence:
    def test_zero_weight_equals_disabled_code_path(self, monkeypatch):
        """lambda_x = 0 is bitwise identical to removing term x entirely: the run
        completes with the term's loss function replaced by one that raises."""
        ds = tiny_dataset(n=30, eta=0.3)
        for loss_fn, weights_zero in (
            ("loss_cross_omics", md.LossWeights(0.1, 0.0, 0.01, 9.0)),
            ("loss_contrastive", md.LossWeights(0.1, 0.1, 0.0, 9.0)),
            ("loss_auxiliary", md.LossWeights(0.0, 0.1, 0.01, 9.0)),
        ):
            cfg_zero = quick_config(weights=weights_zero, epochs=20)
            p_zero, _ = tr.train(ds, TINY_MODEL, cfg_zero)
            with monkeypatch.context() as m:
                m.setattr(md, loss_fn, raising_stub(loss_fn))
                p_disabled, _ = tr.train(ds, TINY_MODEL, cfg_zero)
            for name, t in p_zero.tensors().items():
                np.testing.assert_array_equal(
                    t.data, p_disabled[name].data,
                    err_msg=f"term {loss_fn}, parameter {name}")


class TestGridSearch:
    def test_trial_count_on_incomplete_data(self):
        ds = tiny_dataset(n=40, eta=0.4)
        grid = tr.GridSpec(lambda_al_values=(0.0, 0.1), lambda_co_values=(0.0, 0.1),
                           lambda_cl_values=(0.0, 0.1))
        result = tr.grid_search(ds, None, TINY_MODEL, grid, quick_config(epochs=2))
        assert len(result.trials) == 8

    def test_complete_data_collapses_lambda_co(self):
        ds = tiny_dataset(n=40, eta=0.0)
        grid = tr.GridSpec(lambda_al_values=(0.0, 0.1), lambda_co_values=(0.0, 0.1),
                           lambda_cl_values=(0.0, 0.1))
        result = tr.grid_search(ds, None, TINY_MODEL, grid, quick_config(epochs=2))
        assert len(result.trials) == 4
        assert all(t.weights.lambda_co == 0.0 for t in result.trials)

    def test_unknown_metric_rejected_before_any_training(self, tmp_path, monkeypatch,
                                                         capsys):
        from clclsa import cli

        dt.write_dataset(tiny_dataset(), str(tmp_path / "data"))
        monkeypatch.setattr(tr, "train", raising_stub("train"))
        code = cli.dispatch(["grid", "--data", str(tmp_path / "data"), "--seed", "1",
                             "--out", str(tmp_path / "out"), "--set", "grid.metric=auc"])
        assert code == 1
        assert "metric must be one of" in capsys.readouterr().err

    def test_negative_candidate_rejected(self):
        with pytest.raises(ValueError, match="lambda_cl must be >= 0, got -1"):
            tr.GridSpec(lambda_cl_values=(0.0, 0.1, -1))

    def test_tie_rule_picks_smallest_triple(self):
        trials = [
            tr.GridTrial(0, md.LossWeights(0.1, 0.1, 0.1), 0.9, "ok"),
            tr.GridTrial(1, md.LossWeights(0.0, 0.0, 0.0), 0.9, "ok"),
            tr.GridTrial(2, md.LossWeights(0.0, 0.1, 0.0), 0.9, "ok"),
        ]
        result = tr.GridSearchResult(trials=trials, best=None)
        ranked = result.ranked()
        assert ranked[0].weights == md.LossWeights(0.0, 0.0, 0.0)
        assert ranked[1].weights == md.LossWeights(0.0, 0.1, 0.0)

    def test_aborted_trial_recorded_and_left_out_of_best(self, monkeypatch):
        ds = tiny_dataset(n=40, eta=0.4)
        grid = tr.GridSpec(lambda_al_values=(0.0,), lambda_co_values=(0.1,),
                           lambda_cl_values=(0.0, 0.1))
        # the smaller triple would win a tie; abort it
        monkeypatch.setattr(tr, "train",
                            aborting_train(lambda _, cfg: cfg.weights.lambda_cl == 0.0))
        result = tr.grid_search(ds, None, TINY_MODEL, grid, quick_config(epochs=2))
        failed, ok = result.trials
        assert (failed.status, failed.metric) == ("failed", None)
        assert failed.detail.startswith("training aborted at epoch 3")
        assert ok.status == "ok" and ok.metric is not None
        assert result.ranked() == [ok] and result.best is ok

    def test_all_trials_aborted_leaves_no_best(self, monkeypatch):
        monkeypatch.setattr(tr, "train", aborting_train(lambda *_: True))
        grid = tr.GridSpec(lambda_al_values=(0.0,), lambda_co_values=(0.1,),
                           lambda_cl_values=(0.0, 0.1))
        result = tr.grid_search(tiny_dataset(n=40, eta=0.4), None, TINY_MODEL, grid,
                                quick_config(epochs=2))
        assert [t.status for t in result.trials] == ["failed", "failed"]
        assert result.best is None

    def test_failed_trials_excluded_from_ranking(self):
        trials = [
            tr.GridTrial(0, md.LossWeights(0.0, 0.0, 0.0), None, "failed", "boom"),
            tr.GridTrial(1, md.LossWeights(0.1, 0.0, 0.0), 0.5, "ok"),
        ]
        result = tr.GridSearchResult(trials=trials, best=None)
        ranked = result.ranked()
        assert len(ranked) == 1 and ranked[0].index == 1
