"""End-to-end command-line behavior: exit codes, manifests, reproducibility."""

import csv
import json
import os
import warnings

import numpy as np
import pytest

from clclsa import cli
from clclsa import data as dt
from clclsa import train as tr
from tests.test_train import raising_stub


def run(argv):
    return cli.dispatch(argv)


SYNTH_ARGS = ["--n", "60", "--views", "3", "--classes", "2", "--dims", "6,6,6",
              "--shared-dim", "6", "--sep", "1.5", "--seed", "7"]

TRAIN_ARGS = ["--seed", "3", "--epochs", "8", "--initial-lr", "1e-3",
              "--lr-schedule", "constant", "--lambda-al", "0.01",
              "--lambda-co", "0.1", "--lambda-cl", "0.01",
              "--set", "model.embed_dims=[4,4,4]", "--set", "model.ae_hidden=[4,3]",
              "--set", "model.dropout_p=0.1"]


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run(["synth", *SYNTH_ARGS, "--out", str(out)]) == 0
    return out


class TestSynthTrainEval:
    def test_smoke_pipeline_produces_metrics(self, tmp_path, synth_dir, capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(synth_dir), "--out", str(run_dir),
                    *TRAIN_ARGS]) == 0
        checkpoint = run_dir / "checkpoint.ckpt"
        assert checkpoint.exists()
        assert (run_dir / "epochs.csv").exists()
        assert (run_dir / "run_manifest.json").exists()
        metrics = tmp_path / "metrics.json"
        assert run(["eval", "--checkpoint", str(checkpoint), "--data", str(synth_dir),
                    "--out", str(metrics)]) == 0
        doc = json.loads(metrics.read_text())
        assert 0.0 <= doc["acc"] <= 1.0
        assert doc["n_subjects"] == 60

    def test_epoch_log_columns(self, tmp_path, synth_dir):
        run_dir = tmp_path / "run"
        run(["train", "--data", str(synth_dir), "--out", str(run_dir), *TRAIN_ARGS])
        header = (run_dir / "epochs.csv").read_text().splitlines()[0]
        assert header.split(",") == ["epoch", "l_clf", "l_al", "l_co", "l_cl",
                                     "total", "lr", "latent_variance", "train_acc"]

    def test_eval_every_fills_train_acc_on_every_second_epoch(self, tmp_path, synth_dir):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(synth_dir), "--out", str(run_dir), *TRAIN_ARGS,
                    "--set", "train.eval_every=2"]) == 0
        with open(run_dir / "epochs.csv", newline="") as fh:
            accs = [row["train_acc"] for row in csv.DictReader(fh)]
        assert len(accs) == 8
        assert accs[0::2] == [""] * 4
        assert all(0.0 <= float(acc) <= 1.0 for acc in accs[1::2])


class TestSeedContract:
    def test_train_without_seed_is_usage_error(self, synth_dir, tmp_path, capsys):
        code = run(["train", "--data", str(synth_dir), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_every_stochastic_subcommand_requires_seed(self, capsys):
        for command in ("ablate", "grid", "mask", "surface", "sweep", "synth", "train"):
            code = run([command, "--out", "/tmp/nowhere", "--data", "/tmp/nowhere",
                        "--etas", "0.1", "--fix", "lambda_al=0.1",
                        "--vary", "lambda_co=0.1", "--vary", "lambda_cl=0.1",
                        "--eta", "0.1"][0:None if command != "synth" else 3])
            assert code == 1, command
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, synth_dir, tmp_path, capsys):
        assert run(["synth", "--seed", "1", "--out", str(tmp_path / "y"),
                    "--no-such-flag"]) == 1
        capsys.readouterr()


class TestDeterminism:
    def test_rerun_reproduces_all_numbers(self, tmp_path, synth_dir):
        outs = []
        for tag in ("a", "b"):
            run_dir = tmp_path / tag
            assert run(["train", "--data", str(synth_dir), "--out", str(run_dir),
                        *TRAIN_ARGS]) == 0
            outs.append(run_dir)
        ck_a = (outs[0] / "checkpoint.ckpt").read_bytes()
        ck_b = (outs[1] / "checkpoint.ckpt").read_bytes()
        assert ck_a == ck_b
        assert (outs[0] / "epochs.csv").read_bytes() == (outs[1] / "epochs.csv").read_bytes()

    def test_manifests_agree_except_timing(self, tmp_path, synth_dir):
        manifests = []
        for tag in ("a", "b"):
            run_dir = tmp_path / tag
            run(["train", "--data", str(synth_dir), "--out", str(run_dir), *TRAIN_ARGS])
            manifests.append(json.loads((run_dir / "run_manifest.json").read_text()))
        for doc in manifests:
            doc.pop("duration_seconds")
            doc["artifacts"] = [os.path.basename(p) for p in doc["artifacts"]]
        assert manifests[0] == manifests[1]

    def test_synth_rerun_is_bitwise(self, tmp_path):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["synth", *SYNTH_ARGS, "--out", str(out)]) == 0
            dirs.append(out)
        for name in ("view0.csv", "view1.csv", "view2.csv", "labels.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path, synth_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"epochs": 3, "initial_lr": 1e-3,
                                                "lr_schedule": "constant"},
                                      "model": {"embed_dims": [4, 4, 4],
                                                "ae_hidden": [4, 3],
                                                "dropout_p": 0.1}}))
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(synth_dir), "--out", str(run_dir),
                    "--config", str(config), "--seed", "1", "--epochs", "5"]) == 0
        resolved = json.loads((run_dir / "config.json").read_text())
        assert resolved["train"]["epochs"] == 5
        assert resolved["train"]["initial_lr"] == 1e-3
        manifest = json.loads((run_dir / "run_manifest.json").read_text())
        assert manifest["resolved_config"]["train"]["epochs"] == 5

    @pytest.mark.parametrize("command, flag, leaf, values", [
        ("train", "--lambda-al", "train.weights.lambda_al", (0.3, 0.2, 0.1)),
        ("synth", "--n", "synth.n_subjects", (50, 45, 40)),
        ("mask", "--eta", "mask.eta", (0.3, 0.2, 0.1)),
    ], ids=["train", "synth", "mask"])
    def test_flag_beats_set_beats_config(self, tmp_path, synth_dir, command, flag, leaf,
                                         values):
        """A flag sets the config leaf it names, over --set, which is over --config."""
        in_config, in_set, in_flag = values
        doc = in_config
        for part in reversed(leaf.split(".")):
            doc = {part: doc}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = [command, "--seed", "1", "--config", str(config)]
        if command != "synth":
            argv += ["--data", str(synth_dir)]
        if command == "train":
            argv += ["--epochs", "1", *TRAIN_ARGS[-6:]]
        set_leaf = ["--set", f"{leaf}={in_set}"]
        for tag, extra, want in (("config", [], in_config), ("set", set_leaf, in_set),
                                 ("flag", [*set_leaf, flag, str(in_flag)], in_flag)):
            out = tmp_path / tag
            assert run([*argv, "--out", str(out), *extra]) == 0
            resolved = json.loads((out / "run_manifest.json").read_text())["resolved_config"]
            for part in leaf.split("."):
                resolved = resolved[part]
            assert resolved == want, tag

    def test_set_overrides_leaf(self, tmp_path, synth_dir):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(synth_dir), "--out", str(run_dir),
                    "--seed", "1", "--epochs", "2", "--lr-schedule", "constant",
                    "--set", "model.embed_dims=[4,4,4]", "--set", "model.ae_hidden=[4,3]",
                    "--set", "train.reduction=sum"]) == 0
        resolved = json.loads((run_dir / "config.json").read_text())
        assert resolved["train"]["reduction"] == "sum"


class TestMaskCommand:
    def test_mask_writes_mask_file(self, tmp_path, synth_dir):
        out = tmp_path / "masked"
        assert run(["mask", "--data", str(synth_dir), "--eta", "0.4", "--seed", "2",
                    "--out", str(out)]) == 0
        assert (out / "mask.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["missingness"]["eta"] == 0.4

    def test_masked_dataset_trains(self, tmp_path, synth_dir):
        masked = tmp_path / "masked"
        run(["mask", "--data", str(synth_dir), "--eta", "0.3", "--seed", "2",
             "--out", str(masked)])
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(masked), "--out", str(run_dir),
                    *TRAIN_ARGS]) == 0


class TestSweepCommand:
    def test_sweep_emits_report(self, tmp_path, synth_dir):
        out = tmp_path / "sweep"
        assert run(["sweep", "--data", str(synth_dir), "--out", str(out),
                    "--etas", "0.0,0.4", "--seeds", "1,2", *TRAIN_ARGS[2:],
                    "--seed", "1", "--epochs", "4"]) == 0
        report = (out / "sweep.csv").read_text().splitlines()
        assert report[0].split(",")[0] == "dataset"
        assert len([l for l in report[1:] if ",ok" in l]) == 4


class TestGridCommand:
    def test_grid_ranks_and_reports(self, tmp_path, synth_dir):
        out = tmp_path / "grid"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "grid": {"lambda_al_values": [0.0], "lambda_co_values": [0.0, 0.1],
                     "lambda_cl_values": [0.0]},
            "model": {"embed_dims": [4, 4, 4], "ae_hidden": [4, 3], "dropout_p": 0.1},
            "train": {"epochs": 3, "initial_lr": 1e-3, "lr_schedule": "constant"}}))
        assert run(["grid", "--data", str(synth_dir), "--out", str(out),
                    "--config", str(config), "--seed", "4"]) == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert len(lines) == 2  # complete data: lambda_co collapses to {0}


class TestAblateAndSurface:
    def test_ablate_runs_variants(self, tmp_path, synth_dir):
        out = tmp_path / "abl"
        assert run(["ablate", "--data", str(synth_dir), "--out", str(out),
                    "--etas", "0.3", "--seeds", "1", *TRAIN_ARGS[2:],
                    "--seed", "1", "--epochs", "3"]) == 0
        text = (out / "ablation.csv").read_text()
        for variant in ("plain", "ctst", "aux", "ctst+aux"):
            assert variant in text

    def test_surface_requires_two_vary_grids(self, tmp_path, synth_dir, capsys):
        code = run(["surface", "--data", str(synth_dir), "--out", str(tmp_path / "s"),
                    "--seed", "1", "--fix", "lambda_al=0.1",
                    "--vary", "lambda_co=0.01,0.1", "--eta", "0.2"])
        assert code == 1
        capsys.readouterr()

    def test_surface_runs_cells(self, tmp_path, synth_dir):
        out = tmp_path / "surf"
        assert run(["surface", "--data", str(synth_dir), "--out", str(out),
                    "--seed", "1", "--fix", "lambda_al=0.0",
                    "--vary", "lambda_co=0.0", "--vary", "lambda_cl=0.0,0.01",
                    "--eta", "0.3", *TRAIN_ARGS[2:], "--epochs", "3"]) == 0
        rows = [l for l in (out / "surface.csv").read_text().splitlines()[1:] if l]
        assert len([l for l in rows if ",ok" in l]) == 2


class TestErrorExitCodes:
    def test_missing_dataset_is_runtime_error(self, tmp_path, capsys):
        code = run(["train", "--data", str(tmp_path / "nope"), "--out",
                    str(tmp_path / "run"), "--seed", "1"])
        assert code == 2
        capsys.readouterr()

    def test_numeric_abort_exits_two(self, tmp_path, synth_dir, capsys):
        masked = tmp_path / "masked"
        run(["mask", "--data", str(synth_dir), "--eta", "0.4", "--seed", "2",
             "--out", str(masked)])
        run_dir = tmp_path / "run"
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = run(["train", "--data", str(masked), "--out", str(run_dir),
                        "--seed", "3", "--epochs", "50", "--initial-lr", "1e200",
                        "--lr-schedule", "constant", "--lambda-co", "1.0",
                        "--set", "model.embed_dims=[4,4,4]",
                        "--set", "model.ae_hidden=[4,3]"])
        assert code == 2
        # the last-good checkpoint is still written
        assert (run_dir / "checkpoint.ckpt").exists()
        capsys.readouterr()


class TestUsageErrors:
    @pytest.mark.parametrize("command, key", [
        ("train", "model.foo"),
        ("train", "train.epoch"),
        ("train", "train.weights.lambda_xx"),
        ("synth", "synth.foo"),
        ("grid", "grid.foo"),
    ])
    def test_unknown_config_key(self, tmp_path, synth_dir, capsys, command, key):
        argv = [command, "--seed", "1", "--out", str(tmp_path / "out"), "--set", f"{key}=1"]
        if command != "synth":
            argv += ["--data", str(synth_dir), "--epochs", "1", *TRAIN_ARGS[-6:]]
        assert run(argv) == 1
        assert key in capsys.readouterr().err

    def test_unknown_section_via_set(self, tmp_path, synth_dir, capsys):
        assert run(["train", "--data", str(synth_dir), "--out", str(tmp_path / "out"),
                    "--epochs", "1", "--seed", "1", "--set", "trian.epochs=3"]) == 1
        assert "trian" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_section_in_config_file(self, tmp_path, synth_dir, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"epochs": 1}, "trian": {"epochs": 3}}))
        assert run(["train", "--data", str(synth_dir), "--out", str(tmp_path / "out"),
                    "--seed", "1", "--config", str(config)]) == 1
        assert "trian" in capsys.readouterr().err

    def test_unknown_mask_key(self, tmp_path, synth_dir, capsys):
        assert run(["mask", "--data", str(synth_dir), "--out", str(tmp_path / "out"),
                    "--seed", "1", "--set", "mask.etaa=0.3"]) == 1
        assert "mask.etaa" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["sweep", "--etas", "a,b"],
        ["sweep", "--etas", "0.1", "--seeds", "x"],
        ["synth", "--dims", "x,y"],
        ["surface", "--eta", "0.2", "--fix", "lambda_al",
         "--vary", "lambda_co=0.1", "--vary", "lambda_cl=0.1"],
        ["surface", "--eta", "0.2", "--fix", "lambda_al=0.1",
         "--vary", "lambda_co", "--vary", "lambda_cl=0.1"],
        ["sweep", "--etas", "0.4,0.2"],
        ["ablate", "--etas", "0.4,0.2"],
    ], ids=["etas", "seeds", "dims", "fix", "vary", "etas_unsorted", "ablate_etas_unsorted"])
    def test_malformed_flag_value(self, tmp_path, synth_dir, capsys, flags):
        argv = [*flags, "--seed", "1", "--out", str(tmp_path / "out")]
        if flags[0] != "synth":
            argv += ["--data", str(synth_dir), "--epochs", "1"]
        assert run(argv) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--set", "train.lr_decay_every=0"], "lr_decay_every must be >= 1"),
        ("grid", ["--set", "grid.metric=auc"], "metric must be one of"),
        ("train", ["--epochs", "0"], "epochs must be >= 1"),
        ("train", ["--set", "model.dropout_p=1.5"], "dropout_p must be in [0, 1)"),
        ("mask", ["--eta", "1.5"], "mask:"),
    ], ids=["lr_decay_every", "grid_metric", "epochs", "dropout", "eta"])
    def test_config_value_rejected_by_its_constructor(self, tmp_path, synth_dir, capsys,
                                                      command, flags, message):
        argv = [command, "--data", str(synth_dir), "--seed", "1",
                "--out", str(tmp_path / "out"), *flags]
        assert run(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy", ["foo", "drop:x"])
    def test_malformed_mask_policy(self, tmp_path, synth_dir, capsys, monkeypatch, policy):
        monkeypatch.setattr(dt, "load_dataset_dir", raising_stub("load_dataset_dir"))
        out = tmp_path / "out"
        assert run(["mask", "--data", str(synth_dir), "--seed", "1", "--out", str(out),
                    "--eta", "0.3", "--policy", policy]) == 1
        assert repr(policy) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--config", "f.json"], ["--set", "a=1"]],
                             ids=["config", "set"])
    def test_eval_takes_no_config(self, tmp_path, synth_dir, capsys, flag):
        assert run(["eval", "--checkpoint", str(tmp_path / "ck.ckpt"),
                    "--data", str(synth_dir), *flag]) == 1
        capsys.readouterr()


SURFACE_AXES = ["--fix", "lambda_al=0.1", "--vary", "lambda_co=0.1", "--vary", "lambda_cl=0.1"]


class TestBatchNormSettings:
    @pytest.mark.parametrize("setting", ["model.bn_eps=-1", "model.bn_momentum=5"])
    def test_rejected_before_training(self, tmp_path, synth_dir, capsys, monkeypatch,
                                      setting):
        monkeypatch.setattr(tr, "train", raising_stub("train"))
        out = tmp_path / "out"
        assert run(["train", "--data", str(synth_dir), "--seed", "1", "--out", str(out),
                    "--set", setting]) == 1
        assert setting.split(".")[1].split("=")[0] in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedRunValues:
    @pytest.mark.parametrize("flags", [
        ["sweep", "--etas", "0.2", "--seeds", "0,1,0"],
        ["sweep", "--etas", "0.2,0.2"],
        ["ablate", "--seeds", "3,3"],
        ["ablate", "--etas", "0.2,0.4,0.4"],
        ["surface", "--eta", "0.2", *SURFACE_AXES[:4], "--vary", "lambda_cl=0.1,0.1"],
        ["surface", "--eta", "0.2", *SURFACE_AXES, "--seeds", "1,1"],
    ], ids=["sweep_seeds", "sweep_etas", "ablate_seeds", "ablate_etas", "surface_vary",
            "surface_seeds"])
    def test_usage_error_before_any_training(self, tmp_path, synth_dir, capsys, monkeypatch,
                                             flags):
        # each repeat would train the same trial twice and count it twice in its point
        monkeypatch.setattr(tr, "train", raising_stub("train"))
        out = tmp_path / "out"
        assert run([*flags, "--data", str(synth_dir), "--seed", "1", "--out", str(out)]) == 1
        assert "invalid" in capsys.readouterr().err
        assert not out.exists()


class TestRunValuesRejectedBeforeTraining:
    @pytest.mark.parametrize("flags, offending", [
        (["sweep", "--seeds", "0,1", "--etas", "0.0,0.2,0.4,1.5"], "1.5"),
        (["ablate", "--etas", "0.2,1.5"], "1.5"),
        (["grid", "--set", "grid.lambda_cl_values=[0.0,0.1,-1]"], "-1"),
        (["ablate", "--lambda-co-fixed", "-1"], "-1"),
        (["surface", "--eta", "1.5", *SURFACE_AXES], "1.5"),
        (["surface", "--eta", "0.2", "--fix", "lambda_al=-0.5", *SURFACE_AXES[2:]], "-0.5"),
        (["surface", "--eta", "0.2", *SURFACE_AXES[:4], "--vary", "lambda_cl=0.1,-2"], "-2"),
        (["surface", "--eta", "0.2", "--fix", "lambda_xx=0.1", *SURFACE_AXES[2:]],
         "lambda_xx"),
        (["surface", "--eta", "0.2", *SURFACE_AXES[:4], "--vary", "lambda_co=0.2"],
         "lambda_al, lambda_co, lambda_co"),
    ], ids=["sweep_eta", "ablate_eta", "grid_weight", "ablate_weight", "surface_eta",
            "surface_fix_weight", "surface_vary_weight", "surface_fix_name",
            "surface_vary_twice"])
    def test_exit_one_before_any_training(self, tmp_path, synth_dir, capsys, monkeypatch,
                                          flags, offending):
        monkeypatch.setattr(tr, "train", raising_stub("train"))
        out = tmp_path / "out"
        assert run([*flags, "--data", str(synth_dir), "--seed", "1", "--out", str(out)]) == 1
        assert offending in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["train"], ["sweep", "--etas", "0.2"], ["grid"], ["ablate"],
        ["surface", "--eta", "0.2", *SURFACE_AXES],
    ], ids=["train", "sweep", "grid", "ablate", "surface"])
    def test_model_must_fit_the_data(self, tmp_path, synth_dir, capsys, monkeypatch, flags):
        monkeypatch.setattr(tr, "train", raising_stub("train"))
        out = tmp_path / "out"
        assert run([*flags, "--data", str(synth_dir), "--seed", "1", "--out", str(out),
                    "--set", "model.num_classes=4"]) == 1
        err = capsys.readouterr().err
        assert "classes 4" in err and "has 2" in err
        assert not out.exists()

    def test_fractional_width_is_usage_error_before_training(self, tmp_path, synth_dir,
                                                            capsys, monkeypatch):
        """Once truncated to a 4-wide model while config.json recorded 4.7."""
        monkeypatch.setattr(tr, "train", raising_stub("train"))
        out = tmp_path / "out"
        assert run(["train", "--data", str(synth_dir), "--seed", "1", "--out", str(out),
                    "--set", "model.embed_dims=[4.7,4.7,4.7]"]) == 1
        assert "model: embed_dims takes integers only, got 4.7" in capsys.readouterr().err
        assert not out.exists()


class TestEvalCheckpointMatchesData:
    def test_class_count_mismatch_is_usage_error(self, tmp_path, synth_dir, capsys):
        four = tmp_path / "four"
        assert run(["synth", *SYNTH_ARGS[:4], "--classes", "4", *SYNTH_ARGS[6:],
                    "--out", str(four)]) == 0
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(four), "--out", str(run_dir), *TRAIN_ARGS]) == 0
        capsys.readouterr()
        code = run(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                    "--data", str(synth_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert "classes 4" in err and "has 2" in err

    def test_input_width_mismatch_is_usage_error(self, tmp_path, synth_dir, capsys):
        other = tmp_path / "wide"
        assert run(["synth", *SYNTH_ARGS[:6], "--dims", "6,6,7", *SYNTH_ARGS[8:],
                    "--out", str(other)]) == 0
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(synth_dir), "--out", str(run_dir),
                    *TRAIN_ARGS]) == 0
        capsys.readouterr()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                    "--data", str(other)]) == 1
        assert "(6, 6, 6)" in capsys.readouterr().err

    def test_metrics_beside_another_runs_manifest_rejected(self, tmp_path, synth_dir,
                                                           capsys):
        run_dir = tmp_path / "run"
        assert run(["train", "--data", str(synth_dir), "--out", str(run_dir),
                    *TRAIN_ARGS]) == 0
        before = (run_dir / "run_manifest.json").read_bytes()
        assert run(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                    "--data", str(synth_dir), "--out", str(run_dir / "metrics.json")]) == 1
        assert "train run" in capsys.readouterr().err
        assert (run_dir / "run_manifest.json").read_bytes() == before
        assert not (run_dir / "metrics.json").exists()


class TestGridManifest:
    def test_records_val_fraction(self, tmp_path, synth_dir):
        out = tmp_path / "grid"
        assert run(["grid", "--data", str(synth_dir), "--out", str(out), "--seed", "4",
                    "--epochs", "2", *TRAIN_ARGS[-6:],
                    "--set", "grid.lambda_al_values=[0.0]",
                    "--set", "grid.lambda_cl_values=[0.0]",
                    "--set", "grid.val_fraction=0.25"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["resolved_config"]["grid"]["val_fraction"] == 0.25


class TestManifestEnvironment:
    def test_every_manifest_records_the_environment(self, tmp_path, synth_dir, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "train"
        assert run(["train", "--data", str(synth_dir), "--out", str(out), *TRAIN_ARGS]) == 0
        metrics = tmp_path / "eval" / "metrics.json"
        assert run(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                    "--data", str(synth_dir), "--out", str(metrics)]) == 0
        eval_manifest = json.loads((metrics.parent / "run_manifest.json").read_text())
        assert eval_manifest["command"] == "eval"
        assert eval_manifest["artifacts"] == [str(metrics)]
        assert str(out / "checkpoint.ckpt") in eval_manifest["input_digests"]
        for manifest_dir in (synth_dir, out, metrics.parent):
            env = json.loads((manifest_dir / "run_manifest.json").read_text())["environment"]
            assert set(env) == {"python", "numpy", "blas", "thread_env", "platform",
                                "usable_cpus", "git_revision"}
            assert env["git_revision"] == cli._git_revision(cli.SOURCE_ROOT)
            assert env["numpy"] == np.__version__
            assert env["python"].count(".") == 2
            assert set(env["blas"]) == {"name", "version"}
            assert set(env["thread_env"]) == set(cli.THREAD_VARS) and len(cli.THREAD_VARS) == 6
            assert env["platform"] and isinstance(env["platform"], str)
            assert isinstance(env["usable_cpus"], int) and env["usable_cpus"] >= 1
        assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["thread_env"]["MKL_NUM_THREADS"] is None


class TestGitRevision:
    SHA = "0123456789abcdef0123456789abcdef01234567"

    def _checkout(self, root, head):
        (root / ".git" / "refs" / "heads").mkdir(parents=True)
        (root / ".git" / "HEAD").write_text(head + "\n")
        return root / ".git"

    def test_branch_ref(self, tmp_path):
        git = self._checkout(tmp_path, "ref: refs/heads/main")
        (git / "refs" / "heads" / "main").write_text(self.SHA + "\n")
        assert cli._git_revision(tmp_path) == self.SHA

    def test_packed_ref(self, tmp_path):
        git = self._checkout(tmp_path, "ref: refs/heads/main")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{'f' * 40} refs/heads/other\n{self.SHA} refs/heads/main\n")
        assert cli._git_revision(tmp_path) == self.SHA

    def test_detached_head(self, tmp_path):
        self._checkout(tmp_path, self.SHA)
        assert cli._git_revision(tmp_path) == self.SHA

    def test_outside_a_checkout_is_none(self, tmp_path):
        assert cli._git_revision(tmp_path) is None

    def test_unborn_branch_is_none(self, tmp_path):
        self._checkout(tmp_path, "ref: refs/heads/main")
        assert cli._git_revision(tmp_path) is None

    def test_this_checkout(self):
        """Run from a git checkout, the manifest names a full commit id."""
        if not os.path.isdir(os.path.join(cli.SOURCE_ROOT, ".git")):
            pytest.skip("the package does not run from a git checkout")
        revision = cli._git_revision(cli.SOURCE_ROOT)
        assert len(revision) == 40 and set(revision) <= set("0123456789abcdef")
