"""Command-line entry point.

Subcommands: synth, mask, train, eval, sweep, grid, ablate, surface. Every
subcommand except eval accepts --config FILE (JSON) and --set
section.key=value for any leaf field; a flag such as --epochs, --lambda-al or
--eta sets its own leaf (train.epochs, train.weights.lambda_al, mask.eta) and
takes precedence over both. Each writes a manifest recording the resolved
configuration, seeds, input digests, artifact paths, the environment
(Python, numpy, BLAS and the BLAS thread variables, platform, usable CPUs,
git revision), and duration; eval writes one beside its metrics file when
given --out. Stochastic subcommands
require an explicit --seed; re-running the same command line reproduces
every emitted number bitwise in single-thread mode.

Exit codes: 0 success, 1 usage error (including an unknown config section or
key, a config value its constructor rejects, a malformed flag value, --etas
out of ascending order, a missing rate outside [0, 1] or a negative loss
weight given to a runner, or a model or checkpoint whose views, widths or
classes do not match the data), 2 runtime/numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from . import data as dt
from . import evaluation as ev
from . import model as md
from . import train as tr


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage errors map to code 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


STOCHASTIC = {"synth", "mask", "train", "sweep", "grid", "ablate", "surface"}
SECTIONS = {"model", "train", "synth", "mask", "grid"}


# ---------------------------------------------------------------------------
# Config plumbing


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return doc


def _set_leaf(config, key, value):
    node = config
    *sections, leaf = key.split(".")
    for part in sections:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise UsageError(f"config key {key}: {part} is not a section")
    node[leaf] = value


def _apply_sets(config, assignments):
    for item in assignments or []:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set_leaf(config, key, value)
    return config


def _section(config, name):
    value = config.get(name, {})
    if not isinstance(value, dict):
        raise UsageError(f"config section {name!r} must be an object")
    return dict(value)


def _check_keys(section, known, prefix=""):
    for key in section:
        if key not in known:
            raise UsageError(f"unknown config key {prefix}{key}")


def _build(cls, section, name):
    """Construct `cls` from a config section; a key it has no field for or a
    value it rejects is a usage error."""
    _check_keys(section, {f.name for f in fields(cls)}, name + ".")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{name}: {exc}") from None


def _model_config(config, args, ds):
    section = _section(config, "model")
    if getattr(args, "preset", None):
        section = {**asdict(md.preset(args.preset)), **section}
    if "num_views" not in section:
        section.setdefault("num_views", ds.n_views)
        section.setdefault("input_dims", list(ds.view_dims))
        section.setdefault("num_classes", ds.class_count)
        section.setdefault("embed_dims", [16] * ds.n_views)
        section.setdefault("ae_hidden", [16, 8])
        section.setdefault("dropout_p", 0.1)
    return _build(md.ModelConfig, section, "model"), section


def _train_config(config, args):
    section = _section(config, "train")
    section["weights"] = _build(md.LossWeights, _section(section, "weights"), "train.weights")
    section["seed"] = args.seed if args.seed is not None else section.get("seed", 0)
    return _build(tr.TrainConfig, section, "train")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


# the bitwise re-run contract holds at one BLAS thread; manifests record these
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count()


# the checkout this package runs from, when it runs from one (<root>/src/clclsa)
SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _git_revision(root):
    """The commit checked out at `root`, read from its `.git` directory
    without running git; None outside a checkout."""
    git = os.path.join(root, ".git")

    def read(name):
        with open(os.path.join(git, name)) as fh:
            return fh.read().strip()

    try:
        head = read("HEAD")
        if not head.startswith("ref: "):
            return head  # a detached HEAD holds the commit itself
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            return read(ref)
        for line in read("packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    """Python, numpy and BLAS versions, the BLAS thread variables, the platform,
    the CPUs this process may run on and the git revision of the source."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints its build configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "usable_cpus": _usable_cpus(),
        "git_revision": _git_revision(SOURCE_ROOT),
    }


def _write_manifest(out_dir, command, resolved, seeds, inputs, artifacts, started):
    manifest = {
        "command": command,
        "resolved_config": resolved,
        "seeds": seeds,
        "input_digests": {path: _sha256(path) for path in inputs if os.path.exists(path)},
        "artifacts": sorted(artifacts),
        "tool_version": __version__,
        "environment": _environment(),
        "duration_seconds": time.time() - started,
    }
    path = os.path.join(out_dir, "run_manifest.json")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(manifest, fh, indent=2)
    os.replace(tmp, path)
    return path


def _dataset_inputs(directory):
    with open(os.path.join(directory, "manifest.json")) as fh:
        files = json.load(fh)["files"]
    paths = [os.path.join(directory, f) for f in files["views"]]
    paths.append(os.path.join(directory, files["labels"]))
    if files.get("mask"):
        paths.append(os.path.join(directory, files["mask"]))
    return paths


def _out_dir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _check_model_fits(config, ds):
    for what, want, got in (("views", config.num_views, ds.n_views),
                            ("input widths", config.input_dims, ds.view_dims),
                            ("classes", config.num_classes, ds.class_count)):
        if want != got:
            raise UsageError(f"the model has {what} {want}, the data has {got}")


def _check_etas(etas):
    """Reject, before any training, a missing rate `data.MissingnessSpec` rejects."""
    for eta in etas:
        _build(dt.MissingnessSpec, {"eta": eta, "seed": 0}, "missing rate")


def _setup(args, config):
    """Dataset, model and train configs, and the resolved config of a training command."""
    ds = dt.load_dataset_dir(args.data, scale=args.scale)
    model_config, model_section = _model_config(config, args, ds)
    _check_model_fits(model_config, ds)
    train_config = _train_config(config, args)
    return ds, model_config, train_config, {"model": model_section,
                                            "train": asdict(train_config)}


def _emit(args, command, stem, result, resolved, seeds, started):
    """Write a runner's report and the run manifest; returns the report path."""
    out = _out_dir(args)
    report_path = os.path.join(out, f"{stem}.{args.format}")
    ev.emit_report(result.rows, report_path, fmt=args.format)
    _write_manifest(out, command, resolved, seeds, _dataset_inputs(args.data),
                    [report_path], started)
    return report_path


# argparse `type=` converters: argparse reports a ValueError from one as a usage
# error that names the converter ("invalid float_list value: 'a,b'").


def float_list(text):
    return [float(tok) for tok in text.split(",") if tok != ""]


def ascending_float_list(text):
    values = float_list(text)
    if values != sorted(values):
        raise ValueError(text)
    return values


def int_list(text):
    return [int(tok) for tok in text.split(",") if tok != ""]


def _assignment(convert):
    def assignment(text):
        name, sep, value = text.partition("=")
        if not sep:
            raise ValueError(text)
        return name, convert(value)
    return assignment


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args, config):
    started = time.time()
    section = _section(config, "synth")
    section["seed"] = args.seed
    section.setdefault("n_views", 3)
    section.setdefault("view_dims", [20] * section["n_views"])
    spec = _build(dt.SyntheticSpec, section, "synth")
    ds = dt.synth_generate(spec)
    out = _out_dir(args)
    manifest = dt.write_dataset(ds, out, manifest_extra={"synth_spec": asdict(spec)})
    artifacts = [os.path.join(out, f) for f in manifest["files"]["views"]]
    artifacts.append(os.path.join(out, manifest["files"]["labels"]))
    _write_manifest(out, "synth", {"synth": asdict(spec)}, [args.seed], [], artifacts, started)
    print(f"wrote synthetic dataset ({ds.n_subjects} subjects, {ds.n_views} views) to {out}")
    return 0


def _cmd_mask(args, config):
    started = time.time()
    section = _section(config, "mask")
    _check_keys(section, {"eta", "policy"}, "mask.")
    if section.get("eta") is None:
        raise UsageError("mask needs --eta")
    spec = _build(dt.MissingnessSpec, {**section, "seed": args.seed}, "mask")
    ds = dt.load_dataset_dir(args.data)
    masked = dt.apply_missingness(ds, spec)
    out = _out_dir(args)
    dt.write_dataset(masked, out, manifest_extra={"missingness": asdict(spec)})
    eta, policy = spec.eta, spec.policy
    _write_manifest(out, "mask", {"mask": {"eta": eta, "policy": policy}}, [args.seed],
                    _dataset_inputs(args.data), [os.path.join(out, "mask.csv")], started)
    print(f"wrote masked dataset (eta={eta}, realized {masked.missing_rate():.4f}) to {out}")
    return 0


def _epoch_log_csv(path, logs):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "l_clf", "l_al", "l_co", "l_cl", "total", "lr",
                         "latent_variance", "train_acc"])
        for entry in logs:
            b = entry.breakdown
            writer.writerow([entry.epoch, repr(b.l_clf), repr(b.l_al), repr(b.l_co),
                             repr(b.l_cl), repr(b.total), repr(entry.lr),
                             ";".join(repr(v) for v in entry.latent_variance),
                             "" if entry.train_acc is None else repr(entry.train_acc)])


def _cmd_train(args, config):
    started = time.time()
    ds, model_config, train_config, resolved = _setup(args, config)
    out = _out_dir(args)
    checkpoint, epochs, config_path = (os.path.join(out, name) for name in
                                       ("checkpoint.json", "epochs.csv", "config.json"))
    with open(config_path, "w") as fh:
        json.dump(resolved, fh, indent=2)
    aborted = extra = None
    try:
        params, logs = tr.train(ds, model_config, train_config)
    except tr.TrainingAborted as exc:
        # an aborted run still writes its last good state, its logs and a manifest
        aborted, params, logs = exc, exc.params, exc.logs
        extra = {"aborted": True, "term": exc.term, "epoch": exc.epoch}
    md.save_checkpoint(checkpoint, params, extra)
    _epoch_log_csv(epochs, logs)
    _write_manifest(out, "train", resolved, [train_config.seed],
                    _dataset_inputs(args.data), [checkpoint, epochs, config_path], started)
    if aborted is not None:
        print(f"error: {aborted}", file=sys.stderr)
        return 2
    print(f"trained {train_config.epochs} epochs; final loss "
          f"{logs[-1].breakdown.total!r}; checkpoint at {checkpoint}")
    return 0


def _cmd_eval(args, config):
    started = time.time()
    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else None
    if out_dir:
        existing = os.path.join(out_dir, "run_manifest.json")
        if os.path.exists(existing):
            with open(existing) as fh:
                command = json.load(fh).get("command")
            if command != "eval":
                raise UsageError(f"{existing} records a {command} run; "
                                 "write the metrics to another directory")
    ds = dt.load_dataset_dir(args.data, scale=args.scale)
    params = md.load_checkpoint(args.checkpoint)
    _check_model_fits(params.config, ds)
    yhat, pred = md.predict(ds.views, ds.mask, params)
    report = ev.compute_report(yhat, ds.labels, ds.class_count,
                               metadata={"checkpoint": args.checkpoint, "data": args.data})
    text = json.dumps(asdict(report), indent=2)
    if not args.out:
        print(text)
        return 0
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as fh:
        fh.write(text + "\n")
    resolved = {"eval": {"checkpoint": args.checkpoint, "data": args.data, "scale": args.scale}}
    _write_manifest(out_dir, "eval", resolved, [],
                    [args.checkpoint, *_dataset_inputs(args.data)], [args.out], started)
    print(f"wrote metrics to {args.out}")
    return 0


def _cmd_sweep(args, config):
    started = time.time()
    _check_etas(args.etas)
    ds, model_config, train_config, resolved = _setup(args, config)
    seeds = args.seeds or [args.seed]
    result = ev.missing_rate_sweep(ds, model_config, train_config, args.etas, seeds,
                                   mask_test=not args.complete_test,
                                   dataset_name=os.path.basename(os.path.normpath(args.data)))
    resolved["sweep"] = {"etas": args.etas, "seeds": seeds, "mask_test": not args.complete_test}
    _emit(args, "sweep", "sweep", result, resolved, seeds, started)
    for point in result.points:
        acc = point.mean.get("acc")
        print(f"eta={point.eta}: mean acc {acc if acc is None else round(acc, 4)} "
              f"({len(point.reports)} ok, {point.failures} failed)")
    return 0


def _cmd_grid(args, config):
    started = time.time()
    ds, model_config, train_config, resolved = _setup(args, config)
    grid = _build(tr.GridSpec, _section(config, "grid"), "grid")
    result = tr.grid_search(ds, None, model_config, grid, train_config)
    out = _out_dir(args)
    summary = os.path.join(out, "grid.csv")
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_al", "lambda_co", "lambda_cl", "metric", "status", "detail"])
        for trial in result.trials:
            w = trial.weights
            writer.writerow([w.lambda_al, w.lambda_co, w.lambda_cl,
                             "" if trial.metric is None else repr(trial.metric),
                             trial.status, trial.detail])
    resolved["grid"] = asdict(grid)
    _write_manifest(out, "grid", resolved, [train_config.seed],
                    _dataset_inputs(args.data), [summary], started)
    if result.best is None:
        print("grid search: no trial succeeded", file=sys.stderr)
        return 2
    w = result.best.weights
    print(f"best: lambda_al={w.lambda_al} lambda_co={w.lambda_co} "
          f"lambda_cl={w.lambda_cl} ({grid.metric}={result.best.metric:.4f}); "
          f"summary at {summary}")
    return 0


def _cmd_ablate(args, config):
    started = time.time()
    _check_etas(args.etas)
    _build(md.LossWeights, {"lambda_co": args.lambda_co_fixed}, "--lambda-co-fixed")
    ds, model_config, train_config, resolved = _setup(args, config)
    spec = ev.AblationSpec(etas=tuple(args.etas), seeds=tuple(args.seeds or [args.seed]),
                           lambda_co=args.lambda_co_fixed)
    result = ev.ablation_run(ds, spec, model_config, train_config,
                             dataset_name=os.path.basename(os.path.normpath(args.data)))
    resolved["ablate"] = {"etas": list(spec.etas), "seeds": list(spec.seeds),
                          "lambda_co": spec.lambda_co}
    _emit(args, "ablate", "ablation", result, resolved, list(spec.seeds), started)
    for variant in spec.variants:
        accs = [p.mean.get("acc") for p in result.points if p.variant == variant]
        print(f"{variant}: mean acc per eta {[None if a is None else round(a, 4) for a in accs]}")
    return 0


def _cmd_surface(args, config):
    started = time.time()
    names = [name for name, _ in [args.fix, *args.vary]]
    if sorted(names) != sorted(ev.SURFACE_WEIGHTS):
        raise UsageError(f"surface needs one --fix and two --vary naming each of "
                         f"{', '.join(ev.SURFACE_WEIGHTS)} once, got {', '.join(names)}")
    for name, values in [(args.fix[0], [args.fix[1]]), *args.vary]:
        for value in values:
            _build(md.LossWeights, {name: value}, "surface")
    _check_etas([args.eta])
    ds, model_config, train_config, resolved = _setup(args, config)
    fixed = dict([args.fix])
    grids = dict(args.vary)
    seeds = args.seeds or [args.seed]
    result = ev.hyperparam_surface(ds, model_config, train_config, fixed, grids,
                                   args.eta, seeds,
                                   dataset_name=os.path.basename(os.path.normpath(args.data)))
    resolved["surface"] = {"fixed": fixed, "grids": grids, "eta": args.eta, "seeds": seeds}
    report_path = _emit(args, "surface", "surface", result, resolved, seeds, started)
    ok = sum(1 for r in result.rows if r.status == "ok")
    print(f"surface: {ok}/{len(result.rows)} trials ok; table at {report_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser():
    parser = _Parser(prog="clclsa", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config leaf (dotted path)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", required=True, help="output directory")
        if data:
            p.add_argument("--data", required=True, help="dataset directory")
            p.add_argument("--scale", action="store_true",
                           help="min-max scale features to [0,1] on load")

    def training_flags(p):
        p.add_argument("--preset", choices=sorted(md.PRESETS),
                       help="published architecture preset")
        p.add_argument("--epochs", dest="train.epochs", type=int)
        p.add_argument("--initial-lr", dest="train.initial_lr", type=float)
        p.add_argument("--lr-schedule", dest="train.lr_schedule", choices=["step", "constant"])
        p.add_argument("--batch-size", dest="train.batch_size", type=int)
        p.add_argument("--reduction", dest="train.reduction", choices=["mean", "sum"])
        p.add_argument("--lambda-al", dest="train.weights.lambda_al", type=float)
        p.add_argument("--lambda-co", dest="train.weights.lambda_co", type=float)
        p.add_argument("--lambda-cl", dest="train.weights.lambda_cl", type=float)
        p.add_argument("--alpha", dest="train.weights.alpha", type=float)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p, data=False)
    p.add_argument("--n", dest="synth.n_subjects", type=int)
    p.add_argument("--views", dest="synth.n_views", type=int)
    p.add_argument("--classes", dest="synth.class_count", type=int)
    p.add_argument("--dims", dest="synth.view_dims", type=int_list,
                   help="comma-separated per-view dims")
    p.add_argument("--shared-dim", dest="synth.shared_dim", type=int)
    p.add_argument("--snr", dest="synth.snr", type=float)
    p.add_argument("--sep", dest="synth.class_sep", type=float)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("mask", help="apply simulated missingness")
    common(p)
    p.add_argument("--eta", dest="mask.eta", type=float)
    p.add_argument("--policy", dest="mask.policy")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("train", help="train a model")
    common(p)
    training_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--scale", action="store_true")
    p.add_argument("--out", help="write the metrics JSON here (default: stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="missing-rate sweep")
    common(p)
    training_flags(p)
    p.add_argument("--etas", type=ascending_float_list, required=True,
                   help="comma-separated missing rates")
    p.add_argument("--seeds", type=int_list, help="comma-separated seeds (default: --seed)")
    p.add_argument("--complete-test", action="store_true",
                   help="evaluate on complete test data instead of masked")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grid", help="grid search over loss weights")
    common(p)
    training_flags(p)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("ablate", help="component ablation across missing rates")
    common(p)
    training_flags(p)
    p.add_argument("--etas", type=ascending_float_list, default="0.2,0.4")
    p.add_argument("--seeds", type=int_list)
    p.add_argument("--lambda-co-fixed", dest="lambda_co_fixed", type=float, default=0.1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("surface", help="hyperparameter surface at fixed eta")
    common(p)
    training_flags(p)
    p.add_argument("--fix", type=_assignment(float), required=True, metavar="NAME=VALUE",
                   help="the fixed weight, e.g. lambda_al=0.1")
    p.add_argument("--vary", type=_assignment(float_list), action="append", required=True,
                   metavar="NAME=V1,V2,...", help="a varying weight grid (give twice)")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--seeds", type=int_list)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_surface)

    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in STOCHASTIC and args.seed is None:
            raise UsageError(f"clclsa {args.command}: --seed is required")
        config = _apply_sets(_load_config(getattr(args, "config", None)),
                             getattr(args, "set", None))
        for dest, value in vars(args).items():  # a config flag's dest is its leaf
            if "." in dest and value is not None:
                _set_leaf(config, dest, value)
        _check_keys(config, SECTIONS)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (md.NumericError, tr.TrainingAborted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
