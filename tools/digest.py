"""Same-seed digest of the clclsa command line, for bit-for-bit comparisons.

    python tools/digest.py TREE                 # one SHA-256 per written file, as JSON
    python tools/digest.py TREE --against DIR   # exit 1 naming each file that differs;
                                                # also each tree's src/ line counts

Runs a fixed sequence of `clclsa` commands against TREE/src, each in its own
interpreter with the six BLAS thread variables at 1 (the setting the bitwise
re-run contract holds at), in a fresh temporary directory. The sequence: a
synthetic dataset and its masked copy; full-batch training with all four
loss terms; mini-batch training with `sum` reduction, a trailing one-row
batch to merge and `eval_every`; training with zero completion on scaled
data; `eval --out`; and small `sweep` (one more with `--complete-test` and
a JSON report), `grid`, `ablate` (JSON report; one more with
`--lambda-co-fixed` and a CSV report) and `surface` runs; then a 3-epoch
`train` of the `rosmap` preset on 150 subjects of 3 x 200 features, wide
enough that each step runs its branches on threads where two CPUs are
usable, and its `eval`. So `--against` a checkout whose training loop is
serial compares threaded output with serial output, and a tree against
itself compares two threaded runs. Before hashing, each run manifest loses `duration_seconds` and `environment.git_revision`,
and the temporary directory's path is replaced in every file. Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# isolated mode (-I) ignores PYTHONPATH and the working directory, so the
# package comes from the tree's src/ inserted first
DRIVER = ("import sys; sys.dont_write_bytecode = True; sys.path.insert(0, sys.argv.pop(1)); "
          "from clclsa import cli; sys.exit(cli.dispatch(sys.argv[1:]))")

MODEL = ["--set", "model.embed_dims=[6,6,6]", "--set", "model.ae_hidden=[6,4]",
         "--set", "model.dropout_p=0.1"]
TERMS = ["--initial-lr", "1e-3", "--lr-schedule", "constant", "--lambda-al", "0.01",
         "--lambda-co", "0.1", "--lambda-cl", "0.01"]
RUNNER = ["--epochs", "6", *TERMS, *MODEL]

# (output under the temp root, argv without --out); {root} stands for the temp root
SEQUENCE = [
    ("data", ["synth", "--n", "120", "--views", "3", "--classes", "2", "--dims", "8,8,8",
              "--shared-dim", "6", "--seed", "7"]),
    ("masked", ["mask", "--data", "{root}/data", "--eta", "0.4", "--seed", "8"]),
    ("train_full", ["train", "--data", "{root}/masked", "--seed", "9", "--epochs", "20",
                    *TERMS, *MODEL]),
    # 120 = 7 * 17 + 1: the trailing one-row batch is merged into the one before
    ("train_batch", ["train", "--data", "{root}/masked", "--seed", "10", "--epochs", "6",
                     "--batch-size", "17", "--reduction", "sum",
                     "--set", "train.eval_every=2", *TERMS, *MODEL]),
    ("train_zero", ["train", "--data", "{root}/masked", "--scale", "--seed", "11",
                    "--epochs", "10", "--set", "model.completion=zero", *TERMS, *MODEL]),
    ("eval", ["eval", "--checkpoint", "{root}/train_full/checkpoint.ckpt",
              "--data", "{root}/masked"]),
    ("sweep", ["sweep", "--data", "{root}/data", "--seed", "12", "--etas", "0,0.4",
               "--seeds", "1,2", *RUNNER]),
    ("sweep_complete", ["sweep", "--data", "{root}/data", "--seed", "12", "--etas", "0.4",
                        "--seeds", "3", "--complete-test", "--format", "json", *RUNNER]),
    ("grid", ["grid", "--data", "{root}/masked", "--seed", "13", "--epochs", "6", *TERMS,
              *MODEL, "--set", "grid.lambda_al_values=[0,0.01]",
              "--set", "grid.lambda_co_values=[0.1]",
              "--set", "grid.lambda_cl_values=[0,0.01]"]),
    ("ablate", ["ablate", "--data", "{root}/data", "--seed", "14", "--etas", "0.2,0.4",
                "--seeds", "1", "--format", "json", *RUNNER]),
    ("ablate_co", ["ablate", "--data", "{root}/data", "--seed", "14", "--etas", "0.4",
                   "--seeds", "2", "--lambda-co-fixed", "0.05", *RUNNER]),
    ("surface", ["surface", "--data", "{root}/data", "--seed", "15",
                 "--fix", "lambda_al=0.01", "--vary", "lambda_co=0,0.1",
                 "--vary", "lambda_cl=0,0.01", "--eta", "0.4", "--seeds", "1", *RUNNER]),
    # 150 subjects x 300-wide latents: past numerics.BRANCH_MIN_ELEMENTS
    ("data_wide", ["synth", "--n", "150", "--views", "3", "--classes", "2",
                   "--dims", "200,200,200", "--seed", "16"]),
    ("masked_wide", ["mask", "--data", "{root}/data_wide", "--eta", "0.4", "--seed", "17"]),
    ("train_wide", ["train", "--data", "{root}/masked_wide", "--seed", "18", "--epochs", "3",
                    "--preset", "rosmap", *TERMS]),
    ("eval_wide", ["eval", "--checkpoint", "{root}/train_wide/checkpoint.ckpt",
                   "--data", "{root}/masked_wide"]),
]


def _run_sequence(tree, root):
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, "clclsa", "__init__.py")):
        raise SystemExit(f"digest: no clclsa sources under {src}")
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    for out, argv in SEQUENCE:
        argv = [a.replace("{root}", root) for a in argv]
        target = os.path.join(root, out)
        # eval takes a metrics file; every other command an output directory
        argv += ["--out", os.path.join(target, "metrics.json") if argv[0] == "eval" else target]
        done = subprocess.run([sys.executable, "-I", "-c", DRIVER, src, *argv], cwd=root,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"digest: {tree}: clclsa {argv[0]} exited {done.returncode}\n"
                             f"{done.stderr}")


def _normalized(path, root):
    with open(path, "rb") as fh:
        content = fh.read()
    if os.path.basename(path) == "run_manifest.json":
        manifest = json.loads(content)
        manifest.pop("duration_seconds")
        manifest["environment"].pop("git_revision")
        content = json.dumps(manifest, indent=2).encode()
    return content.replace(root.encode(), b"<root>")


def digest(tree) -> dict:
    """{path relative to the run root: SHA-256} for every file the sequence writes."""
    with tempfile.TemporaryDirectory(prefix="clclsa-digest-") as root:
        root = os.path.realpath(root)
        _run_sequence(tree, root)
        hashes = {}
        for folder, _, files in os.walk(root):
            for name in files:
                path = os.path.join(folder, name)
                hashes[os.path.relpath(path, root)] = hashlib.sha256(
                    _normalized(path, root)).hexdigest()
    return dict(sorted(hashes.items()))


def src_lines(tree) -> dict:
    """{file name: line count, as `wc -l` counts} of TREE/src/clclsa/*.py."""
    src = os.path.join(tree, "src", "clclsa")
    counts = {}
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                counts[name] = fh.read().count(b"\n")
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", help="checkout whose src/ provides clclsa")
    parser.add_argument("--against", metavar="DIR", help="a second checkout to compare with")
    args = parser.parse_args(argv)
    hashes = digest(args.tree)
    print(json.dumps(hashes, indent=2))
    if args.against is None:
        return 0
    other = digest(args.against)
    names = sorted(set(hashes) | set(other))
    differing = [name for name in names if hashes.get(name) != other.get(name)]
    for name in differing:
        print(f"differs: {name}", file=sys.stderr)
    print(f"{len(names) - len(differing)} of {len(names)} files equal", file=sys.stderr)
    mine, theirs = src_lines(args.tree), src_lines(args.against)
    rows = [(name, mine.get(name, 0), theirs.get(name, 0)) for name in sorted({*mine, *theirs})]
    rows.append(("total", sum(mine.values()), sum(theirs.values())))
    print(f"{'src/clclsa lines':<18}{'TREE':>7}{'DIR':>7}{'diff':>7}", file=sys.stderr)
    for name, a, b in rows:
        print(f"{name:<18}{a:>7}{b:>7}{a - b:>+7}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
