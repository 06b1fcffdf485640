"""Train the full model on incomplete data and inspect what it learned.

Run: python demos/03_train_and_evaluate.py   (~30 s)
"""

import tempfile

import numpy as np

from clclsa import data, evaluation, model, train

print("== data: 3 views, 3 classes, 40% of subjects incomplete ==")
ds = data.minmax_scaled(data.synth_generate(data.SyntheticSpec(class_sep=0.7, seed=3)))
masked = data.apply_missingness(ds, data.MissingnessSpec(eta=0.4, seed=4))
train_ds, test_ds = data.split(masked, data.SplitSpec(seed=5))

cfg = model.ModelConfig(num_views=3, input_dims=(20, 20, 20),
                        embed_dims=(16, 16, 16), num_classes=3,
                        ae_hidden=(16, 8), dropout_p=0.1)
tcfg = train.TrainConfig(epochs=300, initial_lr=2e-3, lr_schedule="constant",
                         seed=0, weights=model.LossWeights(
                             lambda_al=0.01, lambda_co=0.1, lambda_cl=0.01, alpha=9.0))

print("== training (full batch, one Adam step per epoch) ==")
params, logs = train.train(train_ds, cfg, tcfg)
for entry in logs[:: len(logs) // 5]:
    b = entry.breakdown
    print(f"epoch {entry.epoch:3d}: total {b.total:8.4f}  clf {b.l_clf:.4f}  "
          f"al {b.l_al:.4f}  co {b.l_co:.4f}  cl {b.l_cl:8.3f}  "
          f"latent var {[f'{v:.3f}' for v in entry.latent_variance]}")

print("\n== evaluation on the (also incomplete) test set ==")
yhat, pred = model.predict(test_ds.views, test_ds.mask, params)
report = evaluation.compute_report(yhat, test_ds.labels, test_ds.class_count)
print(f"accuracy {report.acc:.3f}  weighted-F1 {report.weighted_f1:.3f}  "
      f"macro-F1 {report.macro_f1:.3f}")
print("confusion matrix:", report.confusion)

print("\n== the gates are interpretable intermediates ==")
cache = model.forward_full(test_ds.views, test_ds.mask, params, mode="eval")
for i, matt in enumerate(cache.matt):
    print(f"view {i}: mean view-gate {float(matt.data.mean()):.3f} over "
          f"{matt.rows} observed subjects")
print("completed entries per view:", cache.provenance.sum(axis=0).tolist())

print("\n== checkpoints round-trip exactly ==")
with tempfile.TemporaryDirectory() as out:
    path = f"{out}/checkpoint.ckpt"
    model.save_checkpoint(path, params)
    reloaded = model.load_checkpoint(path)
    again, _ = model.predict(test_ds.views, test_ds.mask, reloaded)
    print("reloaded model reproduces probabilities bitwise:",
          np.array_equal(yhat, again))
