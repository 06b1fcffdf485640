"""Sweep the missing rate and watch accuracy degrade gracefully.

Run: python demos/04_missing_rate_sweep.py   (~1-2 min)
"""

import tempfile

from clclsa import data, evaluation, model, train

ds = data.minmax_scaled(data.synth_generate(data.SyntheticSpec(class_sep=0.7, seed=1)))
cfg = model.ModelConfig(num_views=3, input_dims=(20, 20, 20),
                        embed_dims=(16, 16, 16), num_classes=3,
                        ae_hidden=(16, 8), dropout_p=0.1)
tcfg = train.TrainConfig(epochs=250, initial_lr=2e-3, lr_schedule="constant",
                         weights=model.LossWeights(0.01, 0.1, 0.01, 9.0))

print("== sweep: train and evaluate at each missing rate (2 seeds each) ==")
result = evaluation.missing_rate_sweep(ds, cfg, tcfg,
                                       etas=[0.0, 0.2, 0.4, 0.6, 0.8],
                                       seeds=[0, 1])
print(f"{'eta':>5} {'mean acc':>9} {'std':>7}  bar")
for point in result.points:
    acc = point.mean["acc"]
    bar = "#" * int(round(acc * 40))
    print(f"{point.eta:5.1f} {acc:9.3f} {point.std['acc']:7.3f}  {bar}")

print("\n== every trial persists as one long-format row ==")
with tempfile.TemporaryDirectory() as out:
    path = evaluation.emit_report(result.rows, f"{out}/sweep.csv", fmt="csv")
    rows = evaluation.parse_report_csv(path)
    ok = [r for r in rows if r["status"] == "ok"]
    agg = [r for r in rows if str(r["status"]).startswith("aggregate")]
    print(f"wrote {len(ok)} trial rows + {len(agg)} aggregate rows to sweep.csv")
    print("columns:", ", ".join(evaluation.REPORT_COLUMNS))
