"""Grid-search the loss weights, then toggle components off one at a time.

Run: python demos/05_grid_and_ablation.py   (~1-2 min)
"""

from clclsa import data, evaluation, model, train

ds = data.minmax_scaled(data.synth_generate(
    data.SyntheticSpec(n_subjects=240, class_sep=0.7, seed=8)))
masked = data.apply_missingness(ds, data.MissingnessSpec(eta=0.3, seed=9))
cfg = model.ModelConfig(num_views=3, input_dims=(20, 20, 20),
                        embed_dims=(16, 16, 16), num_classes=3,
                        ae_hidden=(16, 8), dropout_p=0.1)
base = train.TrainConfig(epochs=150, initial_lr=2e-3, lr_schedule="constant",
                         seed=0, weights=model.LossWeights(alpha=9.0))

print("== grid search over the loss weights (validation split is automatic) ==")
grid = train.GridSpec(lambda_al_values=(0.0, 0.01),
                      lambda_co_values=(0.01, 0.1),
                      lambda_cl_values=(0.0, 0.01))
result = train.grid_search(masked, None, cfg, grid, base)
print(f"{'al':>6} {'co':>6} {'cl':>6} {'val acc':>8}")
for trial in result.ranked():
    w = trial.weights
    print(f"{w.lambda_al:6.2f} {w.lambda_co:6.2f} {w.lambda_cl:6.2f} {trial.metric:8.3f}")
best = result.best.weights
print(f"selected: lambda_al={best.lambda_al} lambda_co={best.lambda_co} "
      f"lambda_cl={best.lambda_cl} (ties break toward the smaller triple)")

print("\n== component ablation at two missing rates ==")
spec = evaluation.AblationSpec(etas=(0.2, 0.4), seeds=(0, 1), lambda_co=0.1)
tcfg = train.TrainConfig(epochs=250, initial_lr=2e-3, lr_schedule="constant",
                         weights=model.LossWeights(0.01, 0.1, 0.01, 9.0))
trials = evaluation.ablation_trials(spec, tcfg.weights)
points = evaluation.run_trials(ds, cfg, tcfg, trials).points
print(f"{'variant':>9}  " + "  ".join(f"eta={e}" for e in spec.etas))
for variant in spec.variants:
    accs = [p.mean["acc"] for p in points if p.variant == variant]
    print(f"{variant:>9}  " + "  ".join(f"{a:7.3f}" for a in accs))
print("(ctst = contrastive term on, aux = gate/auxiliary term on)")
