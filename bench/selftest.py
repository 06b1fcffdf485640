"""Self-test of the benchmark's checks, run from the repository root:

    python3 bench/selftest.py

Each check must pass on genuine outputs of a small model and fail on a
copy with one deliberate corruption (a flipped prediction, a perturbed tensor
after checkpoint load, a nudged loss value, a rescaled feature column, ...).
Exits 1 if any check misses its corruption. Takes a few seconds.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace

from bootstrap import ROOT, prepare


def main():
    prepare()
    import numpy as np

    import checks
    import workloads as wl
    from clclsa import data as dt
    from clclsa import model as md
    from clclsa import train as tr

    def bump(a, index):
        """Copy of `a` with one entry moved to the next float up."""
        b = a.copy()
        b[index] = np.nextafter(b[index], np.inf)
        return b

    work = ROOT / "bench" / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        raw = dt.synth_generate(dt.SyntheticSpec(n_subjects=60, view_dims=(5, 6, 7),
                                                 class_count=2, shared_dim=6, seed=3))
        dt.write_dataset(raw, work / "full")
        loaded_full = dt.load_dataset_dir(work / "full", scale=True)
        train, test = dt.split(dt.minmax_scaled(raw), dt.SplitSpec(0.7, seed=4))
        train = dt.apply_missingness(train, dt.MissingnessSpec(0.4, 5))
        test = dt.apply_missingness(test, dt.MissingnessSpec(0.4, 6))
        dt.write_dataset(test, work / "test")
        loaded_test = dt.load_dataset_dir(work / "test")

        cfg = md.ModelConfig(3, (5, 6, 7), (4, 4, 4), 2, ae_hidden=(4, 3), dropout_p=0.1)
        base = tr.TrainConfig(epochs=8, initial_lr=2e-3, lr_schedule="constant", seed=7,
                              weights=wl.ALL_TERMS)
        params, logs = tr.train(train, cfg, base)
        md.save_checkpoint(work / "checkpoint.json", params)
        reloaded = md.load_checkpoint(work / "checkpoint.json")
        probs, _ = md.predict(test.views, test.mask, reloaded)
        own, _ = md.predict(test.views, test.mask, params)
        single = np.array([md.predict([v[j:j + 1] for v in test.views],
                                      test.mask[j:j + 1], reloaded)[0][0]
                           for j in range(test.n_subjects)])
        _, bd, cache = md.build_objective(train.views, train.mask, train.labels, params,
                                          wl.ALL_TERMS, mode="eval")
        latents = [z.data for z in cache.zhat_full]
        per_view = [z.data for z in cache.zhat_obs]
        grid = tr.grid_search(train, None, cfg, wl.DESK_GRID, replace(base, epochs=2))
        expected = [(t.weights.lambda_al, t.weights.lambda_co, t.weights.lambda_cl)
                    for t in grid.trials]
        other = next(t for t in grid.trials if t.index != grid.best.index)
        broken_trials = [replace(grid.trials[0], status="failed")] + grid.trials[1:]
        flipped = single.copy()
        flipped[0] = flipped[0][::-1]
        rescaled = [v.copy() for v in loaded_full.views]
        rescaled[1][:, 2] *= 1.5
        rescaled_test = dt.replace_dataset_mask(loaded_test, loaded_test.mask)
        rescaled_test.views[0][:, 1] *= 1.5
        bumped = reloaded.clone()
        name = next(iter(bumped.tensors()))
        bumped[name].data = bump(bumped[name].data, (0, 0))
        complete_logs = [0.0] * len(logs)

        cases = [
            (checks.probabilities_sum_to_one(probs),
             checks.probabilities_sum_to_one(np.vstack([probs[:1] * 1.001, probs[1:]]))),
            (checks.single_matches_batch(single, probs),
             checks.single_matches_batch(flipped, probs)),
            (checks.loss_recomputed(cache.yhat.data, latents, train.mask, train.labels,
                                    wl.ALPHA, bd),
             checks.loss_recomputed(cache.yhat.data, latents, train.mask, train.labels,
                                    wl.ALPHA, replace(bd, l_cl=bd.l_cl * (1 + 1e-8)))),
            (checks.observed_rows_unchanged(latents, per_view, cache.obs_idx),
             checks.observed_rows_unchanged(
                 [bump(latents[0], (cache.obs_idx[0][0], 0))] + latents[1:],
                 per_view, cache.obs_idx)),
            (checks.params_bitwise_equal("checkpoint_round_trip", params, reloaded, own, probs),
             checks.params_bitwise_equal("checkpoint_round_trip", params, bumped, own, probs)),
            (checks.no_completion(complete_logs, np.zeros((3, 3), bool)),
             checks.no_completion(complete_logs[:-1] + [1e-3], np.eye(3, dtype=bool))),
            (checks.scaled_load_matches(loaded_full.views, raw.views),
             checks.scaled_load_matches(rescaled, raw.views)),
            (checks.load_round_trip(loaded_test, test),
             checks.load_round_trip(rescaled_test, test)),
            (checks.grid_ranking(grid.trials, grid.best, expected),
             checks.grid_ranking(grid.trials, other, expected)),
            (checks.grid_ranking(grid.trials, grid.best, expected),
             checks.grid_ranking(broken_trials, grid.best, expected)),
            (checks.loss_falls(2.0, 1.0), checks.loss_falls(1.0, 1.0)),
            (checks.accuracy_above_chance(0.9, 3, wl.DESK_ACC_MARGIN),
             checks.accuracy_above_chance(1 / 3 + wl.DESK_ACC_MARGIN / 2, 3,
                                          wl.DESK_ACC_MARGIN)),
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missed = 0
    for genuine, corrupted in cases:
        good = genuine.ok and not corrupted.ok
        missed += not good
        print(f"{'PASS' if good else 'FAIL'} {genuine.name}: genuine ok={genuine.ok} "
              f"({genuine.detail}); corrupted ok={corrupted.ok} ({corrupted.detail})")
    print(f"{len(cases) - missed}/{len(cases)} checks caught their corruption")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
