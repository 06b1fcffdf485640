"""Output checks, each computed apart from the program or from a property the
method must have. Every check returns a `Check`; `ok` is False on failure and
`detail` says what was seen. `selftest.py` feeds each one corrupted outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-12  # the clamp the loss definitions use before every log


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def probabilities_sum_to_one(probs, tol=1e-12):
    err = float(np.max(np.abs(np.sum(probs, axis=1) - 1.0)))
    return Check("probabilities_sum_to_one", err <= tol, f"max |row sum - 1| = {err:.3e}")


def single_matches_batch(single, batch, tol=1e-12):
    """Row j predicted alone equals row j of the whole-side prediction."""
    err = float(np.max(np.abs(single - batch)))
    same = bool(np.array_equal(np.argmax(single, axis=1), np.argmax(batch, axis=1)))
    return Check("single_matches_batch", err <= tol and same,
                 f"max |diff| = {err:.3e}, same argmax: {same}")


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_l_clf(probs, labels):
    picked = probs[np.arange(labels.size), labels]
    return float(-np.mean(np.log(np.maximum(picked, LOG_FLOOR))))


def reference_l_cl(latents, mask, alpha):
    """Contrastive loss summed over ordered view pairs, from the definition."""
    m = mask.shape[1]
    total = 0.0
    for i in range(m):
        for k in range(m):
            joint = np.flatnonzero(mask[:, i] & mask[:, k])
            if i == k or joint.size < 2:
                continue
            a = _softmax_rows(latents[i][joint])
            b = _softmax_rows(latents[k][joint])
            p = sum(np.outer(a[j], b[j]) for j in range(joint.size)) / joint.size
            p = p / p.sum()
            row = np.log(np.maximum(p.sum(axis=1), LOG_FLOOR))
            col = np.log(np.maximum(p.sum(axis=0), LOG_FLOOR))
            total -= float(np.sum(p * np.log(np.maximum(p, LOG_FLOOR))
                                  - (alpha + 1.0) * p * (row[:, None] + col[None, :])))
    return total


def loss_recomputed(probs, latents, mask, labels, alpha, breakdown, rtol=1e-9):
    """l_clf and l_cl from an eval-mode cache match the program's breakdown."""
    ref = {"l_clf": reference_l_clf(probs, labels),
           "l_cl": reference_l_cl(latents, mask, alpha)}
    got = {"l_clf": breakdown.l_clf, "l_cl": breakdown.l_cl}
    rel = {k: abs(got[k] - ref[k]) / max(abs(ref[k]), 1e-300) for k in ref}
    return Check("loss_recomputed", all(r <= rtol for r in rel.values()),
                 ", ".join(f"{k} rel err {rel[k]:.2e}" for k in ref))


def observed_rows_unchanged(completed, per_view, obs_idx):
    """Completion leaves every observed row of every view bitwise as it was."""
    bad = [i for i, (full, own, obs) in enumerate(zip(completed, per_view, obs_idx))
           if not np.array_equal(full[obs], own)]
    return Check("observed_rows_unchanged", not bad, f"views differing: {bad}")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def params_bitwise_equal(name, first, second, probs_first=None, probs_second=None):
    """Tensors, batch-norm statistics and (optionally) predictions bit for bit."""
    t1, t2 = first.tensors(), second.tensors()
    bad = [k for k in t1 if k not in t2 or not _same_bits(t1[k].data, t2[k].data)]
    bad += [k for k in t2 if k not in t1]
    for k, st in first.bn_states.items():
        other = second.bn_states.get(k)
        if other is None or not (_same_bits(st.running_mean, other.running_mean)
                                 and _same_bits(st.running_var, other.running_var)):
            bad.append(k)
    if probs_first is not None and not _same_bits(probs_first, probs_second):
        bad.append("predictions")
    return Check(name, not bad, f"differing: {bad[:5]}{' ...' if len(bad) > 5 else ''}")


def no_completion(l_co_per_epoch, provenance):
    """Complete data: the cross-omics term is 0 every epoch, nothing completed."""
    nonzero = sum(1 for v in l_co_per_epoch if v != 0.0)
    completed = int(np.count_nonzero(provenance))
    return Check("no_completion", nonzero == 0 and completed == 0,
                 f"epochs with l_co != 0: {nonzero}, completed entries: {completed}")


def minmax_reference(matrix):
    lo, hi = matrix.min(axis=0), matrix.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.where(hi > lo, (matrix - lo) / span, 0.0)


def scaled_load_matches(loaded_views, written_views, atol=1e-12):
    """Load with scale=True equals an independent min-max of the written values."""
    err = max(float(np.max(np.abs(got - minmax_reference(raw))))
              for got, raw in zip(loaded_views, written_views))
    return Check("scaled_load_matches", err <= atol, f"max |diff| = {err:.3e}")


def load_round_trip(loaded, written):
    """Unscaled load gives back every written value, the mask and the labels."""
    same = (all(_same_bits(a, b) for a, b in zip(loaded.views, written.views))
            and np.array_equal(loaded.mask, written.mask)
            and np.array_equal(loaded.labels, written.labels))
    return Check("load_round_trip", bool(same), "views, mask and labels bitwise")


def grid_ranking(trials, best, expected_weights):
    """Every trial ran ok, and the best has the top metric with ties going to
    the smallest (lambda_cl, lambda_co, lambda_al)."""
    ok = all(t.status == "ok" for t in trials)
    ran = sorted((t.weights.lambda_al, t.weights.lambda_co, t.weights.lambda_cl)
                 for t in trials)
    top = max(t.metric for t in trials) if ok else None
    tied = [t for t in trials if t.metric == top]
    want = min(tied, key=lambda t: (t.weights.lambda_cl, t.weights.lambda_co,
                                    t.weights.lambda_al)) if tied else None
    good = ok and ran == sorted(expected_weights) and best is not None \
        and want is not None and best.index == want.index
    return Check("grid_ranking", bool(good),
                 f"all ok: {ok}, best index {getattr(best, 'index', None)}, "
                 f"expected {getattr(want, 'index', None)}")


def loss_falls(first, last):
    """The logged training objective is lower at the last epoch than the first."""
    return Check("loss_falls", last < first,
                 f"training objective {first:.6f} -> {last:.6f}")


def accuracy_above_chance(acc, class_count, margin):
    floor = 1.0 / class_count + margin
    return Check("accuracy_above_chance", acc >= floor,
                 f"test accuracy {acc:.4f}, required >= {floor:.4f}")
