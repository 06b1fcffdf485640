"""Multi-view dataset handling: files, masks, synthesis, splits.

A dataset is M per-view feature matrices over the same N subjects, an N x M
observation mask (True = observed), and integer class labels. Masked cells
stay in storage but are never read; the mask is authoritative. On disk a
dataset is one CSV per view (header row of feature names, one row per
subject), a label file (one integer per line), an optional 0/1 mask CSV, and
a JSON manifest recording shapes, seeds, and provenance.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .numerics import RngStream, coerce_fields


class ParseError(ValueError):
    """A dataset file could not be parsed; message carries file/line context."""


class MaskError(ValueError):
    """Mask-related contract violation (already masked, empty subject, ...)."""


class SplitError(ValueError):
    """A split specification cannot be satisfied."""


@dataclass
class MultiOmicsDataset:
    """M per-view matrices over N subjects, an observation mask, and labels."""

    views: list
    mask: np.ndarray
    labels: np.ndarray
    class_count: int
    view_names: list = None
    feature_names: list = None
    note: str = ""

    def __post_init__(self):
        self.views = [np.asarray(v, dtype=np.float64) for v in self.views]
        self.mask = np.asarray(self.mask, dtype=bool)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        n = self.views[0].shape[0]
        m = len(self.views)
        if any(v.shape[0] != n for v in self.views):
            raise ValueError("all views must have the same number of rows")
        if self.mask.shape != (n, m):
            raise ValueError(f"mask must be {n}x{m}, got {self.mask.shape}")
        if self.labels.shape != (n,):
            raise ValueError(f"labels must have length {n}")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ParseError(f"labels must lie in [0, {self.class_count})")
        if n and np.any(self.mask.sum(axis=1) == 0):
            bad = int(np.flatnonzero(self.mask.sum(axis=1) == 0)[0])
            raise MaskError(f"subject {bad} has no observed view")
        # copies, so a dataset derived with `replace` never aliases its source
        if self.view_names is None:
            self.view_names = [f"view{i}" for i in range(m)]
        self.view_names = list(self.view_names)
        if self.feature_names is None:
            self.feature_names = [
                [f"f{j}" for j in range(v.shape[1])] for v in self.views
            ]
        self.feature_names = [list(f) for f in self.feature_names]

    @property
    def n_subjects(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def view_dims(self) -> tuple:
        return tuple(v.shape[1] for v in self.views)

    def is_complete(self) -> bool:
        return bool(self.mask.all())

    def missing_rate(self) -> float:
        """Fraction of subjects with at least one unobserved view."""
        return float((~self.mask.all(axis=1)).mean()) if self.n_subjects else 0.0

    def take(self, idx) -> "MultiOmicsDataset":
        """Subset of subjects, in the given order."""
        idx = np.asarray(idx, dtype=np.intp)
        return replace(self, views=[v[idx] for v in self.views], mask=self.mask[idx],
                       labels=self.labels[idx])


def restrict_views(ds: MultiOmicsDataset, view_indices) -> MultiOmicsDataset:
    """Keep only the named views (for partial-view experiments)."""
    view_indices = list(view_indices)
    if len(view_indices) < 2:
        raise ValueError("a restricted dataset needs at least two views")
    keep = ds.mask[:, view_indices]
    subjects = np.flatnonzero(keep.sum(axis=1) > 0)
    return replace(ds, views=[ds.views[i][subjects] for i in view_indices],
                   mask=keep[subjects], labels=ds.labels[subjects],
                   view_names=[ds.view_names[i] for i in view_indices],
                   feature_names=[ds.feature_names[i] for i in view_indices])


def complete_cases(ds: MultiOmicsDataset) -> MultiOmicsDataset:
    """Subjects with every view observed (the complete-case reference)."""
    return ds.take(np.flatnonzero(ds.mask.all(axis=1)))


def minmax_scaled(ds: MultiOmicsDataset) -> MultiOmicsDataset:
    """Per-feature min-max scaling to [0, 1], the usual form for preprocessed
    omics matrices, fitted on observed rows; constant columns and unobserved
    cells become zeros."""
    views = [_minmax_scale(v, ds.mask[:, i]) for i, v in enumerate(ds.views)]
    return replace(ds, views=views, mask=ds.mask.copy(), labels=ds.labels.copy())


# ---------------------------------------------------------------------------
# File I/O


def _value_rows(path):
    """(line number, cells) of each non-blank row under the header, by csv.reader."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if row:
                yield lineno, row


def _raise_located(path, width, reason):
    """Raise the ParseError naming the first row of the wrong width or with a
    cell float() or np.loadtxt rejects, else one carrying `reason`."""
    for lineno, row in _value_rows(path):
        if len(row) != width:
            raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            for cell in row:
                float(cell)
            # the cells float() took hold no comma, quote or inner whitespace
            np.loadtxt([",".join(cell.strip() for cell in row)], delimiter=",", comments=None)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
    raise ParseError(f"{path}: {reason}")


def _read_matrix(path):
    """Header names (csv.reader, so quoted names may hold commas) and values.

    np.loadtxt converts each cell with the PyOS_string_to_double float() uses,
    so values keep float()'s bits, but reads ASCII numerals only ("1_000" fails).
    """
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        width = len(header)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                matrix = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None,
                                    quotechar='"', ndmin=2)
        except ValueError as exc:
            _raise_located(path, width, exc)
    if matrix.size == 0:
        matrix = matrix.reshape(0, width)
    elif matrix.shape[1] != width:
        _raise_located(path, width, f"{matrix.shape[1]} columns under a {width}-column header")
    return [h.strip() for h in header], matrix


def _read_labels(path):
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                labels.append(int(text))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: label {text!r} is not an integer") from None
    return np.array(labels, dtype=np.intp)


def _minmax_scale(matrix, observed):
    """Min-max columns to [0, 1] using only the observed rows' range.

    Unobserved rows hold placeholders that are never read, and come out as
    zeros, as do constant columns.
    """
    out = np.zeros_like(matrix)
    if not observed.any():
        return out
    fit = matrix[observed]
    lo = fit.min(axis=0, keepdims=True)
    hi = fit.max(axis=0, keepdims=True)
    span = hi - lo
    nonzero = span[0] > 0
    out[:, nonzero] = (matrix[:, nonzero] - lo[:, nonzero]) / span[:, nonzero]
    out[~observed] = 0.0
    return out


def _check_finite(path, matrix, observed):
    bad = ~np.isfinite(matrix) & observed[:, None]
    if bad.any():
        r, c = np.argwhere(bad)[0]
        lineno = [n for n, _ in _value_rows(path)][r]
        raise ParseError(f"{path}:{lineno}: non-finite observed cell "
                         f"{float(matrix[r, c])!r} in column {c + 1}")


def load_dataset(view_files, label_file, mask_file=None, class_count=None,
                 scale=False, view_names=None, note="") -> MultiOmicsDataset:
    """Read per-view CSVs plus a label file (and optional 0/1 mask CSV).

    Observed cells must be finite; unobserved cells may hold any placeholder,
    NaN and infinities included. With `scale`, each column is min-max scaled
    over its observed rows.
    """
    headers, views = zip(*(_read_matrix(path) for path in view_files))
    n = views[0].shape[0]
    for path, v in zip(view_files, views):
        if v.shape[0] != n:
            raise ParseError(f"{path}: {v.shape[0]} rows but first view has {n}")
    labels = _read_labels(label_file)
    if labels.shape[0] != n:
        raise ParseError(f"{label_file}: {labels.shape[0]} labels for {n} subjects")
    if class_count is None:
        class_count = int(labels.max()) + 1 if labels.size else 1
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ParseError(f"{label_file}: labels must lie in [0, {class_count})")
    if mask_file is not None:
        _, mask_matrix = _read_matrix(mask_file)
        if mask_matrix.shape != (n, len(views)):
            raise ParseError(f"{mask_file}: mask must be {n}x{len(views)}, got {mask_matrix.shape}")
        if not np.isin(mask_matrix, (0.0, 1.0)).all():
            raise ParseError(f"{mask_file}: mask entries must be 0 or 1")
        mask = mask_matrix.astype(bool)
    else:
        mask = np.ones((n, len(views)), dtype=bool)
    for i, path in enumerate(view_files):
        _check_finite(path, views[i], mask[:, i])
    if scale:
        views = [_minmax_scale(v, mask[:, i]) for i, v in enumerate(views)]
    if view_names is None:
        view_names = [os.path.splitext(os.path.basename(p))[0] for p in view_files]
    return MultiOmicsDataset(views=views, mask=mask, labels=labels,
                             class_count=class_count, view_names=view_names,
                             feature_names=headers, note=note)


def write_dataset(ds: MultiOmicsDataset, directory, manifest_extra=None) -> dict:
    """Write a dataset in the load_dataset format; floats round-trip exactly.

    Returns the manifest dict (also written as manifest.json).
    """
    os.makedirs(directory, exist_ok=True)
    files = {"views": [f"{name}.csv" for name in ds.view_names], "labels": "labels.csv",
             "mask": None if ds.is_complete() else "mask.csv"}
    for name, v, header in zip(files["views"], ds.views, ds.feature_names):
        with open(os.path.join(directory, name), "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            # csv.writer quotes no float repr and ends each row with "\r\n"
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in v.tolist())
    with open(os.path.join(directory, files["labels"]), "w") as fh:
        fh.writelines(f"{y}\n" for y in ds.labels.tolist())
    if files["mask"]:
        with open(os.path.join(directory, files["mask"]), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ds.view_names)
            for row in ds.mask:
                writer.writerow([int(x) for x in row])
    manifest = {
        "n_subjects": ds.n_subjects,
        "n_views": ds.n_views,
        "view_dims": list(ds.view_dims),
        "class_count": ds.class_count,
        "view_names": list(ds.view_names),
        "missing_rate": ds.missing_rate(),
        "note": ds.note,
        "files": files,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def load_dataset_dir(directory, scale=False) -> MultiOmicsDataset:
    """Read a dataset directory written by write_dataset (via its manifest)."""
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    files = manifest["files"]
    view_files = [os.path.join(directory, name) for name in files["views"]]
    mask_file = os.path.join(directory, files["mask"]) if files.get("mask") else None
    return load_dataset(view_files, os.path.join(directory, files["labels"]),
                        mask_file=mask_file, class_count=manifest["class_count"],
                        scale=scale, view_names=manifest["view_names"],
                        note=manifest.get("note", ""))


# ---------------------------------------------------------------------------
# Missingness simulation


@dataclass(frozen=True)
class MissingnessSpec:
    """Target missing rate eta, seed, and the view-drop policy.

    Policies: "uniform" draws the retained-view count uniformly from
    {1, ..., M-1} and then a uniform subset of that size; "drop:i[,j...]"
    removes exactly the listed views from every incomplete subject.
    """

    eta: float
    seed: int
    policy: str = "uniform"

    def __post_init__(self):
        coerce_fields(self)
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.policy != "uniform":
            _dropped_views(self.policy)


def _dropped_views(policy) -> list:
    """The sorted view indices a "drop:i[,j...]" policy names."""
    if policy.startswith("drop:"):
        try:
            return sorted({int(tok) for tok in policy[len("drop:"):].split(",")})
        except ValueError:
            pass
    raise ValueError(f"missingness policy must be 'uniform' or 'drop:' followed by "
                     f"comma-separated view indices, got {policy!r}")


def _parse_drop_policy(policy, m):
    dropped = _dropped_views(policy)
    if any(i < 0 or i >= m for i in dropped):
        raise ValueError(f"policy {policy!r} names a view outside [0, {m})")
    if len(dropped) >= m:
        raise ValueError(f"policy {policy!r} would leave no observed view")
    return dropped


def apply_missingness(ds: MultiOmicsDataset, spec: MissingnessSpec) -> MultiOmicsDataset:
    """Mask round(eta * N) subjects; each keeps between 1 and M-1 views.

    The input must be fully observed (missingness is applied once). Masked
    cells stay in storage for oracle comparisons but are never read.
    """
    if not ds.is_complete():
        raise MaskError("apply_missingness expects a fully observed dataset")
    n, m = ds.n_subjects, ds.n_views
    n_incomplete = int(round(spec.eta * n))
    rng = RngStream(spec.seed, "missingness")
    mask = np.ones((n, m), dtype=bool)
    incomplete = rng.permutation(n)[:n_incomplete]
    fixed_drop = None if spec.policy == "uniform" else _parse_drop_policy(spec.policy, m)
    for j in incomplete:
        if fixed_drop is not None:
            mask[j, fixed_drop] = False
        else:
            retained = int(rng.integers(1, m))
            kept = rng.permutation(m)[:retained]
            mask[j, :] = False
            mask[j, kept] = True
    out = replace_dataset_mask(ds, mask)
    out.note = (ds.note + " " if ds.note else "") + \
        f"[masked eta={spec.eta} seed={spec.seed} policy={spec.policy}]"
    return out


def replace_dataset_mask(ds: MultiOmicsDataset, mask) -> MultiOmicsDataset:
    """A copy of `ds` under a new observation mask."""
    return replace(ds, views=[v.copy() for v in ds.views],
                   mask=np.array(mask, dtype=bool), labels=ds.labels.copy())


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Shared-latent generator for desk-scale multi-view experiments.

    Each subject's shared latent is its class mean (scale `class_sep`) plus
    unit-variance noise; each view observes a view-specific random linear map
    of the latent plus independent noise scaled by 1/snr. The maps are banded:
    view i reads a contiguous window (half of the latent coordinates, windows
    overlapping across views), the way different measurement technologies
    capture different but correlated aspects of one underlying state. Every
    view therefore carries class signal, no single view carries all of it,
    and neighboring views stay mutually predictable, the structure the
    completion and contrastive terms rely on.
    """

    n_subjects: int = 400
    n_views: int = 3
    view_dims: tuple[int, ...] = (20, 20, 20)
    class_count: int = 3
    shared_dim: int = 36
    snr: float = 5.0
    class_sep: float = 1.5
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self)
        if min(self.n_subjects, self.n_views, self.class_count, self.shared_dim) < 1:
            raise ValueError("n_subjects, n_views, class_count and shared_dim must be >= 1")
        if len(self.view_dims) != self.n_views or any(d < 1 for d in self.view_dims):
            raise ValueError("view_dims needs one positive entry per view")
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")
        if not self.class_sep >= 0:
            raise ValueError(f"class_sep must be >= 0, got {self.class_sep}")


def _view_windows(shared_dim: int, n_views: int):
    """Contiguous, overlapping latent windows, one per view, covering all coords."""
    if n_views == 1:
        return [(0, shared_dim)]
    width = max(1, int(round(0.5 * shared_dim)))
    width = min(width, shared_dim)
    starts = np.linspace(0, shared_dim - width, num=n_views)
    return [(int(round(s)), int(round(s)) + width) for s in starts]


def synth_generate(spec: SyntheticSpec) -> MultiOmicsDataset:
    rng = RngStream(spec.seed, "synth")
    n, s = spec.n_subjects, spec.shared_dim
    labels = rng.child("labels").integers(0, spec.class_count, size=n).astype(np.intp)
    class_means = rng.child("class_means").normal(spec.class_count, s, scale=spec.class_sep)
    latents = class_means[labels] + rng.child("latents").normal(n, s)
    windows = _view_windows(s, spec.n_views)
    views = []
    for i, d in enumerate(spec.view_dims):
        lo, hi = windows[i]
        width = hi - lo
        view_map = np.zeros((s, d))
        view_map[lo:hi] = rng.child(f"map{i}").normal(width, d, scale=1.0 / np.sqrt(width))
        noise = rng.child(f"noise{i}").normal(n, d, scale=1.0 / spec.snr)
        views.append(latents @ view_map + noise)
    return MultiOmicsDataset(
        views=views,
        mask=np.ones((n, spec.n_views), dtype=bool),
        labels=labels,
        class_count=spec.class_count,
        note=f"synthetic seed={spec.seed} snr={spec.snr} sep={spec.class_sep}",
    )


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.7
    seed: int = 0

    def __post_init__(self):
        coerce_fields(self)
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


def _stratified_train_counts(labels, class_count, fraction):
    """Largest-remainder allocation of round(fraction*N) across classes: each
    class gets the floor of its share, and the classes with the largest
    remainders one more each. The floors sum to at most floor(fraction*N), so
    none is taken back, and no more classes than have a nonzero remainder
    get one, so none exceeds its size."""
    counts = np.bincount(labels, minlength=class_count)
    exact = fraction * counts
    base = np.floor(exact).astype(int)
    remaining = int(round(fraction * labels.size)) - base.sum()
    base[np.argsort(-(exact - base), kind="stable")[:remaining]] += 1
    return base


def split(ds: MultiOmicsDataset, spec: SplitSpec):
    """Seeded class-stratified partition into (train, test)."""
    rng = RngStream(spec.seed, "split")
    counts = np.bincount(ds.labels, minlength=ds.class_count)
    present = np.flatnonzero(counts)
    if np.any(counts[present] < 2):
        bad = int(present[counts[present] < 2][0])
        raise SplitError(f"class {bad} has fewer than 2 subjects; cannot stratify")
    train_counts = _stratified_train_counts(ds.labels, ds.class_count, spec.train_fraction)
    train_idx = []
    test_idx = []
    for c in range(ds.class_count):
        members = np.flatnonzero(ds.labels == c)
        if members.size == 0:
            continue
        order = members[rng.child(f"class{c}").permutation(members.size)]
        train_idx.append(order[:train_counts[c]])
        test_idx.append(order[train_counts[c]:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    if train_idx.size == 0 or test_idx.size == 0:
        raise SplitError("split left one side empty; adjust train_fraction")
    return ds.take(train_idx), ds.take(test_idx)
