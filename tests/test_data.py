"""Dataset container, file I/O, missingness, synthesis, splits."""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from clclsa import data as dt


def small_dataset(n=5):
    rng = np.random.default_rng(0)
    return dt.MultiOmicsDataset(
        views=[rng.normal(size=(n, 4)), rng.normal(size=(n, 3)), rng.normal(size=(n, 2))],
        mask=np.ones((n, 3), dtype=bool),
        labels=np.arange(n) % 2,
        class_count=2,
    )


class TestDatasetContainer:
    def test_shape_bookkeeping(self):
        ds = small_dataset()
        assert ds.n_subjects == 5 and ds.n_views == 3
        assert ds.view_dims == (4, 3, 2)

    def test_subject_with_no_views_rejected(self):
        mask = np.ones((3, 2), dtype=bool)
        mask[1] = False
        with pytest.raises(dt.MaskError):
            dt.MultiOmicsDataset(views=[np.zeros((3, 2)), np.zeros((3, 2))],
                                 mask=mask, labels=np.zeros(3, dtype=int), class_count=1)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(dt.ParseError):
            dt.MultiOmicsDataset(views=[np.zeros((2, 2)), np.zeros((2, 2))],
                                 mask=np.ones((2, 2), dtype=bool),
                                 labels=np.array([0, 2]), class_count=2)

    def test_complete_cases_filter(self):
        ds = small_dataset()
        masked = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.4, seed=1))
        kept = dt.complete_cases(masked)
        assert kept.n_subjects == 3
        assert kept.mask.all()


    def test_derived_datasets_own_their_names(self):
        ds = small_dataset()
        derived = [ds.take([0, 1]), dt.restrict_views(ds, [0, 1]), dt.minmax_scaled(ds),
                   dt.replace_dataset_mask(ds, ds.mask)]
        for out in derived:
            out.view_names[0] = "changed"
            out.feature_names[0][0] = "changed"
        assert ds.view_names[0] == "view0"
        assert ds.feature_names[0][0] == "f0"


class TestLoadWrite:
    def test_load_shapes(self, tmp_path):
        ds = small_dataset()
        dt.write_dataset(ds, tmp_path)
        loaded = dt.load_dataset_dir(tmp_path)
        assert loaded.n_views == 3 and loaded.n_subjects == 5
        assert loaded.class_count == 2

    def test_round_trip_values_exact(self, tmp_path):
        ds = small_dataset()
        ds.views[0][0, 0] = 1.0 / 3.0
        ds.views[1][2, 1] = np.pi
        dt.write_dataset(ds, tmp_path)
        loaded = dt.load_dataset_dir(tmp_path)
        for a, b in zip(ds.views, loaded.views):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ds.labels, loaded.labels)

    def test_mask_round_trip(self, tmp_path):
        ds = dt.apply_missingness(small_dataset(), dt.MissingnessSpec(eta=0.4, seed=3))
        dt.write_dataset(ds, tmp_path)
        loaded = dt.load_dataset_dir(tmp_path)
        np.testing.assert_array_equal(ds.mask, loaded.mask)

    def test_label_value_at_class_count_rejected(self, tmp_path):
        ds = small_dataset()
        dt.write_dataset(ds, tmp_path)
        (tmp_path / "labels.csv").write_text("0\n1\n2\n0\n1\n")
        with pytest.raises(dt.ParseError):
            dt.load_dataset(
                [tmp_path / f"view{i}.csv" for i in range(3)],
                tmp_path / "labels.csv", class_count=2)

    def test_non_integer_label_reports_its_line(self, tmp_path):
        dt.write_dataset(small_dataset(), tmp_path)
        (tmp_path / "labels.csv").write_text("0\n1\n\n1.5\n0\n1\n")
        with pytest.raises(dt.ParseError, match="labels.csv:4: label '1.5' is not an integer"):
            dt.load_dataset_dir(tmp_path)

    def test_label_count_mismatch_rejected(self, tmp_path):
        dt.write_dataset(small_dataset(), tmp_path)
        (tmp_path / "labels.csv").write_text("0\n1\n0\n")
        with pytest.raises(dt.ParseError, match="labels.csv: 3 labels for 5 subjects"):
            dt.load_dataset_dir(tmp_path)

    @pytest.mark.parametrize("text, message", [
        ("a,b\n" + "1,1\n" * 5, r"mask must be 5x3, got \(5, 2\)"),
        ("a,b,c\n" + "1,1,1\n" * 4, r"mask must be 5x3, got \(4, 3\)"),
        ("a,b,c\n" + "1,1,1\n" * 4 + "1,0.5,1\n", "mask entries must be 0 or 1"),
        ("a,b,c\n" + "1,1,1\n" * 4 + "2,1,1\n", "mask entries must be 0 or 1"),
    ], ids=["too_few_columns", "too_few_rows", "fraction", "two"])
    def test_malformed_mask_rejected(self, tmp_path, text, message):
        dt.write_dataset(small_dataset(), tmp_path)
        (tmp_path / "mask.csv").write_text(text)
        with pytest.raises(dt.ParseError, match=message):
            dt.load_dataset([tmp_path / f"view{i}.csv" for i in range(3)],
                            tmp_path / "labels.csv", mask_file=tmp_path / "mask.csv")

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(dt.ParseError, match="bad.csv:3"):
            dt.load_dataset([path], path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        va = tmp_path / "a.csv"
        vb = tmp_path / "b.csv"
        labels = tmp_path / "labels.csv"
        va.write_text("f\n1\n2\n")
        vb.write_text("f\n1\n")
        labels.write_text("0\n0\n")
        with pytest.raises(dt.ParseError):
            dt.load_dataset([va, vb], labels, class_count=1)

    def test_minmax_scaling_constant_column_is_zero(self, tmp_path):
        ds = small_dataset()
        ds.views[0][:, 2] = 4.2
        dt.write_dataset(ds, tmp_path)
        loaded = dt.load_dataset_dir(tmp_path, scale=True)
        np.testing.assert_array_equal(loaded.views[0][:, 2], 0.0)
        assert loaded.views[0].min() >= 0.0 and loaded.views[0].max() <= 1.0

    def test_non_finite_observed_cell_reports_location(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n1\n")
        for name, text, line in (("nan.csv", "a,b\n1.0,nan\n2.0,3.0\n", 2),
                                 ("inf.csv", "a,b\n1.0,2.0\n-inf,3.0\n", 3)):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(dt.ParseError, match=f"{name}:{line}"):
                dt.load_dataset([path], labels, class_count=2)

    def test_unobserved_cells_may_hold_non_finite_placeholders(self, tmp_path):
        va, vb = tmp_path / "a.csv", tmp_path / "b.csv"
        mask, labels = tmp_path / "mask.csv", tmp_path / "labels.csv"
        va.write_text("a,b\nnan,inf\n2.0,3.0\n")
        vb.write_text("c\n1.0\n4.0\n")
        mask.write_text("a,b\n0,1\n1,1\n")
        labels.write_text("0\n1\n")
        ds = dt.load_dataset([va, vb], labels, mask_file=mask, class_count=2)
        np.testing.assert_array_equal(ds.views[0][1], [2.0, 3.0])
        scaled = dt.load_dataset([va, vb], labels, mask_file=mask, class_count=2,
                                 scale=True)
        np.testing.assert_array_equal(scaled.views[0], 0.0)
        np.testing.assert_array_equal(scaled.views[1][:, 0], [0.0, 1.0])


def read_matrix_reference(path):
    """The view and mask reader as `data._read_matrix` was before np.loadtxt:
    csv.reader rows and one float() per cell. Returns the stripped header, the
    matrix, and the line number of each value row; raises the same ParseErrors."""
    rows, linenos = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise dt.ParseError(f"{path}: empty file") from None
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise dt.ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise dt.ParseError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
            linenos.append(lineno)
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    return [h.strip() for h in header], matrix, linenos


def write_view_reference(path, names, matrix):
    """The view writer as `data.write_dataset` was before one join per row:
    csv.writer rows of one `repr(float(x))` per numpy scalar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in matrix:
            writer.writerow([repr(float(x)) for x in row])


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# (name, file text); each must read as the reference reads it, or fail with the
# reference's ParseError message
READER_CASES = [
    ("blank_lines", "a,b\n1,2\n\n3,4\n\n"),
    ("line_after_blank_lines", "a,b\n1,2\n\n\n3,x\n"),
    ("crlf", "a,b\r\n1,2\r\n\r\n3,4\r\n"),
    ("cr_only", "a,b\r1,2\r3,4\r"),
    ("quoted_header_comma", '"x,y",b\n1,2\n'),
    ("quoted_header_line_break", '"x\ny",b\n1,2\n3,?\n'),
    ("quoted_numeric_cell", 'a,b\n"1.5",2\n"-0.0"," 7 "\n'),
    ("padded_cells", "a,b\n 1.5 ,\t2 \n"),
    ("header_only", "a,b\n"),
    ("header_and_blank_lines", "a,b\n\n\n"),
    ("one_column", "a\n1\n\n2.5e-3\n"),
    ("one_column_blank_cell", "a\n1\n\"\"\n"),
    ("trailing_comma", "a,b\n1,2\n1,2,\n"),
    ("trailing_comma_in_header_too", "a,b,\n1,2,\n"),
    ("ragged_row", "a,b\n1,2\n3\n"),
    ("ragged_first_row", "a,b,c\n1,2\n3,4\n"),
    ("whitespace_only_line", "a,b\n1,2\n   \n3,4\n"),
    ("whitespace_only_line_one_column", "a\n1\n \t\n3\n"),
    ("comment_cell", "a,b\n1,2\n#1,2\n"),
    ("empty_cell", "a,b\n1,\n"),
    ("hex_cell", "a,b\n0x10,2\n"),
    ("word_cell", "a,b\n1.0,2.0\n1.0,oops\n"),
    ("non_finite_words", "a,b\nnan,-inf\nInfinity,-NaN\n1e999,-1e999\n"),
    ("extremes", "a,b,c\n5e-324,-0.0,1.7976931348623157e308\n"),
    ("no_final_newline", "a,b\n1,2"),
]


class TestReaderMatchesReference:
    @pytest.mark.parametrize("text", [t for _, t in READER_CASES],
                             ids=[name for name, _ in READER_CASES])
    def test_same_values_or_same_error(self, tmp_path, text):
        path = tmp_path / "view.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            want = read_matrix_reference(path)
        except dt.ParseError as exc:
            with pytest.raises(dt.ParseError) as got:
                dt._read_matrix(path)
            assert str(got.value) == str(exc)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, matrix = dt._read_matrix(path)
        assert header == want[0]
        assert same_bits(matrix, want[1])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(dt.ParseError, match="empty.csv: empty file"):
            dt._read_matrix(path)

    @pytest.mark.parametrize("cell", ["1_000", "١", "１"])
    def test_numeral_only_float_reads_is_rejected(self, tmp_path, cell):
        """The one departure from the reference reader, which takes these."""
        path = tmp_path / "view.csv"
        path.write_text(f"a,b\n1,2\n\n3,{cell}\n", encoding="utf-8")
        read_matrix_reference(path)
        with pytest.raises(dt.ParseError, match=f"view.csv:4: non-numeric cell .*'{cell}'"):
            dt._read_matrix(path)

    def test_non_finite_observed_cell_after_blank_lines_names_its_line(self, tmp_path):
        view, labels = tmp_path / "view.csv", tmp_path / "labels.csv"
        view.write_text("a,b\n1,2\n\n\n3,4\n5,inf\n")
        labels.write_text("0\n1\n0\n")
        assert read_matrix_reference(view)[2] == [2, 5, 6]
        with pytest.raises(dt.ParseError,
                           match=r"view.csv:6: non-finite observed cell inf in column 2$"):
            dt.load_dataset([view], labels)


def float64s(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


SPECIAL_BITS = [int(np.array(x).view(np.uint64)) for x in
                (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.finfo(float).max,
                 np.finfo(float).tiny, 1.0 / 3.0, np.nan, -np.nan, np.inf, -np.inf)]
CELL_BITS = st.one_of(st.integers(0, 2 ** 64 - 1), st.sampled_from(SPECIAL_BITS))


@st.composite
def masked_datasets(draw):
    """Two views of arbitrary float64 bit patterns. Observed cells are finite;
    unobserved cells keep whatever they drew, NaN payloads and infinities
    included."""
    n = draw(st.integers(1, 6))
    widths = [draw(st.integers(1, 4)) for _ in range(2)]
    mask = np.array([draw(st.sampled_from([(1, 1), (1, 0), (0, 1)])) for _ in range(n)],
                    dtype=bool)
    views = []
    for i, d in enumerate(widths):
        v = float64s(draw(st.lists(CELL_BITS, min_size=n * d, max_size=n * d))).reshape(n, d)
        observed = mask[:, i][:, None] & ~np.isfinite(v)
        views.append(np.where(observed, -0.0, v))
    return dt.MultiOmicsDataset(views=views, mask=mask, labels=np.zeros(n, dtype=int),
                                class_count=1)


class TestWriterAndReaderMatchReference:
    @given(masked_datasets())
    @example(dt.MultiOmicsDataset(views=[float64s(SPECIAL_BITS).reshape(3, 4), np.ones((3, 1))],
                                  mask=[[0, 1]] * 3, labels=[0, 0, 0], class_count=1))
    def test_bytes_and_bits(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            dt.write_dataset(ds, tmp / "new")
            for i, (v, names) in enumerate(zip(ds.views, ds.feature_names)):
                written = tmp / "new" / f"{ds.view_names[i]}.csv"
                write_view_reference(tmp / "reference.csv", names, v)
                assert written.read_bytes() == (tmp / "reference.csv").read_bytes()
                header, matrix, _ = read_matrix_reference(written)
                got_header, got = dt._read_matrix(written)
                assert got_header == header and same_bits(got, matrix)
                observed = ds.mask[:, i]
                assert same_bits(matrix[observed], v[observed])
            np.testing.assert_array_equal(dt.load_dataset_dir(tmp / "new").mask, ds.mask)
            if not ds.is_complete():
                mask_file = tmp / "new" / "mask.csv"
                assert same_bits(dt._read_matrix(mask_file)[1],
                                 read_matrix_reference(mask_file)[1])


class TestApplyMissingness:
    def test_eta_zero_is_identity(self):
        ds = small_dataset()
        out = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.0, seed=0))
        assert out.mask.all()
        np.testing.assert_array_equal(out.views[0], ds.views[0])

    def test_counts_forced_by_eta(self):
        rng = np.random.default_rng(1)
        ds = dt.MultiOmicsDataset(
            views=[rng.normal(size=(100, 3)) for _ in range(3)],
            mask=np.ones((100, 3), dtype=bool),
            labels=np.zeros(100, dtype=int), class_count=1)
        out = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.5, seed=2))
        incomplete = ~out.mask.all(axis=1)
        assert incomplete.sum() == 50
        kept = out.mask[incomplete].sum(axis=1)
        assert set(kept.tolist()) <= {1, 2}

    def test_deterministic(self):
        ds = small_dataset(50)
        a = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.3, seed=9))
        b = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.3, seed=9))
        np.testing.assert_array_equal(a.mask, b.mask)

    def test_double_masking_rejected(self):
        ds = small_dataset()
        once = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.4, seed=0))
        with pytest.raises(dt.MaskError):
            dt.apply_missingness(once, dt.MissingnessSpec(eta=0.4, seed=0))

    def test_never_leaves_zero_views_and_realized_eta(self):
        rng = np.random.default_rng(2)
        for n, eta in ((37, 0.25), (101, 0.8), (64, 1.0)):
            ds = dt.MultiOmicsDataset(
                views=[rng.normal(size=(n, 2)) for _ in range(3)],
                mask=np.ones((n, 3), dtype=bool),
                labels=np.zeros(n, dtype=int), class_count=1)
            out = dt.apply_missingness(ds, dt.MissingnessSpec(eta=eta, seed=5))
            assert out.mask.sum(axis=1).min() >= 1
            assert abs(out.missing_rate() - eta) < 1.0 / n + 1e-12

    def test_uniform_policy_statistics(self):
        """Retained-count and per-view drop frequencies over many seeded draws."""
        n, m = 10_000, 3
        ds = dt.MultiOmicsDataset(
            views=[np.zeros((n, 1)) for _ in range(m)],
            mask=np.ones((n, m), dtype=bool),
            labels=np.zeros(n, dtype=int), class_count=1)
        out = dt.apply_missingness(ds, dt.MissingnessSpec(eta=1.0, seed=11))
        kept_counts = out.mask.sum(axis=1)
        freq_one = (kept_counts == 1).mean()
        assert abs(freq_one - 0.5) < 0.02
        drop_freq = (~out.mask).mean(axis=0)
        assert np.abs(drop_freq - drop_freq.mean()).max() < 0.02

    def test_fixed_drop_policy(self):
        ds = small_dataset(20)
        out = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.5, seed=3, policy="drop:2"))
        incomplete = ~out.mask.all(axis=1)
        assert incomplete.sum() == 10
        assert (~out.mask[incomplete, 2]).all()
        assert out.mask[incomplete][:, :2].all()

    def test_bad_policies_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.5, seed=0, policy="drop:0,1,2"))
        with pytest.raises(ValueError):
            dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.5, seed=0, policy="nonsense"))

    @pytest.mark.parametrize("policy", ["nonsense", "drop:", "drop:x", "drop:0,,1", "drop", 2])
    def test_malformed_policy_rejected_by_the_spec(self, policy):
        with pytest.raises(ValueError, match=f"got {policy!r}"):
            dt.MissingnessSpec(eta=0.5, seed=0, policy=policy)

    def test_view_index_checked_against_the_data(self):
        spec = dt.MissingnessSpec(eta=0.5, seed=0, policy="drop:3")
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            dt.apply_missingness(small_dataset(), spec)


class TestSynthGenerate:
    def test_single_class_labels_all_zero(self):
        spec = dt.SyntheticSpec(n_subjects=30, class_count=1, seed=4)
        ds = dt.synth_generate(spec)
        assert (ds.labels == 0).all()
        assert (np.zeros(30, dtype=int) == ds.labels).mean() == 1.0

    @pytest.mark.parametrize("name", ["n_subjects", "n_views", "class_count", "shared_dim"])
    @pytest.mark.parametrize("value", [10.5, 3.0, float("nan"), True])
    def test_non_integer_count_rejected(self, name, value):
        # n_subjects=10.5 once died in the generator with a TypeError
        with pytest.raises(ValueError, match=f"{name} takes integers only, got {value!r}"):
            dt.SyntheticSpec(**{name: value})

    def test_fractional_view_width_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="view_dims takes integers only, got 4.7"):
            dt.SyntheticSpec(view_dims=(4.7, 20, 20))

    def test_numpy_integer_counts_become_ints(self):
        spec = dt.SyntheticSpec(n_subjects=np.int64(30), view_dims=np.array([4, 5, 6]))
        assert type(spec.n_subjects) is int and spec.view_dims == (4, 5, 6)
        assert all(type(d) is int for d in spec.view_dims)

    @pytest.mark.parametrize("snr", [0.0, -1.0, float("nan")])
    def test_non_positive_or_nan_snr_rejected(self, snr):
        rule = "must be finite" if np.isnan(snr) else "must be positive"
        with pytest.raises(ValueError, match=f"snr {rule}, got {snr}"):
            dt.SyntheticSpec(snr=snr)

    @pytest.mark.parametrize("sep, rule", [(float("inf"), "must be finite"),
                                           (float("nan"), "must be finite"),
                                           (-3.0, "must be >= 0"), ("1.5", "takes reals only"),
                                           (True, "takes reals only")],
                             ids=["inf", "nan", "-3.0", "1.5", "True"])
    def test_class_sep_outside_the_finite_non_negative_reals_rejected(self, sep, rule):
        with pytest.raises(ValueError, match=f"class_sep {rule}, got {sep!r}"):
            dt.SyntheticSpec(class_sep=sep)

    def test_class_sep_of_zero_accepted(self):
        assert dt.SyntheticSpec(class_sep=0).class_sep == 0

    def test_nearest_centroid_oracle_at_extreme_snr(self):
        spec = dt.SyntheticSpec(n_subjects=200, class_count=3, snr=1e6, seed=5)
        ds = dt.synth_generate(spec)
        x = np.concatenate(ds.views, axis=1)
        means = np.stack([x[ds.labels == c].mean(axis=0) for c in range(3)])
        pred = np.argmin(((x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
        assert (pred == ds.labels).mean() >= 0.99

    def test_deterministic(self):
        spec = dt.SyntheticSpec(seed=6)
        a = dt.synth_generate(spec)
        b = dt.synth_generate(spec)
        for va, vb in zip(a.views, b.views):
            np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_cross_view_predictability(self):
        """A linear map view1 -> view2 explains most variance at snr >= 3."""
        spec = dt.SyntheticSpec(n_subjects=800, snr=3.0, seed=7)
        ds = dt.synth_generate(spec)
        n_fit = 500
        x1 = np.hstack([ds.views[0], np.ones((800, 1))])
        w = np.linalg.lstsq(x1[:n_fit], ds.views[1][:n_fit], rcond=None)[0]
        resid = ds.views[1][n_fit:] - x1[n_fit:] @ w
        total = ds.views[1][n_fit:] - ds.views[1][n_fit:].mean(axis=0)
        r2 = 1.0 - (resid ** 2).sum() / (total ** 2).sum()
        assert r2 >= 0.5

    def test_every_view_carries_class_signal(self):
        spec = dt.SyntheticSpec(n_subjects=600, seed=8)
        ds = dt.synth_generate(spec)
        for v in ds.views:
            means = np.stack([v[ds.labels == c].mean(axis=0) for c in range(3)])
            pred = np.argmin(((v[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)
            assert (pred == ds.labels).mean() > 0.5  # well above the 1/3 chance level


class TestSplit:
    def test_stratified_counts(self):
        ds = dt.MultiOmicsDataset(
            views=[np.zeros((10, 2)), np.zeros((10, 2))],
            mask=np.ones((10, 2), dtype=bool),
            labels=np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1]), class_count=2)
        train, test = dt.split(ds, dt.SplitSpec(train_fraction=0.7, seed=0))
        assert train.n_subjects == 7 and test.n_subjects == 3
        counts = np.bincount(train.labels, minlength=2)
        assert abs(counts[0] - counts[1]) <= 1

    def test_partition_property(self):
        ds = small_dataset(20)
        marker = np.arange(20.0).reshape(-1, 1)
        ds.views[0] = np.hstack([ds.views[0], marker])
        train, test = dt.split(ds, dt.SplitSpec(seed=1))
        ids = np.concatenate([train.views[0][:, -1], test.views[0][:, -1]])
        assert sorted(ids.tolist()) == list(range(20))

    def test_deterministic(self):
        ds = small_dataset(30)
        a_train, _ = dt.split(ds, dt.SplitSpec(seed=2))
        b_train, _ = dt.split(ds, dt.SplitSpec(seed=2))
        np.testing.assert_array_equal(a_train.views[0], b_train.views[0])

    def test_small_class_under_stratification_rejected(self):
        ds = dt.MultiOmicsDataset(
            views=[np.zeros((4, 2)), np.zeros((4, 2))],
            mask=np.ones((4, 2), dtype=bool),
            labels=np.array([0, 0, 0, 1]), class_count=2)
        with pytest.raises(dt.SplitError):
            dt.split(ds, dt.SplitSpec(seed=0))


def allocation_reference(labels, class_count, fraction):
    """Largest-remainder allocation with every guard: floors clamped to the class
    sizes, the shortfall handed out by largest remainder to classes with room,
    an excess taken back by smallest remainder."""
    counts = np.bincount(labels, minlength=class_count)
    total_train = int(round(fraction * labels.size))
    exact = fraction * counts
    base = np.minimum(np.floor(exact).astype(int), counts)
    remaining = total_train - base.sum()
    if remaining > 0:
        for c in np.argsort(-(exact - base), kind="stable"):
            if remaining and base[c] < counts[c]:
                base[c] += 1
                remaining -= 1
    else:
        for c in np.argsort(exact - base, kind="stable"):
            if remaining and base[c] > 0:
                base[c] -= 1
                remaining += 1
    return base


class TestSplitAndMaskProperties:
    @given(n=st.integers(1, 30), m=st.integers(2, 4), eta=st.floats(0.0, 1.0),
           drop=st.sets(st.integers(0, 3), max_size=3), seed=st.integers(0, 2 ** 16))
    def test_every_subject_keeps_a_view(self, n, m, eta, drop, seed):
        """Uniform or fixed-drop policy: exactly round(eta*N) subjects lose views,
        and each subject keeps at least one."""
        drop = sorted(v for v in drop if v < m)[:m - 1]
        policy = "drop:" + ",".join(map(str, drop)) if drop else "uniform"
        ds = dt.MultiOmicsDataset(views=[np.zeros((n, 1))] * m, mask=np.ones((n, m), bool),
                                  labels=np.zeros(n, int), class_count=1)
        out = dt.apply_missingness(ds, dt.MissingnessSpec(eta=eta, seed=seed, policy=policy))
        assert out.mask.any(axis=1).all()
        assert int((~out.mask.all(axis=1)).sum()) == int(round(eta * n))

    @given(counts=st.lists(st.integers(2, 12), min_size=1, max_size=4),
           fraction=st.floats(0.05, 0.95), seed=st.integers(0, 2 ** 16))
    def test_stratified_train_counts_follow_the_fraction(self, counts, fraction, seed):
        labels = np.repeat(np.arange(len(counts)), counts)
        n = labels.size
        ds = dt.MultiOmicsDataset(views=[np.arange(n, dtype=float)[:, None]] * 2,
                                  mask=np.ones((n, 2), bool), labels=labels,
                                  class_count=len(counts))
        try:
            train, test = dt.split(ds, dt.SplitSpec(train_fraction=fraction, seed=seed))
        except dt.SplitError:
            assume(False)
        train_counts = np.bincount(train.labels, minlength=len(counts))
        assert np.all(np.abs(train_counts - fraction * np.array(counts)) <= 1.0)
        ids = np.concatenate([train.views[0][:, 0], test.views[0][:, 0]])
        assert sorted(ids.tolist()) == list(range(n))


@given(counts=st.lists(st.integers(0, 60), min_size=1, max_size=6),
       fraction=st.floats(0.01, 0.99))
def test_train_counts_need_no_guard(counts, fraction):
    """The remainder step alone gives the guarded allocation, empty classes included."""
    labels = np.repeat(np.arange(len(counts)), counts)
    got = dt._stratified_train_counts(labels, len(counts), fraction)
    assert got.tolist() == allocation_reference(labels, len(counts), fraction).tolist()


class TestRestrictViews:
    def test_restriction_shrinks_m(self):
        ds = small_dataset()
        sub = dt.restrict_views(ds, [0, 2])
        assert sub.n_views == 2
        assert sub.view_dims == (4, 2)
        np.testing.assert_array_equal(sub.views[1], ds.views[2])

    def test_singleton_subset_rejected(self):
        with pytest.raises(ValueError):
            dt.restrict_views(small_dataset(), [1])

    def test_drops_subjects_with_nothing_left(self):
        ds = small_dataset()
        masked = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.6, seed=4, policy="uniform"))
        sub = dt.restrict_views(masked, [0, 1])
        assert sub.mask.sum(axis=1).min() >= 1


class TestMinmaxScaled:
    def test_range_and_mask_preserved(self):
        ds = small_dataset()
        masked = dt.apply_missingness(ds, dt.MissingnessSpec(eta=0.4, seed=5))
        out = dt.minmax_scaled(masked)
        for v in out.views:
            assert v.min() >= 0.0 and v.max() <= 1.0
        np.testing.assert_array_equal(out.mask, masked.mask)

    def test_range_comes_from_observed_rows_only(self, tmp_path):
        masked = dt.apply_missingness(small_dataset(30), dt.MissingnessSpec(eta=0.4, seed=5))
        results = []
        for k, placeholder in enumerate((0.0, np.nan, 1e6)):
            ds = dt.replace_dataset_mask(masked, masked.mask)
            for i, v in enumerate(ds.views):
                v[~ds.mask[:, i]] = placeholder
            dt.write_dataset(ds, tmp_path / str(k))
            results.append(dt.minmax_scaled(ds))
            results.append(dt.load_dataset_dir(tmp_path / str(k), scale=True))
        for out in results:
            for i, v in enumerate(out.views):
                observed = masked.mask[:, i]
                np.testing.assert_array_equal(v[observed], results[0].views[i][observed])
                np.testing.assert_array_equal(v[~observed], 0.0)
                assert v[observed].min() == 0.0 and v[observed].max() == 1.0

    def test_complete_data_scales_as_plain_column_minmax(self):
        ds = small_dataset(12)
        out = dt.minmax_scaled(ds)
        for v, raw in zip(out.views, ds.views):
            lo, hi = raw.min(axis=0, keepdims=True), raw.max(axis=0, keepdims=True)
            np.testing.assert_array_equal(v, (raw - lo) / (hi - lo))
