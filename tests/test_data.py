import codecs
import random
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from adascale import configio, data
from adascale.data import (
    FORMATS,
    Dataset,
    FileSource,
    GeneratorConfig,
    StratificationWarning,
    StratifiedSampler,
    UnderSampler,
    UniformSampler,
    _centroid_directions,
    _even_split,
    batches,
    generate,
    generate_with_structure,
    load,
    save,
)


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.zeros((2, 2)), np.array([0, 3]), k=3)

    def test_non_finite_features(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([[np.inf, 0.0]]), np.array([0]), k=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Dataset(np.zeros((0, 2)), np.array([], dtype=int), k=2)

    def test_no_feature_columns_rejected(self):
        # no model takes zero inputs, and a CSV could not hold such a dataset
        with pytest.raises(ValueError, match="features must have at least one column"):
            Dataset(np.zeros((2, 0)), np.array([0, 1]), k=2)

    @pytest.mark.parametrize(
        "features, labels, k, message",
        [
            (np.zeros(2), [0, 1], 2, "features must be a 2-D matrix"),
            (np.zeros((2, 2)), [0, 1, 0], 2, "labels must be one per feature row"),
            (np.zeros((2, 2)), [0.0, 0.5], 2, "labels must be integers"),
            (np.zeros((2, 2)), [0, 0], 1, "k must be >= 2"),
        ],
        ids=["1-D features", "extra label", "fractional label", "one class"],
    )
    def test_rejections(self, features, labels, k, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features, np.array(labels), k=k)

    @pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf, 1e30, 2.0**63, 2**70, None, 1 + 0j], ids=str)
    def test_non_finite_or_huge_float_label_rejected_without_warning(self, label):
        # the integer check comes before the cast to int64, which would warn on these
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="labels must be integers"):
                Dataset(np.zeros((2, 2)), np.array([label, 1.0]), k=2)
        assert [str(w.message) for w in caught] == []

    def test_integral_float_labels_stored_as_int64(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0.0, 1.0]), k=2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1]

    def test_object_and_bool_labels_stored_as_int64(self):
        for labels in (np.array([1, 0], dtype=object), np.array([True, False])):
            ds = Dataset(np.zeros((2, 2)), labels, k=2)
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

    def test_immutability(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1]), k=2)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0


class TestGenerator:
    def test_exact_positive_count(self):
        ds = generate(GeneratorConfig(n=1000, d=4, k=3, positive_rate=0.02, seed=0))
        labels = ds.labels
        assert int((labels != 0).sum()) == 20
        assert int((labels == 1).sum()) == 10
        assert int((labels == 2).sum()) == 10

    def test_uneven_split_across_classes(self):
        ds = generate(GeneratorConfig(n=1000, d=4, k=4, positive_rate=0.02, seed=0))
        counts = [int((ds.labels == c).sum()) for c in (1, 2, 3)]
        assert sum(counts) == 20
        assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        cfg = GeneratorConfig(n=500, d=6, k=3, seed=9)
        a = generate(cfg)
        b = generate(cfg)
        npt.assert_array_equal(a.features, b.features)
        npt.assert_array_equal(a.labels, b.labels)

    def test_negative_mode_purity(self):
        # nearest-centroid assignment must recover the generating mode for
        # nearly all negatives once clusters are 4 noise-scales apart
        cfg = GeneratorConfig(
            n=6000, d=10, k=3, positive_rate=0.02, negative_modes=3,
            class_separation=4.0, noise_scale=1.0, seed=3,
        )
        ds, details = generate_with_structure(cfg)
        neg_rows = details.negative_mode >= 0
        feats = ds.features[neg_rows]
        true_mode = details.negative_mode[neg_rows]
        dists = np.linalg.norm(
            feats[:, None, :] - details.negative_centroids[None, :, :], axis=2
        )
        assigned = np.argmin(dists, axis=1)
        purity = float(np.mean(assigned == true_mode))
        assert purity >= 0.90

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n=0)
        with pytest.raises(ValueError):
            GeneratorConfig(positive_rate=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(n=100, k=4, positive_rate=0.02)  # rounds to 2 < k-1

    def test_n_beyond_a_float(self):
        # n_positive takes n as a float; no n of this size could ever be generated
        with pytest.raises(ValueError) as caught:
            configio.from_json(GeneratorConfig, {"n": 10**400})
        assert str(caught.value) == (
            f"GeneratorConfig.n must be <= {sys.float_info.max!r}, got 100000000000000000...0000000000000000000"
        )

    @pytest.mark.parametrize(
        "config",
        [
            GeneratorConfig(n=400, d=5, k=2, positive_rate=0.1, negative_modes=1, seed=1),
            GeneratorConfig(n=1001, d=3, k=5, positive_rate=0.37, negative_modes=4, seed=7),
            GeneratorConfig(n=13, d=2, k=3, positive_rate=0.9, negative_modes=2, noise_scale=0.3, seed=2),
            GeneratorConfig(n=1, d=1, k=2, positive_rate=0.6, seed=5),
        ],
        ids=["k=2, one mode", "uneven counts", "more clusters than dimensions", "no negatives"],
    )
    def test_one_draw_equals_a_draw_per_cluster(self, config):
        # the rows of each cluster, drawn one cluster after another from the seed's stream
        rng = np.random.default_rng(config.seed)
        centroids = config.class_separation * _centroid_directions(rng, config.k - 1 + config.negative_modes, config.d)
        n_pos = config.n_positive
        counts = _even_split(n_pos, config.k - 1) + _even_split(config.n - n_pos, config.negative_modes)
        labels = [*range(1, config.k), *[0] * config.negative_modes]
        modes = [*[-1] * (config.k - 1), *range(config.negative_modes)]
        feats = np.concatenate(
            [c + config.noise_scale * rng.standard_normal((count, config.d)) for c, count in zip(centroids, counts)]
        )
        order = rng.permutation(config.n)
        ds, details = generate_with_structure(config)
        assert ds.features.tobytes() == feats[order].tobytes()
        assert ds.labels.tolist() == np.repeat(labels, counts)[order].tolist()
        assert details.negative_mode.dtype == np.int64
        assert details.negative_mode.tolist() == np.repeat(modes, counts)[order].tolist()

    def test_more_clusters_than_dimensions(self):
        cfg = GeneratorConfig(n=200, d=2, k=3, positive_rate=0.1, negative_modes=4, seed=1)
        ds = generate(cfg)
        assert ds.d == 2 and ds.k == 3


class TestSaveLoad:
    def test_csv_round_trip(self, tmp_path):
        ds = generate(GeneratorConfig(n=50, d=3, k=3, positive_rate=0.1, seed=5))
        path = tmp_path / "data.csv"
        save(ds, path)
        back = load(path)
        npt.assert_array_equal(back.features, ds.features)
        npt.assert_array_equal(back.labels, ds.labels)
        assert back.k == ds.k

    def test_jsonl_round_trip(self, tmp_path):
        ds = generate(GeneratorConfig(n=50, d=3, k=3, positive_rate=0.1, seed=6))
        path = tmp_path / "data.jsonl"
        save(ds, path)
        back = load(path)
        npt.assert_array_equal(back.features, ds.features)
        npt.assert_array_equal(back.labels, ds.labels)

    def test_csv_schema_example(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n0.5,1.5,1\n-1.0,2.0,0\n0.0,0.25,1\n")
        ds = load(path)
        assert ds.d == 2 and ds.n == 3 and ds.k == 2

    def test_negative_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,-1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            load(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:1"):
            load(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2.*columns"):
            load(path)

    def test_malformed_float(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nouch,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            load(path)

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\nnan,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2.*finite"):
            load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n")
        # numpy's "input contained no data" warning stays inside the load
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError, match="no data rows"):
            warnings.simplefilter("always")
            load(path)
        assert caught == []

    def test_jsonl_errors_name_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [1.0], "label": 0}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load(path)
        path.write_text('{"features": [1.0]}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:1"):
            load(path)
        path.write_text('{"features": [1.0], "label": -2}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:1"):
            load(path)

    def test_jsonl_rejects_boolean_features(self, tmp_path):
        # as CSV rejects the value True as a malformed feature
        path = tmp_path / "bool.jsonl"
        path.write_text('{"features": [true, 0.5], "label": 0}\n')
        with pytest.raises(ValueError, match=r"bool\.jsonl:1: 'features' must be a list of finite reals"):
            load(path)

    def test_jsonl_rejects_integer_feature_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        path.write_text('{"features": [0.5], "label": 0}\n{"features": [1' + "0" * 400 + '], "label": 0}\n')
        with pytest.raises(ValueError, match=r"huge\.jsonl:2: 'features' must be a list of finite reals"):
            load(path)

    @pytest.mark.parametrize("label", [2**63, 10**30])
    @pytest.mark.parametrize(
        "name, text, lineno",
        [
            ("big.csv", "f0,label\n0.5,0\n0.5,{}\n", 3),
            ("big.jsonl", '{{"features": [0.5], "label": 0}}\n{{"features": [0.5], "label": {}}}\n', 2),
        ],
    )
    def test_label_beyond_int64(self, tmp_path, name, text, lineno, label):
        path = tmp_path / name
        path.write_text(text.format(label))
        with pytest.raises(ValueError, match=rf"{name}:{lineno}: label {label} out of range"):
            load(path)
        path.write_text(text.format(2**63 - 1))
        assert load(path).labels[1] == 2**63 - 1

    @pytest.mark.parametrize("label", ["1.0", "true", '"1"'])
    def test_jsonl_label_not_an_integer_is_malformed(self, tmp_path, label):
        # as the CSV loader reads a label int() cannot parse
        path = tmp_path / "labels.jsonl"
        path.write_text('{"features": [0.5], "label": 0}\n{"features": [0.5], "label": ' + label + "}\n")
        with pytest.raises(ValueError) as caught:
            load(path)
        assert str(caught.value) == f"{path}:2: malformed label"

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("zero.csv", "label\r\n0\r\n1\r\n", "1: header must be f0,...,f{d-1},label"),
            ("zero.jsonl", '{"features": [], "label": 0}\n{"features": [], "label": 1}\n',
             "1: 'features' must not be empty"),
        ],
        ids=FORMATS,
    )
    def test_zero_width_rejected(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            load(path)
        assert str(caught.value) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "line",
        ['{"features": [1' + "0" * 5000 + '], "label": 0}', '{"features": [0.5], "label": 1' + "0" * 5000 + "}"],
        ids=["feature", "label"],
    )
    def test_jsonl_integer_beyond_digit_limit(self, tmp_path, line):
        # json.loads refuses to convert more than 4,300 digits to an int
        path = tmp_path / "long.jsonl"
        path.write_text('{"features": [0.5], "label": 0}\n' + line + "\n")
        with pytest.raises(ValueError) as caught:
            load(path)
        assert str(caught.value) == f"{path}:2: integer too long to parse"

    def test_jsonl_nested_too_deeply(self, tmp_path):
        # json.loads recurses once per nested list
        path = tmp_path / "deep.jsonl"
        path.write_text('{"features": [0.5], "label": 0}\n{"features": ' + "[" * 100_000 + "\n")
        with pytest.raises(ValueError) as caught:
            load(path)
        assert str(caught.value) == f"{path}:2: JSON nested too deeply"

    def test_csv_error_names_the_physical_line(self, tmp_path):
        # a quoted field holds a newline, so the bad row is the third record but the fourth line
        path = tmp_path / "quoted.csv"
        path.write_text('f0,label\n"0.5\n",0\n0.x,1\n')
        with pytest.raises(ValueError) as caught:
            load(path)
        assert str(caught.value) == f"{path}:4: malformed feature value"

    @pytest.mark.parametrize("lineno", [1, 2, 3])
    def test_csv_field_over_the_size_limit(self, tmp_path, lineno):
        # the csv module refuses a field over 131,072 characters with its own csv.Error
        path = tmp_path / "wide.csv"
        wide = "1" + "0" * 200_000
        texts = {
            1: f"f{wide},label\n",
            # finite, and numpy's tokenizer reads it as 0.0
            2: f"f0,label\n0.{'0' * 200_000}1,0\n0.5,1\n",
            3: f"f0,label\n0.5,0\n{wide},1\n",
        }
        path.write_text(texts[lineno])
        with pytest.raises(ValueError) as caught:
            load(path)
        assert str(caught.value) == f"{path}:{lineno}: field larger than field limit (131072)"

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("bad.csv", b"f0,label\r\n0.5,0\r\n0.\xff5,1\r\n",
             "3: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
            ("bad.jsonl", b'{"features": [0.5], "label": 0}\n{"features": [\xff], "label": 1}\n',
             "2: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
        ],
        ids=FORMATS,
    )
    def test_undecodable_bytes_name_the_line(self, tmp_path, name, data, message):
        # text is decoded in chunks of many lines, so the line is found by decoding each on its own
        path = tmp_path / name
        path.write_bytes(data + b"0.5,0\r\n" * 5000 if name.endswith("csv") else data)
        with pytest.raises(ValueError) as caught:
            load(path)
        assert str(caught.value) == f"{path}:{message}"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_load_memory_bounded_by_matrix(self, tmp_path, fmt):
        # rows are parsed straight into one float64 matrix: a list of
        # per-row Python floats would peak near 7x the matrix
        path = tmp_path / f"train.{fmt}"
        save(generate(GeneratorConfig(n=10_000, seed=3)), path)
        tracemalloc.start()
        try:
            ds = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (10_000, 20)
        assert peak <= 3 * ds.features.nbytes

    def test_saved_csv_loads_without_the_row_loop(self, tmp_path, monkeypatch):
        # numpy's tokenizer reads what save writes; the row loop is only for
        # lenient values and for naming the first bad line
        ds = generate(GeneratorConfig(n=500, seed=5))
        path = tmp_path / "d.csv"
        save(ds, path)
        monkeypatch.setattr(data, "_load_csv", _no_row_loop)
        back = load(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert back.k == ds.k

    def test_tokenizer_agrees_with_the_row_loop(self, tmp_path, monkeypatch):
        # seeded CSV texts, mostly valid rows with one edit in some: whatever
        # numpy's tokenizer accepts, the row loop reads to the same bytes
        rnd = random.Random(26)
        edits = ["", " ", "\t", '"', '""', ",", "\r", "\n", "#", "_", "-", "e", "nan", "\xa0", "\u0661", "7.0", "x"]
        path = tmp_path / "t.csv"
        accepted = 0
        for _ in range(300):
            rows = []
            for _ in range(rnd.randint(1, 4)):
                features = [rnd.choice(["0.5", "-1e-3", " 2 ", '"4"']) for _ in range(2)]
                row = ",".join([*features, rnd.choice(["0", "+1", "-0", '"3"'])])
                if rnd.random() < 0.3:
                    at = rnd.randrange(len(row) + 1)
                    row = row[:at] + rnd.choice(edits) + row[at + rnd.randint(0, 2) :]
                rows.append(row + rnd.choice(["\n", "\r\n", "\r"]))
            path.write_text(rnd.choice(["f0,f1,label", '"f0",f1,"label"']) + "\r\n" + "".join(rows))
            accepted += data._load_csv_table(path) is not None
            with monkeypatch.context() as m:
                m.setattr(data, "_load_csv_table", lambda path: None)
                by_rows = _loaded(path)
            assert _loaded(path) == by_rows, path.read_text()
        # both paths read a share of the texts
        assert 100 < accepted < 290

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_save_memory_bounded_by_a_block(self, tmp_path, fmt):
        # rows are formatted 512 at a time, about 0.4x the matrix here: the
        # whole file's text would be near 3x
        ds = generate(GeneratorConfig(n=10_000, seed=3))
        tracemalloc.start()
        try:
            save(ds, tmp_path / f"train.{fmt}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ds.features.nbytes / 2

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_byte_order_mark_skipped(self, tmp_path, fmt):
        # spreadsheet exports of "CSV UTF-8" start with a UTF-8 byte order mark
        ds = Dataset(np.array([[0.5, -1.0], [2.0, 0.25], [1e-05, 3.0]]), np.array([0, 2, 1]), k=3)
        path = tmp_path / f"bom.{fmt}"
        save(ds, path)
        saved = path.read_bytes()
        assert not saved.startswith(codecs.BOM_UTF8)
        path.write_bytes(codecs.BOM_UTF8 + saved)
        back = load(path)
        npt.assert_array_equal(back.features, ds.features)
        npt.assert_array_equal(back.labels, ds.labels)
        assert back.k == 3

    def test_unknown_extension_needs_format(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("f0,label\n1.0,0\n")
        with pytest.raises(ValueError, match="format"):
            load(path)
        assert load(path, format="csv").n == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            load(tmp_path / "absent.csv")

    def test_formats_are_suffixes_and_config_values(self, tmp_path):
        ds = Dataset(np.eye(2), np.array([0, 1]), k=2)
        for fmt in FORMATS:
            save(ds, tmp_path / f"d.{fmt.upper()}")
            save(ds, tmp_path / "d.txt", format=fmt)
            assert load(tmp_path / f"d.{fmt.upper()}").n == load(tmp_path / "d.txt", fmt).n == 2
        assert fields(FileSource)[-1].metadata["enum"] == (*FORMATS, None)
        with pytest.raises(ValueError, match="format must be 'csv' or 'jsonl', got 'xml'"):
            load(tmp_path / "d.txt", "xml")


def _no_row_loop(*args, **kwargs):
    raise AssertionError("a saved CSV file went through the row loop")


def _loaded(path):
    """The loaded arrays and k as bytes, or the ValueError's message."""
    try:
        ds = load(path)
    except ValueError as error:
        return str(error)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(), ds.k


def _toy_dataset(n, n_pos, d=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.choice(n, size=n_pos, replace=False)] = 1
    return Dataset(rng.normal(size=(n, d)), labels, k=2)


class TestBatches:
    def test_uniform_partition(self):
        ds = _toy_dataset(10, 3)
        out = batches(ds, UniformSampler(), batch_size=4, seed=0)
        assert [len(b) for b in out] == [4, 4, 2]
        npt.assert_array_equal(np.sort(np.concatenate(out)), np.arange(10))

    def test_deterministic(self):
        ds = _toy_dataset(50, 10)
        for sampler in (UniformSampler(), StratifiedSampler(1), UnderSampler(2.0)):
            a = batches(ds, sampler, 8, seed=4)
            b = batches(ds, sampler, 8, seed=4)
            assert len(a) == len(b)
            for x, y in zip(a, b):
                npt.assert_array_equal(x, y)

    def test_stratified_quota_met_when_feasible(self):
        ds = _toy_dataset(100, 30, seed=1)
        out = batches(ds, StratifiedSampler(2), batch_size=10, seed=3)
        assert len(out) == 10
        for b in out:
            assert int((ds.labels[b] != 0).sum()) >= 2
        npt.assert_array_equal(np.sort(np.concatenate(out)), np.arange(100))

    def test_stratified_infeasible_warns_and_spreads(self):
        ds = _toy_dataset(100, 5, seed=2)
        with pytest.warns(StratificationWarning):
            out = batches(ds, StratifiedSampler(1), batch_size=10, seed=5)
        assert len(out) == 10
        per_batch = [int((ds.labels[b] != 0).sum()) for b in out]
        assert sum(per_batch) == 5
        assert sum(1 for c in per_batch if c >= 1) == 5
        npt.assert_array_equal(np.sort(np.concatenate(out)), np.arange(100))

    def test_undersample_epoch_size(self):
        ds = _toy_dataset(1000, 20, seed=3)
        out = batches(ds, UnderSampler(5.0), batch_size=40, seed=7)
        all_idx = np.concatenate(out)
        assert all_idx.size == 120
        assert len(np.unique(all_idx)) == 120
        pos_idx = set(np.flatnonzero(ds.labels != 0).tolist())
        assert pos_idx.issubset(set(all_idx.tolist()))

    def test_undersample_redraws_with_seed(self):
        ds = _toy_dataset(400, 10, seed=4)
        a = set(np.concatenate(batches(ds, UnderSampler(3.0), 16, seed=1)).tolist())
        b = set(np.concatenate(batches(ds, UnderSampler(3.0), 16, seed=2)).tolist())
        assert a != b

    def test_bad_batch_size(self):
        ds = _toy_dataset(10, 2)
        with pytest.raises(ValueError):
            batches(ds, UniformSampler(), 0, seed=0)

    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            StratifiedSampler(0)
        with pytest.raises(ValueError):
            UnderSampler(0.0)
