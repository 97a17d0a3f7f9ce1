import numpy as np
import pytest

from pbes.errors import FileFormatError, ValidationError
from pbes.stream import (
    MAX_SYNTHETIC_VALUES,
    LabeledDataset,
    SyntheticStreamSpec,
    Task,
    TaskStream,
    generate_synthetic_stream,
    read_dataset_csv,
    read_stream,
    write_dataset_csv,
    write_stream,
)


def tiny_spec(**overrides):
    base = dict(classes=4, tasks=2, class_size=10, dims=3)
    base.update(overrides)
    return SyntheticStreamSpec(**base)


class TestSyntheticStream:
    def test_degenerate_points_equal_means(self):
        spec = tiny_spec(blob_std=0.0, outlier_fraction=0.0)
        stream = generate_synthetic_stream(spec, 5)
        for task in stream.tasks:
            for cid in task.class_ids:
                rows = task.train.rows_for(cid)
                assert np.allclose(rows, rows[0])

    def test_outliers_with_zero_std_collapse(self):
        spec = tiny_spec(blob_std=0.0, outlier_fraction=0.3)
        stream = generate_synthetic_stream(spec, 5)
        rows = stream.tasks[0].train.rows_for(0)
        assert np.allclose(rows, rows[0])

    def test_ratio_one_equal_sizes(self):
        spec = tiny_spec(imbalance_ratio=1.0)
        sizes = spec.class_sizes()
        assert sizes == [10, 10, 10, 10]

    def test_imbalance_ratio_two(self):
        spec = tiny_spec(class_size=20, imbalance_ratio=2.0)
        sizes = spec.class_sizes()
        assert sizes[0] == 20
        assert sizes[-1] == 10
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_seed_determinism(self):
        spec = tiny_spec(outlier_fraction=0.1)
        a = generate_synthetic_stream(spec, 9)
        b = generate_synthetic_stream(spec, 9)
        c = generate_synthetic_stream(spec, 10)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.train.points, tb.train.points)
            assert np.array_equal(ta.test.labels, tb.test.labels)
        assert not np.array_equal(a.tasks[0].train.points, c.tasks[0].train.points)

    def test_divisibility_enforced(self):
        with pytest.raises(ValidationError):
            tiny_spec(classes=5, tasks=2)

    def test_size_ceiling(self):
        rows = MAX_SYNTHETIC_VALUES // 4
        assert tiny_spec(class_size=rows // 4, dims=4).class_size == rows // 4
        for overrides in (
            {"class_size": rows // 4, "dims": 5},
            {"per_class_sizes": (10, 10, 10, rows), "dims": 4},
            {"dims": MAX_SYNTHETIC_VALUES},
        ):
            with pytest.raises(ValidationError, match="too large"):
                tiny_spec(**overrides)

    def test_outlier_fraction_range(self):
        with pytest.raises(ValidationError):
            tiny_spec(outlier_fraction=1.0)

    def test_outliers_are_far(self):
        spec = tiny_spec(
            classes=2, tasks=1, class_size=20, outlier_fraction=0.2,
            outlier_distance=20.0, blob_std=1.0,
        )
        stream = generate_synthetic_stream(spec, 3)
        task = stream.tasks[0]
        all_points = np.vstack([task.train.points, task.test.points])
        all_labels = np.concatenate([task.train.labels, task.test.labels])
        for cid in (0, 1):
            rows = all_points[all_labels == cid]
            center = np.median(rows, axis=0)
            dist = np.linalg.norm(rows - center, axis=1)
            assert (dist > 10.0).sum() == 4  # floor(0.2 * 20)

    def test_split_sizes(self):
        spec = tiny_spec(test_fraction=0.2)
        stream = generate_synthetic_stream(spec, 1)
        for task in stream.tasks:
            for cid in task.class_ids:
                n_train = int(np.sum(task.train.labels == cid))
                n_test = int(np.sum(task.test.labels == cid))
                assert n_train + n_test == 10
                assert n_test == 2


class TestTaskStreamInvariants:
    def test_disjoint_classes_enforced(self):
        data = LabeledDataset(np.ones((2, 2)), np.zeros(2, dtype=int))
        task = Task((0,), data, data)
        with pytest.raises(ValidationError):
            TaskStream([task, task])

    def test_constant_task_size_enforced(self):
        d1 = LabeledDataset(np.ones((1, 2)), [0])
        d2 = LabeledDataset(np.ones((1, 2)), [1])
        with pytest.raises(ValidationError):
            TaskStream([Task((0,), d1, d1), Task((1, 2), d2, d2)])

    def test_class_listed_twice_rejected(self):
        data = LabeledDataset(np.ones((2, 2)), [0, 0])
        with pytest.raises(ValidationError, match=r"task 1 lists classes \[0\] more"):
            TaskStream([Task((0, 0), data, data)])

    def test_class_without_train_rows_rejected(self):
        train = LabeledDataset(np.ones((2, 2)), [0, 0])
        test = LabeledDataset(np.ones((2, 2)), [0, 1])
        with pytest.raises(ValidationError, match=r"no rows of classes \[1\]"):
            TaskStream([Task((0, 1), train, test)])

    def test_labels_must_match_classes(self):
        good = LabeledDataset(np.ones((1, 2)), [0])
        bad = LabeledDataset(np.ones((1, 2)), [5])
        with pytest.raises(ValidationError):
            TaskStream([Task((0,), good, bad)])


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(0)
        data = LabeledDataset(gen.normal(size=(6, 3)), gen.integers(0, 3, size=6))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        back = read_dataset_csv(path)
        assert np.array_equal(back.points, data.points)
        assert np.array_equal(back.labels, data.labels)

    def test_header_format(self, tmp_path):
        data = LabeledDataset(np.ones((1, 2)), [4])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        text = path.read_text()
        assert text.splitlines()[0] == "label,f0,f1"
        assert "\r" not in text

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FileFormatError):
            read_dataset_csv(path)

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n1,not-a-number\n")
        with pytest.raises(FileFormatError):
            read_dataset_csv(path)


class TestStreamFiles:
    def test_stream_round_trip(self, tmp_path):
        spec = tiny_spec(outlier_fraction=0.1)
        stream = generate_synthetic_stream(spec, 42)
        manifest = write_stream(tmp_path / "stream", stream)
        back = read_stream(manifest)
        assert len(back) == len(stream)
        for ta, tb in zip(stream.tasks, back.tasks):
            assert ta.class_ids == tb.class_ids
            assert np.array_equal(ta.train.points, tb.train.points)
            assert np.array_equal(ta.test.points, tb.test.points)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(OSError):
            read_stream(tmp_path / "nope" / "stream.json")

    def test_corrupt_manifest(self, tmp_path):
        path = tmp_path / "stream.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError):
            read_stream(path)


def _read_latin1_csv(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"label,f0\n0,\xe9\n")
    return read_dataset_csv(path)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda tmp: LabeledDataset(np.ones(3), [0, 0, 0]), ValidationError,
                     "dataset needs 2-D points and 1-D labels", id="points_rank"),
        pytest.param(lambda tmp: LabeledDataset(np.ones((3, 2)), [0, 0]), ValidationError,
                     "3 points but 2 labels", id="label_count"),
        pytest.param(_read_latin1_csv, FileFormatError, "cannot read .*latin1.csv",
                     id="not_utf8"),
    ],
)
def test_malformed_datasets_are_rejected(tmp_path, call, error, message):
    with pytest.raises(error, match=message) as raised:
        call(tmp_path)
    assert raised.value.exit_code == (3 if error is FileFormatError else 2)


@pytest.mark.parametrize(
    "fields, message",
    [
        pytest.param(dict(classes=4 * 10**6, tasks=1, class_size=3, imbalance_ratio=4.0, dims=1),
                     "class 2666667 has size 1", id="millions_of_classes"),
        pytest.param(dict(classes=4, tasks=2, per_class_sizes=(12, 0, 12, 1)),
                     "class 1 has size 0", id="per_class_sizes"),
    ],
)
def test_first_class_below_two_rows_is_named(fields, message):
    with pytest.raises(ValidationError, match=f"^{message}; need >= 2 for a train/test split$"):
        SyntheticStreamSpec(**fields)
