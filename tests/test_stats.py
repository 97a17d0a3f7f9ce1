import numpy as np
import pytest

from pbes.errors import ValidationError
from pbes.stats import dataset_stats, write_histogram_csv, write_variance_csv


class TestDatasetStats:
    def test_two_image_fixture(self):
        images = [np.zeros((1, 1, 1)), np.ones((1, 1, 1))]
        stats = dataset_stats(images, [0, 0])
        assert stats.per_class[0].channel_variances == (0.25,)
        assert stats.average_variances == (0.25,)

    def test_identical_images_zero_variance(self):
        images = [np.full((2, 3, 3), 0.75)] * 4
        stats = dataset_stats(images, [1, 1, 1, 1])
        assert stats.per_class[1].channel_variances == (0.0, 0.0)

    def test_counts_partition_dataset(self):
        gen = np.random.default_rng(0)
        images = [gen.random((1, 2, 2)) for _ in range(7)]
        labels = [0, 0, 1, 1, 1, 2, 2]
        stats = dataset_stats(images, labels)
        counts = {cid: cs.count for cid, cs in stats.per_class.items()}
        assert sum(counts.values()) == 7
        assert counts == {0: 2, 1: 3, 2: 2}

    def test_mixed_spatial_sizes_allowed(self):
        images = [np.zeros((1, 2, 2)), np.ones((1, 3, 3))]
        stats = dataset_stats(images, [0, 0])
        values = np.concatenate([np.zeros(4), np.ones(9)])
        assert stats.per_class[0].channel_variances[0] == pytest.approx(np.var(values))

    def test_mixed_channel_counts_rejected(self):
        with pytest.raises(ValidationError):
            dataset_stats([np.zeros((1, 2, 2)), np.zeros((3, 2, 2))], [0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            dataset_stats([], [])


class TestStatsCsv:
    def test_variance_csv_layout(self, tmp_path):
        images = [np.zeros((2, 1, 1)), np.ones((2, 1, 1))]
        stats = dataset_stats(images, [0, 0])
        path = tmp_path / "variance.csv"
        write_variance_csv(path, stats)
        lines = path.read_text().splitlines()
        assert lines[0] == "class,channel,variance"
        assert lines[1] == "0,0,0.250000"
        assert lines[2] == "0,1,0.250000"
        assert lines[3] == "avg,0,0.250000"

    def test_histogram_csv_layout(self, tmp_path):
        images = [np.zeros((1, 1, 1))] * 3
        stats = dataset_stats(images, [0, 0, 5])
        path = tmp_path / "counts.csv"
        write_histogram_csv(path, stats)
        assert path.read_text() == "class,count\n0,2\n5,1\n"


def test_label_count_must_match_image_count():
    with pytest.raises(ValidationError, match="2 images but 1 labels"):
        dataset_stats([np.zeros((1, 1, 1))] * 2, [0])
