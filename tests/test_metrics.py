import math

import numpy as np
import pytest

from pbes.errors import ValidationError
from pbes.metrics import MetricsRow, evaluate, format_metrics_rows, write_metrics_csv
from pbes.model import SoftmaxModel


class _FixedModel(SoftmaxModel):
    """Model whose argmax predictions are forced through huge logit gaps."""


def model_predicting(targets, class_ids, n_features):
    # one weight row per class; sample i gets a one-hot input steering argmax
    k = len(class_ids)
    W = np.zeros((k, n_features))
    for col, target in enumerate(targets):
        W[class_ids.index(target), col] = 10.0
    return SoftmaxModel(W, np.zeros(k), tuple(class_ids))


def eye_rows(n):
    return np.eye(n)


class TestEvaluate:
    def test_hand_confusion_matrix(self):
        # labels [0,0,1], predictions [0,1,1]
        model = model_predicting([0, 1, 1], [0, 1], 3)
        acc, f1, gmean = evaluate(model, None, eye_rows(3), [0, 0, 1])
        assert abs(acc - 2.0 / 3.0) < 1e-12
        assert abs(f1 - 2.0 / 3.0) < 1e-12
        assert abs(gmean - math.sqrt(0.5)) < 1e-12

    def test_perfect_predictions(self):
        model = model_predicting([0, 1, 2], [0, 1, 2], 3)
        acc, f1, gmean = evaluate(model, None, eye_rows(3), [0, 1, 2])
        assert (acc, f1, gmean) == (1.0, 1.0, 1.0)

    def test_never_predicted_class_zeroes_gmean(self):
        model = model_predicting([0, 0, 0], [0, 1], 3)
        acc, f1, gmean = evaluate(model, None, eye_rows(3), [0, 0, 1])
        assert gmean == 0.0
        assert acc == pytest.approx(2.0 / 3.0)

    def test_class_absent_from_test_excluded(self):
        model = model_predicting([0, 0], [0, 1, 2], 2)
        acc, f1, gmean = evaluate(model, None, eye_rows(2), [0, 0])
        assert (acc, f1, gmean) == (1.0, 1.0, 1.0)

    def test_empty_test_set_errors(self):
        model = model_predicting([0], [0], 1)
        with pytest.raises(ValidationError):
            evaluate(model, None, np.zeros((0, 1)), [])

    def test_unseen_label_errors(self):
        model = model_predicting([0], [0], 1)
        with pytest.raises(ValidationError):
            evaluate(model, None, np.ones((1, 1)), [3])

    @staticmethod
    def one_in_ten_recalled(k):
        """evaluate's arguments: an identity model, ten test rows per class, one predicted right."""
        model = SoftmaxModel(np.eye(k), np.zeros(k), tuple(range(k)))
        rows = [c if r == 0 else (c + 1) % k for c in range(k) for r in range(10)]
        return model, None, np.eye(k)[rows], np.repeat(np.arange(k), 10)

    def test_gmean_of_many_small_recalls_does_not_underflow(self):
        # 0.1 ** 324 is below the smallest subnormal, so the product is 0.
        acc, f1, gmean = evaluate(*self.one_in_ten_recalled(324))
        assert acc == pytest.approx(0.1)
        assert gmean == pytest.approx(0.1, rel=1e-12)

    def test_gmean_keeps_its_bits_while_the_product_is_normal(self):
        acc, f1, gmean = evaluate(*self.one_in_ten_recalled(300))
        assert gmean == float(np.prod([0.1] * 300) ** (1.0 / 300))


class TestMetricsCsv:
    def rows(self):
        return [
            MetricsRow(1, 0.5, 0.5, 0.25, 0.1, 12.345),
            MetricsRow(2, 1.0 / 3.0, 0.75, 2.0 / 3.0, 0.0, 7.0),
        ]

    def test_header_and_fixed_decimals(self):
        text = format_metrics_rows(self.rows())
        lines = text.splitlines()
        assert lines[0] == "task,accuracy,avg_accuracy,macro_f1,gmean,wall_ms"
        assert lines[1] == "1,0.500000,0.500000,0.250000,0.100000,0.000000"
        assert lines[2] == "2,0.333333,0.750000,0.666667,0.000000,0.000000"

    def test_timing_column_is_zero(self):
        text = format_metrics_rows(self.rows())
        assert ",12.345" not in text

    def test_write_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, self.rows())
        assert path.read_text().endswith("\n")
        assert path.read_bytes() == format_metrics_rows(self.rows()).encode()
