import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pbes.errors import NumericalError, ValidationError
from pbes.model import (
    LossConfig,
    SoftmaxModel,
    TrainingBatch,
    _extend_for_new_classes,
    _softmax_columns,
    loss_gradient,
    predict,
    softmax_with_temperature,
    train_task,
)

from oracles import (
    combine_losses,
    combined_loss,
    cross_entropy_loss,
    distillation_loss,
    finite_difference_gradient,
    loss_gradient_former,
    loss_gradient_reference,
    train_task_reference,
)


def train_one(model, teacher, batch, config):
    """``train_task`` on one problem."""
    [out] = train_task([model], [teacher], [batch], config)
    return out


def random_instance(gen, n_classes=None, n_old=None, n=None, d=None):
    n = n or int(gen.integers(1, 6))
    d = d or int(gen.integers(1, 4))
    k = n_classes or int(gen.integers(2, 5))
    k_old = n_old if n_old is not None else int(gen.integers(1, k))
    X = gen.normal(size=(n, d))
    labels = gen.integers(0, k, size=n)
    ids = tuple(range(k))
    batch = TrainingBatch(X, labels, ids)
    model = SoftmaxModel(gen.normal(size=(k, d)), gen.normal(size=k), ids)
    teacher = SoftmaxModel(gen.normal(size=(k_old, d)), gen.normal(size=k_old), ids[:k_old])
    return batch, model, teacher


class TestSoftmax:
    def test_equal_logits_uniform(self):
        for k in (1, 2, 5):
            probs = softmax_with_temperature(np.full(k, 3.3), 2.0)
            assert np.allclose(probs, 1.0 / k, atol=1e-14)

    def test_two_logits_temperature_two(self):
        probs = softmax_with_temperature([1.0, 0.0], 2.0)
        expected = math.exp(0.5) / (math.exp(0.5) + 1.0)
        assert abs(probs[0] - expected) < 1e-4
        assert abs(probs[0] - 0.62246) < 1e-4
        assert abs(probs[1] - 0.37754) < 1e-4

    def test_huge_temperature_flattens(self):
        probs = softmax_with_temperature([1.0, 0.0], 1e6)
        assert np.abs(probs - 0.5).max() < 1e-5

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            softmax_with_temperature([])

    def test_temperature_below_one_errors(self):
        with pytest.raises(ValidationError):
            softmax_with_temperature([1.0], 0.5)

    @given(
        st.lists(st.floats(-500, 500, allow_nan=False, width=32), min_size=1, max_size=8),
        st.floats(1.0, 100.0, allow_nan=False),
    )
    def test_simplex(self, logits, temp):
        probs = softmax_with_temperature(logits, temp)
        assert (probs >= 0).all()
        assert abs(probs.sum() - 1.0) < 1e-12

    @given(
        st.lists(st.floats(-30, 30, allow_nan=False, width=32), min_size=2, max_size=6),
        st.floats(-100, 100, allow_nan=False, width=32),
    )
    def test_shift_invariance(self, logits, shift):
        base = softmax_with_temperature(logits, 2.0)
        moved = softmax_with_temperature(np.array(logits) + shift, 2.0)
        assert np.abs(base - moved).max() < 1e-12

    def test_temperature_monotonicity(self):
        logits = np.array([2.0, 0.5, -1.0])
        temps = [1.0, 1.5, 2.0, 4.0, 8.0, 32.0]
        maxima = [softmax_with_temperature(logits, t).max() for t in temps]
        assert all(a > b for a, b in zip(maxima, maxima[1:]))


class TestCrossEntropy:
    def test_confident_correct_prediction(self):
        ids = (0, 1)
        model = SoftmaxModel(np.array([[50.0], [-50.0]]), np.zeros(2), ids)
        batch = TrainingBatch(np.array([[1.0]]), np.array([0]), ids)
        assert cross_entropy_loss(batch, model) < 1e-12

    def test_uniform_two_classes_is_ln2(self):
        ids = (0, 1)
        model = SoftmaxModel(np.zeros((2, 1)), np.zeros(2), ids)
        batch = TrainingBatch(np.array([[1.0]]), np.array([0]), ids)
        assert abs(cross_entropy_loss(batch, model) - math.log(2.0)) < 1e-12

    def test_sum_over_batch(self):
        ids = (0, 1)
        gen = np.random.default_rng(0)
        model = SoftmaxModel(gen.normal(size=(2, 3)), gen.normal(size=2), ids)
        x = gen.normal(size=(1, 3))
        single = TrainingBatch(x, np.array([1]), ids)
        double = TrainingBatch(np.vstack([x, x]), np.array([1, 1]), ids)
        assert abs(
            cross_entropy_loss(double, model) - 2.0 * cross_entropy_loss(single, model)
        ) < 1e-12

    def test_width_mismatch(self):
        ids = (0, 1, 2)
        model = SoftmaxModel(np.zeros((2, 1)), np.zeros(2), (0, 1))
        batch = TrainingBatch(np.ones((1, 1)), np.array([0]), ids)
        with pytest.raises(ValidationError):
            cross_entropy_loss(batch, model)


class TestDistillation:
    def test_matching_uniform_logits_gives_ln2(self):
        loss = distillation_loss(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]]), 2.0)
        assert abs(loss - math.log(2.0)) < 1e-10

    def test_confident_teacher_matching_student(self):
        logits = np.array([[0.0, 100.0]])
        assert distillation_loss(logits, logits, 2.0) < 1e-10

    def test_empty_batch_is_zero(self):
        assert distillation_loss(np.zeros((0, 3)), np.zeros((0, 3)), 2.0) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            distillation_loss(np.zeros((2, 3)), np.zeros((2, 2)), 2.0)

    def test_temperature_at_most_one_rejected(self):
        with pytest.raises(ValidationError):
            distillation_loss(np.zeros((1, 2)), np.zeros((1, 2)), 1.0)


class TestCombinedLoss:
    def test_linear_combination_exact(self):
        assert combine_losses(2.0, 4.0, 0.5) == 3.0

    def test_beta_zero_equals_cross_entropy(self):
        gen = np.random.default_rng(1)
        batch, model, teacher = random_instance(gen)
        config = LossConfig(beta=0.0)
        assert combined_loss(batch, model, teacher, config) == cross_entropy_loss(
            batch, model
        )

    def test_beta_one_matching_logits_gives_teacher_entropy(self):
        ids = (0, 1)
        model = SoftmaxModel(np.zeros((2, 1)), np.array([1.0, 1.0]), ids)
        teacher = model
        batch = TrainingBatch(np.array([[0.5]]), np.array([0]), ids)
        config = LossConfig(beta=1.0, temperature=2.0)
        assert abs(combined_loss(batch, model, teacher, config) - math.log(2.0)) < 1e-10

    def test_no_teacher_returns_cross_entropy(self):
        gen = np.random.default_rng(2)
        batch, model, _ = random_instance(gen)
        config = LossConfig(beta=0.7)
        assert combined_loss(batch, model, None, config) == cross_entropy_loss(
            batch, model
        )


class TestLossGradient:
    def test_bias_gradient_rows_sum_to_zero_per_sample(self):
        # softmax gradient (p - y) sums to zero across classes for each sample
        gen = np.random.default_rng(4)
        batch, model, _ = random_instance(gen, n=1)
        _, gb = loss_gradient(batch, model, None, LossConfig(beta=0.0))
        assert abs(gb.sum()) < 1e-12

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("temp", [1.5, 2.0, 4.0])
    def test_matches_finite_differences(self, beta, temp):
        gen = np.random.default_rng(int(beta * 10) * 31 + int(temp * 10))
        batch, model, teacher = random_instance(gen)
        config = LossConfig(beta=beta, temperature=temp)

        def loss_at(W, b):
            return combined_loss(batch, SoftmaxModel(W, b, model.class_ids), teacher, config)

        gW, gb = loss_gradient(batch, model, teacher, config)
        fW, fb = finite_difference_gradient(loss_at, model.weights, model.bias)
        scale = max(1.0, np.abs(fW).max(), np.abs(fb).max())
        assert np.abs(gW - fW).max() / scale < 1e-5
        assert np.abs(gb - fb).max() / scale < 1e-5

    def test_near_minimum_gradient_vanishes(self):
        ids = (0, 1)
        model = SoftmaxModel(np.array([[40.0], [-40.0]]), np.zeros(2), ids)
        batch = TrainingBatch(np.array([[1.0]]), np.array([0]), ids)
        gW, gb = loss_gradient(batch, model, None, LossConfig(beta=0.0))
        assert np.linalg.norm(gW) < 1e-6
        assert np.linalg.norm(gb) < 1e-6


class TestTrainTask:
    def test_zero_epochs_returns_model_unchanged(self):
        gen = np.random.default_rng(5)
        batch, model, _ = random_instance(gen)
        config = LossConfig(epochs=0)
        out = train_one(model, None, batch, config)
        assert out is model

    def test_separable_blobs_reach_full_accuracy(self):
        gen = np.random.default_rng(6)
        a = gen.normal(scale=0.1, size=(10, 2)) + [1.0, 0.0]
        b = gen.normal(scale=0.1, size=(10, 2)) + [-1.0, 0.0]
        X = np.vstack([a, b])
        labels = [0] * 10 + [1] * 10
        ids = (0, 1)
        batch = TrainingBatch(X, np.array(labels), ids)
        model = train_one(
            SoftmaxModel.empty(2), None, batch,
            LossConfig(learning_rate=0.1, epochs=200),
        )
        assert (predict(model, X) == labels).all()

    def test_full_batch_loss_non_increasing(self):
        gen = np.random.default_rng(7)
        X = gen.normal(size=(6, 2))
        labels = gen.integers(0, 2, size=6)
        ids = (0, 1)
        batch = TrainingBatch(X, labels, ids)
        config = LossConfig(learning_rate=0.01, epochs=1, beta=0.0)
        model = SoftmaxModel(np.zeros((2, 2)), np.zeros(2), ids)
        losses = [cross_entropy_loss(batch, model)]
        for _ in range(60):
            model = train_one(model, None, batch, config)
            losses.append(cross_entropy_loss(batch, model))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_teacher_not_mutated(self):
        gen = np.random.default_rng(8)
        batch, model, teacher = random_instance(gen)
        w_before = teacher.weights.copy()
        b_before = teacher.bias.copy()
        train_one(model, teacher, batch, LossConfig(epochs=5, learning_rate=0.01))
        assert np.array_equal(teacher.weights, w_before)
        assert np.array_equal(teacher.bias, b_before)

    def test_new_classes_zero_initialized(self):
        gen = np.random.default_rng(9)
        old = SoftmaxModel(gen.normal(size=(2, 3)), gen.normal(size=2), (0, 1))
        X = gen.normal(size=(4, 3))
        ids = (0, 1, 2, 3)
        batch = TrainingBatch(X, np.array([0, 1, 2, 3]), ids)
        out = train_one(old, None, batch, LossConfig(epochs=0))
        assert out.class_ids == ids
        assert np.array_equal(out.weights[:2], old.weights)
        assert not out.weights[2:].any()
        assert not out.bias[2:].any()

    def test_wrong_class_order_rejected(self):
        old = SoftmaxModel(np.ones((2, 1)), np.zeros(2), (0, 1))
        batch = TrainingBatch(np.ones((1, 1)), np.array([1]), (1, 0))
        with pytest.raises(ValidationError):
            train_one(old, None, batch, LossConfig())

    @pytest.mark.parametrize(
        "teacher_ids, message",
        [
            pytest.param((0, 1, 2), "teacher has more classes than the student", id="larger"),
            pytest.param((1,), "teacher class ids must prefix the student's", id="not_a_prefix"),
        ],
    )
    def test_teacher_must_prefix_the_student(self, teacher_ids, message):
        ids = (0, 1)
        k = len(teacher_ids)
        teacher = SoftmaxModel(np.ones((k, 2)), np.zeros(k), teacher_ids)
        batch = TrainingBatch(np.ones((2, 2)), np.array([0, 1]), ids)
        with pytest.raises(ValidationError, match=message) as raised:
            train_one(SoftmaxModel.empty(2), teacher, batch, LossConfig(epochs=1))
        assert raised.value.exit_code == 2

    def test_overflow_raises_numerical_error(self):
        X = np.array([[1000.0], [-999.0]])
        ids = (0, 1)
        batch = TrainingBatch(X, np.array([0, 1]), ids)
        with pytest.raises(NumericalError):
            train_one(
                SoftmaxModel.empty(1), None, batch,
                LossConfig(learning_rate=1e306, epochs=3),
            )

    def test_mini_batches_deterministic(self):
        gen = np.random.default_rng(10)
        X = gen.normal(size=(7, 2))
        labels = gen.integers(0, 2, size=7)
        ids = (0, 1)
        batch = TrainingBatch(X, labels, ids)
        config = LossConfig(learning_rate=0.01, epochs=20, batch_size=3)
        a = train_one(SoftmaxModel.empty(2), None, batch, config)
        b = train_one(SoftmaxModel.empty(2), None, batch, config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def _on_grid(a):
    """Round to multiples of 0.25 so that rows, logits and labels tie."""
    return np.round(np.asarray(a) * 4.0) / 4.0


@st.composite
def training_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    # Up to 12 classes: a softmax over 8 or more sums in 8 accumulators.
    k_old = draw(st.integers(0, 6))
    k_new = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = tuple(range(k_old + k_new))
    batch = TrainingBatch(
        _on_grid(gen.normal(scale=1.5, size=(n, d))), gen.integers(0, len(ids), size=n), ids
    )
    old_ids = ids[:k_old]
    model = SoftmaxModel(
        _on_grid(gen.normal(size=(k_old, d))), _on_grid(gen.normal(size=k_old)), old_ids
    )
    teacher = draw(st.sampled_from(["none", "snapshot", "other"]))
    teacher = {
        "none": None,
        "snapshot": model,
        "other": SoftmaxModel(
            _on_grid(gen.normal(size=(k_old, d))),
            _on_grid(gen.normal(size=k_old)),
            old_ids,
        ),
    }[teacher]
    batch_size = draw(
        st.one_of(
            st.just(0), st.just(1), st.integers(1, max(1, n - 1)), st.integers(n, n + 3)
        )
    )
    config = LossConfig(
        temperature=draw(st.sampled_from([1.5, 2.0, 3.0])),
        beta=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        learning_rate=draw(st.sampled_from([1e-3, 0.05, 0.5])),
        epochs=draw(st.integers(1, 4)),
        batch_size=batch_size,
    )
    return model, teacher, batch, config


def _fixed_problem(k_old, k_new, n, batch_size=0, seed=0, d=3):
    """A problem drawn like training_problems()'s, with a teacher whenever
    there are old classes."""
    gen = np.random.default_rng(seed)
    ids = tuple(range(k_old + k_new))
    batch = TrainingBatch(
        _on_grid(gen.normal(scale=1.5, size=(n, d))), gen.integers(0, len(ids), size=n), ids
    )
    old_ids = ids[:k_old]
    model = SoftmaxModel(
        _on_grid(gen.normal(size=(k_old, d))), _on_grid(gen.normal(size=k_old)), old_ids
    )
    teacher = SoftmaxModel(
        _on_grid(gen.normal(size=(k_old, d))), _on_grid(gen.normal(size=k_old)), old_ids
    )
    config = LossConfig(
        temperature=2.0, beta=0.5, learning_rate=0.05, epochs=2, batch_size=batch_size
    )
    return model, teacher if k_old else None, batch, config


# Eight classes (the first with 8 accumulators); ten, as in the blob
# benchmark's last task, in slices of 7 rows; a last slice of one row; a
# model with a single class.
FIXED_PROBLEMS = (
    _fixed_problem(5, 3, 30, seed=1),
    _fixed_problem(8, 2, 25, batch_size=7, seed=2),
    _fixed_problem(2, 2, 9, batch_size=4, seed=3),
    _fixed_problem(0, 1, 6, seed=4),
)

# The benchmarks' shapes, d=8 and ten classes, eight of them old: the blob
# suite's last task, a full batch of 300 rows (above about 180 rows BLAS
# blocks the products differently); the CLI sweep's mini-batches of 16 rows;
# one batch of 16 rows.
BENCHMARK_PROBLEMS = (
    _fixed_problem(8, 2, 300, seed=5, d=8),
    _fixed_problem(8, 2, 112, batch_size=16, seed=6, d=8),
    _fixed_problem(8, 2, 16, seed=7, d=8),
)


def _outcome(train, model, teacher, batch, config):
    try:
        out = train(model, teacher, batch, config)
    except NumericalError:
        return NumericalError
    return out.class_ids, out.weights.tobytes(), out.bias.tobytes()


class TestTrainTaskMatchesReference:
    """train_task validates once and precomputes the teacher's soft targets;
    the reference rebuilds and re-validates everything on every step."""

    @given(training_problems())
    @example(FIXED_PROBLEMS[0])
    @example(FIXED_PROBLEMS[1])
    @example(FIXED_PROBLEMS[2])
    @example(FIXED_PROBLEMS[3])
    @example(BENCHMARK_PROBLEMS[0])
    @example(BENCHMARK_PROBLEMS[1])
    @example(BENCHMARK_PROBLEMS[2])
    def test_bit_identical(self, problem):
        model, teacher, batch, config = problem
        fast = _outcome(train_one, model, teacher, batch, config)
        assert fast is not NumericalError
        assert fast == _outcome(train_task_reference, model, teacher, batch, config)
        diverging = replace(config, learning_rate=1e308)
        assert _outcome(train_one, model, teacher, batch, diverging) == _outcome(
            train_task_reference, model, teacher, batch, diverging
        )

    def test_divergence_raises_in_both(self):
        gen = np.random.default_rng(11)
        ids = (0, 1, 2)
        batch = TrainingBatch(
            _on_grid(gen.normal(size=(9, 3))), np.array([0, 1, 2] * 3), ids
        )
        teacher = SoftmaxModel(np.ones((2, 3)), np.zeros(2), ids[:2])
        config = LossConfig(learning_rate=1e308, epochs=3)
        for train in (train_one, train_task_reference):
            with pytest.raises(NumericalError):
                train(teacher, teacher, batch, config)

    def test_divergence_in_the_first_of_many_epochs_matches_the_reference(self):
        # Mini-batches of 4 over 20 rows: the parameters leave the float64
        # range within epoch 1, and the later steps run on inf and NaN, with
        # no warning, until the one check after the last step.
        gen = np.random.default_rng(12)
        ids = (0, 1, 2)
        batch = TrainingBatch(_on_grid(gen.normal(size=(20, 3))), np.arange(20) % 3, ids)
        teacher = SoftmaxModel(np.ones((2, 3)), np.zeros(2), ids[:2])
        first = LossConfig(learning_rate=1e308, epochs=1, batch_size=4)
        assert _outcome(train_task_reference, teacher, teacher, batch, first) is NumericalError
        config = replace(first, epochs=4)
        with pytest.raises(NumericalError, match="^training diverged to non-finite parameters"):
            train_one(teacher, teacher, batch, config)
        assert _outcome(train_one, teacher, teacher, batch, config) == _outcome(
            train_task_reference, teacher, teacher, batch, config
        )

    def test_zero_row_batch_raises_in_all(self):
        ids = (0, 1)
        batch = TrainingBatch(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ids)
        model = SoftmaxModel(np.ones((2, 2)), np.zeros(2), ids)
        old = SoftmaxModel(np.ones((1, 2)), np.zeros(1), ids[:1])
        for teacher in (None, old):
            for batch_size in (0, 3):
                config = LossConfig(epochs=2, batch_size=batch_size)
                for train in (train_one, train_task_reference):
                    with pytest.raises(ValidationError, match="at least one logit"):
                        train(model, teacher, batch, config)
                with pytest.raises(ValidationError, match="at least one logit"):
                    loss_gradient(batch, model, teacher, config)


@st.composite
def lockstep_problems(draw):
    """1 to 4 problems over one list of class ids, as a sweep's budgets train a
    task, with one shared config. Row counts differ, so mini-batches leave
    ragged last slices; each problem's model knows a prefix of the ids and
    its teacher, if any, a prefix of the model's."""
    d = draw(st.integers(1, 4))
    ids = tuple(range(draw(st.integers(1, 10))))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problems = []
    for n in draw(st.lists(st.integers(1, 24), min_size=1, max_size=4)):
        batch = TrainingBatch(
            _on_grid(gen.normal(scale=1.5, size=(n, d))), gen.integers(0, len(ids), size=n), ids
        )
        k_model = draw(st.integers(0, len(ids)))
        model = SoftmaxModel(
            _on_grid(gen.normal(size=(k_model, d))), _on_grid(gen.normal(size=k_model)),
            ids[:k_model],
        )
        k_teacher = draw(st.integers(0, k_model))
        teacher = draw(st.sampled_from([
            None,
            model,
            SoftmaxModel(_on_grid(gen.normal(size=(k_teacher, d))),
                         _on_grid(gen.normal(size=k_teacher)), ids[:k_teacher]),
        ]))
        problems.append((model, teacher, batch))
    most = max(len(batch) for _, _, batch in problems)
    config = LossConfig(
        temperature=draw(st.sampled_from([1.5, 2.0, 3.0])),
        beta=draw(st.floats(0.0, 1.0)),
        learning_rate=draw(st.sampled_from([1e-3, 0.05, 0.5])),
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.one_of(
            st.just(0), st.just(1), st.integers(1, max(1, most - 1)),
            st.integers(most, most + 3),
        )),
    )
    return problems, config


# The CLI sweep's shape: d=8, ten classes, eight of them old, slices of 16
# rows; 97 rows leave one-row last slices, whose softmax sums 10 classes.
SWEEP_PROBLEMS = (
    [_fixed_problem(8, 2, n, batch_size=16, seed=20 + n, d=8)[:3] for n in (112, 97, 97, 80)],
    LossConfig(temperature=2.0, beta=0.5, learning_rate=0.05, epochs=2, batch_size=16),
)


class TestLockstepTrainingMatchesReference:
    """train_task on several problems returns, for each, the reference's
    result on that problem alone; it raises when any of them diverges."""

    @staticmethod
    def _check(problems, config):
        expected = [_outcome(train_task_reference, *problem, config) for problem in problems]
        models, teachers, batches = (list(column) for column in zip(*problems))
        try:
            trained = train_task(models, teachers, batches, config)
        except NumericalError as exc:
            assert str(exc) == "training diverged to non-finite parameters; lower the learning rate"
            assert NumericalError in expected
        else:
            assert [
                (out.class_ids, out.weights.tobytes(), out.bias.tobytes()) for out in trained
            ] == expected

    @given(lockstep_problems())
    @example(SWEEP_PROBLEMS)
    def test_bit_identical(self, case):
        problems, config = case
        self._check(problems, config)
        self._check(problems, replace(config, learning_rate=1e308))

    def test_class_ids_must_match(self):
        batches = [
            TrainingBatch(np.ones((2, 1)), np.array([0, 1]), ids) for ids in ((0, 1), (1, 0))
        ]
        with pytest.raises(ValidationError, match="must share class ids"):
            train_task([SoftmaxModel.empty(1)] * 2, [None] * 2, batches, LossConfig())


class TestLossGradientMatchesReference:
    """loss_gradient shares train_task's step builder; the reference encodes
    labels with a loop."""

    @given(training_problems())
    @example(FIXED_PROBLEMS[0])
    @example(FIXED_PROBLEMS[1])
    @example(FIXED_PROBLEMS[2])
    @example(FIXED_PROBLEMS[3])
    @example(BENCHMARK_PROBLEMS[0])
    @example(BENCHMARK_PROBLEMS[1])
    @example(BENCHMARK_PROBLEMS[2])
    def test_bit_identical(self, problem):
        model, teacher, batch, config = problem
        student = _extend_for_new_classes(model, batch.class_ids)
        fast = loss_gradient(batch, student, teacher, config)
        slow = loss_gradient_reference(batch, student, teacher, config)
        assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow]


def _gamma(m):
    u = 2.0**-53
    return m * u / (1.0 - m * u)


def _former_gap_bound(batch, student, teacher):
    """Bound on |loss_gradient - the former kernel's| for each of the
    features and the bias, from the magnitudes of the inputs.

    Either kernel's logit for row i is within gamma(d + 1) of the exact one,
    relative to the row's |Xa| @ |Wa|.T (the sum of its terms' magnitudes).
    Dividing by a temperature of at least 1 and subtracting the row maximum
    add at most 3u of that, so the shifted logits are within eta_i of exact,
    and each probability within p (e^(2 eta_i) - 1) of exact, plus (k + 8)u
    for exp, the sum and the divide. The cross-entropy and distillation
    terms of a gradient-of-logits entry are p - y and p' - q, weighted by
    1 - beta and beta/T, which add to at most 1. So |G| <= 1, and with
    a few more roundings each kernel's G is within E_i = 2(e^(2 eta_i) - 1)
    + 2(k + 16)u of exact. The final products add gamma(n) sum_i (1 + E_i)
    |Xa_i| each. The teacher's targets are the same arrays in both kernels.
    """
    X = np.asarray(batch.inputs, dtype=np.float64)
    n, d = X.shape
    k = student.num_classes
    Xa = np.abs(np.hstack([X, np.ones((n, 1))]))
    Wa = np.abs(np.hstack([student.weights, student.bias[:, None]]))
    # The magnitudes are themselves rounded, by less than gamma(d + 2).
    terms = (Xa @ Wa.T).max(axis=1) * (1.0 + _gamma(d + 2))
    eta = (_gamma(d + 1) + 3 * 2.0**-53) * terms
    E = 2.0 * np.expm1(2.0 * eta) + 2.0 * (k + 16) * 2.0**-53
    bound = (2.0 * E + 2.0 * _gamma(n) * (1.0 + E)) @ Xa
    # The bound's own sum is rounded too.
    return bound * (1.0 + _gamma(n + 2))


class TestLossGradientAgreesWithTheFormerKernel:
    """The kernel folds the bias into the products and sums in its own order,
    so its bits differ from the former row-major kernel's; the values differ
    by no more than rounding can explain."""

    @given(training_problems())
    @example(FIXED_PROBLEMS[0])
    @example(FIXED_PROBLEMS[1])
    @example(BENCHMARK_PROBLEMS[0])
    @example(BENCHMARK_PROBLEMS[2])
    def test_within_the_rounding_bound(self, problem):
        model, teacher, batch, config = problem
        student = _extend_for_new_classes(model, batch.class_ids)
        gW, gb = loss_gradient(batch, student, teacher, config)
        fW, fb = loss_gradient_former(batch, student, teacher, config)
        assert np.isfinite(gW).all() and np.isfinite(gb).all()
        bound = _former_gap_bound(batch, student, teacher)
        assert (np.abs(gW - fW) <= bound[:-1]).all()
        assert (np.abs(gb - fb) <= bound[-1]).all()


SPECIAL_VALUES = (0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, 1e300, 5e-324)


@st.composite
def class_major_arrays(draw, classes=st.integers(1, 300), rows=st.integers(1, 5)):
    """(classes, rows) arrays: Gaussian, tie-heavy with signed zeros, or
    special values (zeros, infinities, NaN) among Gaussian ones."""
    k = draw(classes)
    n = draw(rows)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "ties", "specials"]))
    E = gen.normal(scale=draw(st.sampled_from([0.1, 3.0, 200.0])), size=(k, n))
    if kind == "ties":
        E = np.round(E) * 0.5
    elif kind == "specials":
        picks = gen.random((k, n)) < 0.3
        E[picks] = gen.choice(np.array(SPECIAL_VALUES), size=picks.sum())
    return E


@st.composite
def class_major_stacks(draw):
    """(stack, classes, rows) arrays: 2 to 4 of class_major_arrays() of one shape."""
    shape = st.just(draw(st.integers(1, 300))), st.just(draw(st.integers(1, 5)))
    return np.stack([draw(class_major_arrays(*shape)) for _ in range(draw(st.integers(2, 4)))])


def _bits(a):
    """Bytes of ``a`` with NaN counted as equal whatever its payload."""
    a = np.array(a, dtype=np.float64)
    nan = np.isnan(a)
    a[nan] = 0.0
    return nan.tobytes() + a.tobytes()


class TestNumpyColumnSumOrder:
    """The kernel's softmax sums a C-ordered (classes, rows) array down its
    columns; ``tests/oracles.gradient_reference`` sums the rows of its
    transposed view. Both rest on numpy adding those in one order, one class
    after another, for every number of classes. A numpy that sums either of
    them pairwise, as it sums a contiguous row, fails here."""

    @given(class_major_arrays())
    @example(np.full((8, 2), -0.0))
    @example(np.full((129, 1), -0.0))
    @example(1.0 / np.arange(1.0, 265.0).reshape(132, 2))
    @example(1.0 / np.arange(1.0, 901.0).reshape(300, 3))
    def test_column_sums_equal_the_transposed_row_sums(self, E):
        with np.errstate(invalid="ignore", over="ignore"):
            assert _bits(np.add.reduce(E, axis=0)) == _bits(E.T.sum(axis=-1))

    @given(class_major_stacks())
    @example(np.full((3, 129, 1), -0.0))
    @example(1.0 / np.arange(1.0, 31.0).reshape(3, 10, 1))
    @example(1.0 / np.arange(1.0, 37.0).reshape(4, 9, 1))
    @example(1.0 / np.arange(1.0, 793.0).reshape(2, 132, 3))
    def test_stacked_reductions_equal_each_problems_own(self, Z):
        # A stacked kernel step reduces the (classes, stack, rows) view of its
        # (stack, classes, rows) logits; one problem reduces its own (classes, rows).
        with np.errstate(invalid="ignore", over="ignore"):
            for reduce in (np.maximum.reduce, np.add.reduce):
                stacked = reduce(Z.transpose(1, 0, 2), axis=0)
                assert [_bits(r) for r in stacked] == [_bits(reduce(E, axis=0)) for E in Z]

    @given(class_major_arrays(), st.sampled_from([1.0, 1.5, 2.0, 3.7]))
    def test_softmax_equals_the_row_softmax_of_the_transpose(self, E, temperature):
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            expected = softmax_with_temperature(E.T, temperature).T
            assert _bits(_softmax_columns(E / temperature)) == _bits(expected)


class _MeanMemory:
    def __init__(self, ids, means):
        self._ids = np.asarray(ids, dtype=np.int64)
        self._means = np.asarray(means, dtype=np.float64)

    def class_means(self):
        return self._ids, self._means


class TestClassify:
    """Classification through ``predict``, one row or many."""

    def test_zero_model_ties_resolve_to_lowest_id(self):
        model = SoftmaxModel(np.zeros((3, 2)), np.zeros(3), (5, 2, 9))
        assert predict(model, [[1.0, -1.0], [0.0, 3.0]]).tolist() == [2, 2]

    def test_ncm_geometry(self):
        model = SoftmaxModel(np.zeros((2, 2)), np.zeros(2), (0, 1))
        memory = _MeanMemory([0, 1], [[0.0, 0.0], [10.0, 0.0]])
        X = [[1.0, 0.0], [9.0, 0.0]]
        assert predict(model, X, mode="ncm", memory=memory).tolist() == [0, 1]

    def test_argmax_matches_linear_scan(self):
        gen = np.random.default_rng(11)
        model = SoftmaxModel(gen.normal(size=(4, 3)), gen.normal(size=4), (3, 1, 7, 2))
        X = gen.normal(size=(20, 3))
        expected = []
        for x in X:
            logits = model.weights @ x + model.bias
            best, best_id = -np.inf, None
            for cid, logit in zip(model.class_ids, logits):
                if logit > best or (logit == best and cid < best_id):
                    best, best_id = logit, cid
            expected.append(best_id)
        assert predict(model, X).tolist() == expected

    def test_ncm_empty_memory_errors(self):
        model = SoftmaxModel(np.zeros((1, 2)), np.zeros(1), (0,))
        memory = _MeanMemory(np.zeros(0), np.zeros((0, 2)))
        with pytest.raises(ValidationError):
            predict(model, np.zeros((1, 2)), mode="ncm", memory=memory)

    def test_unknown_mode(self):
        model = SoftmaxModel(np.zeros((1, 1)), np.zeros(1), (0,))
        with pytest.raises(ValidationError):
            predict(model, np.zeros((1, 1)), mode="centroid")


class TestLossConfigValidation:
    def test_rejects_bad_temperature(self):
        with pytest.raises(ValidationError):
            LossConfig(temperature=1.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValidationError):
            LossConfig(beta=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", math.nan),
            ("learning_rate", math.inf),
            ("learning_rate", 0.0),
            ("temperature", math.inf),
            ("temperature", math.nan),
            ("beta", math.nan),
        ],
    )
    def test_names_the_field_it_rejects(self, field, value):
        with pytest.raises(ValidationError, match=field):
            LossConfig(**{field: value})


class TestTrainingBatchValidation:
    def test_rejects_label_outside_class_ids(self):
        with pytest.raises(ValidationError, match=r"labels \[2\] not among"):
            TrainingBatch(np.ones((2, 2)), np.array([0, 2]), (0, 1))

    def test_rejects_repeated_class_ids(self):
        with pytest.raises(ValidationError, match="not distinct"):
            TrainingBatch(np.ones((1, 2)), np.array([0]), (0, 1, 0))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError):
            TrainingBatch(np.ones((2, 2)), np.array([0]), (0, 1))
        with pytest.raises(ValidationError):
            TrainingBatch(np.ones((1, 2)), np.array([[1.0, 0.0]]), (0, 1))


class TestLabelEncoding:
    """train_task and loss_gradient read labels by position in class_ids."""

    def test_unsorted_class_ids(self):
        gen = np.random.default_rng(12)
        X = gen.normal(size=(5, 2))
        labels = np.array([7, 3, 3, 9, 7])
        permuted = TrainingBatch(X, labels, (9, 3, 7))
        renamed = TrainingBatch(X, np.array([2, 1, 1, 0, 2]), (0, 1, 2))
        model = SoftmaxModel(gen.normal(size=(3, 2)), gen.normal(size=3), (9, 3, 7))
        same = SoftmaxModel(model.weights, model.bias, (0, 1, 2))
        config = LossConfig(beta=0.0, epochs=3, learning_rate=0.1)
        for a, b in zip(
            loss_gradient(permuted, model, None, config),
            loss_gradient(renamed, same, None, config),
        ):
            assert np.array_equal(a, b)
        trained = train_one(model, None, permuted, config)
        reference = train_one(same, None, renamed, config)
        assert np.array_equal(trained.weights, reference.weights)


ONE_CLASS = SoftmaxModel(np.zeros((1, 2)), np.zeros(1), (0,))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: SoftmaxModel(np.zeros((2, 1)), np.zeros(3), (0, 1)),
                     "inconsistent model shapes", id="bias_shape"),
        pytest.param(lambda: SoftmaxModel(np.array([[np.nan]]), np.zeros(1), (0,)),
                     "model parameters must be finite", id="not_finite"),
        pytest.param(
            lambda: loss_gradient(
                TrainingBatch(np.ones((1, 2)), np.array([1]), (0, 1)), ONE_CLASS, None,
                LossConfig(),
            ),
            "label width 2 != model classes 1", id="label_width",
        ),
        pytest.param(lambda: predict(SoftmaxModel.empty(2), np.zeros((1, 2))),
                     "model has no classes", id="no_classes"),
        pytest.param(lambda: predict(ONE_CLASS, np.zeros((1, 2)), mode="ncm"),
                     "ncm classification requires a rehearsal memory", id="ncm_without_memory"),
    ],
)
def test_malformed_arguments_are_validation_errors(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
