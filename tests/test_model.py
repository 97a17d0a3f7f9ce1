import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbes.errors import NumericalError, ValidationError
from pbes.model import (
    LossConfig,
    SoftmaxModel,
    TrainingBatch,
    classify,
    combine_losses,
    combined_loss,
    cross_entropy_loss,
    distillation_loss,
    load_model,
    loss_gradient,
    make_teacher,
    one_hot,
    predict,
    save_model,
    softmax_with_temperature,
    train_task,
)

from oracles import finite_difference_gradient, train_task_reference


def random_instance(gen, n_classes=None, n_old=None, n=None, d=None):
    n = n or int(gen.integers(1, 6))
    d = d or int(gen.integers(1, 4))
    k = n_classes or int(gen.integers(2, 5))
    k_old = n_old if n_old is not None else int(gen.integers(1, k))
    X = gen.normal(size=(n, d))
    labels = gen.integers(0, k, size=n)
    ids = tuple(range(k))
    batch = TrainingBatch(X, one_hot(labels, ids), ids)
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
        batch = TrainingBatch(np.array([[1.0]]), one_hot([0], ids), ids)
        assert cross_entropy_loss(batch, model) < 1e-12

    def test_uniform_two_classes_is_ln2(self):
        ids = (0, 1)
        model = SoftmaxModel(np.zeros((2, 1)), np.zeros(2), ids)
        batch = TrainingBatch(np.array([[1.0]]), one_hot([0], ids), ids)
        assert abs(cross_entropy_loss(batch, model) - math.log(2.0)) < 1e-12

    def test_sum_over_batch(self):
        ids = (0, 1)
        gen = np.random.default_rng(0)
        model = SoftmaxModel(gen.normal(size=(2, 3)), gen.normal(size=2), ids)
        x = gen.normal(size=(1, 3))
        single = TrainingBatch(x, one_hot([1], ids), ids)
        double = TrainingBatch(np.vstack([x, x]), one_hot([1, 1], ids), ids)
        assert abs(
            cross_entropy_loss(double, model) - 2.0 * cross_entropy_loss(single, model)
        ) < 1e-12

    def test_width_mismatch(self):
        ids = (0, 1, 2)
        model = SoftmaxModel(np.zeros((2, 1)), np.zeros(2), (0, 1))
        batch = TrainingBatch(np.ones((1, 1)), one_hot([0], ids), ids)
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
        teacher = make_teacher(model)
        batch = TrainingBatch(np.array([[0.5]]), one_hot([0], ids), ids)
        config = LossConfig(beta=1.0, temperature=2.0)
        assert abs(combined_loss(batch, model, teacher, config) - math.log(2.0)) < 1e-10

    def test_no_teacher_returns_cross_entropy(self):
        gen = np.random.default_rng(2)
        batch, model, _ = random_instance(gen)
        config = LossConfig(beta=0.7)
        assert combined_loss(batch, model, None, config) == cross_entropy_loss(
            batch, model
        )

    def test_exemplar_scope_restricts_rows(self):
        gen = np.random.default_rng(3)
        ids = (0, 1)
        model = SoftmaxModel(gen.normal(size=(2, 2)), gen.normal(size=2), ids)
        teacher = SoftmaxModel(gen.normal(size=(1, 2)), gen.normal(size=1), (0,))
        X = gen.normal(size=(3, 2))
        mask = np.array([False, True, False])
        batch = TrainingBatch(X, one_hot([0, 1, 0], ids), ids, exemplar_mask=mask)
        scoped = combined_loss(
            batch, model, teacher, LossConfig(beta=1.0, distill_scope="exemplars_only")
        )
        manual = distillation_loss(
            model.logits(X[1:2])[:, :1], teacher.logits(X[1:2]), 2.0
        )
        assert abs(scoped - manual) < 1e-12


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
        cases = [
            {"distill_scope": "all"},
            {"distill_scope": "exemplars_only"},
            {"distill_scope": "all", "ce_shared_temperature": True},
        ]
        for extra in cases:
            batch, model, teacher = random_instance(gen)
            if extra["distill_scope"] == "exemplars_only":
                mask = gen.integers(0, 2, size=len(batch)).astype(bool)
                batch = TrainingBatch(
                    batch.inputs, batch.labels, batch.class_ids, exemplar_mask=mask
                )
            config = LossConfig(beta=beta, temperature=temp, **extra)

            def loss_at(W, b):
                return combined_loss(
                    batch, SoftmaxModel(W, b, model.class_ids), teacher, config
                )

            gW, gb = loss_gradient(batch, model, teacher, config)
            fW, fb = finite_difference_gradient(loss_at, model.weights, model.bias)
            scale = max(1.0, np.abs(fW).max(), np.abs(fb).max())
            assert np.abs(gW - fW).max() / scale < 1e-5
            assert np.abs(gb - fb).max() / scale < 1e-5

    def test_shared_temperature_flag_changes_ce_term(self):
        gen = np.random.default_rng(44)
        batch, model, _ = random_instance(gen)
        plain = combined_loss(batch, model, None, LossConfig(temperature=4.0))
        shared = combined_loss(
            batch, model, None, LossConfig(temperature=4.0, ce_shared_temperature=True)
        )
        assert plain == cross_entropy_loss(batch, model)
        assert shared == cross_entropy_loss(batch, model, 4.0)
        assert plain != shared

    def test_near_minimum_gradient_vanishes(self):
        ids = (0, 1)
        model = SoftmaxModel(np.array([[40.0], [-40.0]]), np.zeros(2), ids)
        batch = TrainingBatch(np.array([[1.0]]), one_hot([0], ids), ids)
        gW, gb = loss_gradient(batch, model, None, LossConfig(beta=0.0))
        assert np.linalg.norm(gW) < 1e-6
        assert np.linalg.norm(gb) < 1e-6


class TestTrainTask:
    def test_zero_epochs_returns_model_unchanged(self):
        gen = np.random.default_rng(5)
        batch, model, _ = random_instance(gen)
        config = LossConfig(epochs=0)
        out = train_task(model, None, batch, config)
        assert out is model

    def test_separable_blobs_reach_full_accuracy(self):
        gen = np.random.default_rng(6)
        a = gen.normal(scale=0.1, size=(10, 2)) + [1.0, 0.0]
        b = gen.normal(scale=0.1, size=(10, 2)) + [-1.0, 0.0]
        X = np.vstack([a, b])
        labels = [0] * 10 + [1] * 10
        ids = (0, 1)
        batch = TrainingBatch(X, one_hot(labels, ids), ids)
        model = train_task(
            SoftmaxModel.empty(2), None, batch,
            LossConfig(learning_rate=0.1, epochs=200),
        )
        assert (predict(model, X) == labels).all()

    def test_full_batch_loss_non_increasing(self):
        gen = np.random.default_rng(7)
        X = gen.normal(size=(6, 2))
        labels = gen.integers(0, 2, size=6)
        ids = (0, 1)
        batch = TrainingBatch(X, one_hot(labels, ids), ids)
        config = LossConfig(learning_rate=0.01, epochs=1, beta=0.0)
        model = SoftmaxModel(np.zeros((2, 2)), np.zeros(2), ids)
        losses = [cross_entropy_loss(batch, model)]
        for _ in range(60):
            model = train_task(model, None, batch, config)
            losses.append(cross_entropy_loss(batch, model))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_teacher_not_mutated(self):
        gen = np.random.default_rng(8)
        batch, model, teacher = random_instance(gen)
        w_before = teacher.weights.copy()
        b_before = teacher.bias.copy()
        train_task(model, teacher, batch, LossConfig(epochs=5, learning_rate=0.01))
        assert np.array_equal(teacher.weights, w_before)
        assert np.array_equal(teacher.bias, b_before)

    def test_new_classes_zero_initialized(self):
        gen = np.random.default_rng(9)
        old = SoftmaxModel(gen.normal(size=(2, 3)), gen.normal(size=2), (0, 1))
        X = gen.normal(size=(4, 3))
        ids = (0, 1, 2, 3)
        batch = TrainingBatch(X, one_hot([0, 1, 2, 3], ids), ids)
        out = train_task(old, None, batch, LossConfig(epochs=0))
        assert out.class_ids == ids
        assert np.array_equal(out.weights[:2], old.weights)
        assert not out.weights[2:].any()
        assert not out.bias[2:].any()

    def test_wrong_class_order_rejected(self):
        old = SoftmaxModel(np.ones((2, 1)), np.zeros(2), (0, 1))
        batch = TrainingBatch(np.ones((1, 1)), one_hot([1], (1, 0)), (1, 0))
        with pytest.raises(ValidationError):
            train_task(old, None, batch, LossConfig())

    def test_overflow_raises_numerical_error(self):
        X = np.array([[1000.0], [-999.0]])
        ids = (0, 1)
        batch = TrainingBatch(X, one_hot([0, 1], ids), ids)
        with pytest.raises(NumericalError):
            train_task(
                SoftmaxModel.empty(1), None, batch,
                LossConfig(learning_rate=1e306, epochs=3),
            )

    def test_mini_batches_deterministic(self):
        gen = np.random.default_rng(10)
        X = gen.normal(size=(7, 2))
        labels = gen.integers(0, 2, size=7)
        ids = (0, 1)
        batch = TrainingBatch(X, one_hot(labels, ids), ids)
        config = LossConfig(learning_rate=0.01, epochs=20, batch_size=3)
        a = train_task(SoftmaxModel.empty(2), None, batch, config)
        b = train_task(SoftmaxModel.empty(2), None, batch, config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def _on_grid(a):
    """Round to multiples of 0.25 so that rows, logits and labels tie."""
    return np.round(np.asarray(a) * 4.0) / 4.0


@st.composite
def training_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    k_old = draw(st.integers(0, 3))
    k_new = draw(st.integers(1, 3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = tuple(range(k_old + k_new))
    mask = draw(st.sampled_from(["none", "all_false", "mixed"]))
    batch = TrainingBatch(
        _on_grid(gen.normal(scale=1.5, size=(n, d))),
        one_hot(gen.integers(0, len(ids), size=n), ids),
        ids,
        exemplar_mask={
            "none": None,
            "all_false": np.zeros(n, dtype=bool),
            "mixed": gen.random(n) < 0.5,
        }[mask],
    )
    old_ids = ids[:k_old]
    model = SoftmaxModel(
        _on_grid(gen.normal(size=(k_old, d))), _on_grid(gen.normal(size=k_old)), old_ids
    )
    teacher = draw(st.sampled_from(["none", "snapshot", "other"]))
    teacher = {
        "none": None,
        "snapshot": make_teacher(model),
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
        distill_scope=draw(st.sampled_from(["all", "exemplars_only"])),
        ce_shared_temperature=draw(st.booleans()),
    )
    return model, teacher, batch, config


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
    def test_bit_identical(self, problem):
        model, teacher, batch, config = problem
        fast = _outcome(train_task, model, teacher, batch, config)
        assert fast is not NumericalError
        assert fast == _outcome(train_task_reference, model, teacher, batch, config)
        diverging = replace(config, learning_rate=1e308)
        assert _outcome(train_task, model, teacher, batch, diverging) == _outcome(
            train_task_reference, model, teacher, batch, diverging
        )

    def test_divergence_raises_in_both(self):
        gen = np.random.default_rng(11)
        ids = (0, 1, 2)
        batch = TrainingBatch(
            _on_grid(gen.normal(size=(9, 3))), one_hot([0, 1, 2] * 3, ids), ids
        )
        teacher = SoftmaxModel(np.ones((2, 3)), np.zeros(2), ids[:2])
        for scope in ("all", "exemplars_only"):
            config = LossConfig(learning_rate=1e308, epochs=3, distill_scope=scope)
            for train in (train_task, train_task_reference):
                with pytest.raises(NumericalError):
                    train(teacher, teacher, batch, config)


class _MeanMemory:
    def __init__(self, ids, means):
        self._ids = np.asarray(ids, dtype=np.int64)
        self._means = np.asarray(means, dtype=np.float64)

    def class_means(self):
        return self._ids, self._means


class TestClassify:
    def test_zero_model_ties_resolve_to_lowest_id(self):
        model = SoftmaxModel(np.zeros((3, 2)), np.zeros(3), (5, 2, 9))
        assert classify(model, np.array([1.0, -1.0])) == 2

    def test_ncm_geometry(self):
        model = SoftmaxModel(np.zeros((2, 2)), np.zeros(2), (0, 1))
        memory = _MeanMemory([0, 1], [[0.0, 0.0], [10.0, 0.0]])
        assert classify(model, np.array([1.0, 0.0]), mode="ncm", memory=memory) == 0
        assert classify(model, np.array([9.0, 0.0]), mode="ncm", memory=memory) == 1

    def test_argmax_matches_linear_scan(self):
        gen = np.random.default_rng(11)
        model = SoftmaxModel(gen.normal(size=(4, 3)), gen.normal(size=4), (3, 1, 7, 2))
        for _ in range(20):
            x = gen.normal(size=3)
            logits = model.weights @ x + model.bias
            best, best_id = -np.inf, None
            for cid, logit in zip(model.class_ids, logits):
                if logit > best or (logit == best and cid < best_id):
                    best, best_id = logit, cid
            assert classify(model, x) == best_id

    def test_ncm_empty_memory_errors(self):
        model = SoftmaxModel(np.zeros((1, 2)), np.zeros(1), (0,))
        memory = _MeanMemory(np.zeros(0), np.zeros((0, 2)))
        with pytest.raises(ValidationError):
            classify(model, np.zeros(2), mode="ncm", memory=memory)

    def test_unknown_mode(self):
        model = SoftmaxModel(np.zeros((1, 1)), np.zeros(1), (0,))
        with pytest.raises(ValidationError):
            classify(model, np.zeros(1), mode="centroid")


class TestCheckpoint:
    def test_round_trip_byte_exact(self, tmp_path):
        gen = np.random.default_rng(12)
        model = SoftmaxModel(gen.normal(size=(3, 4)), gen.normal(size=3), (2, 5, 11))
        path = tmp_path / "model.bin"
        save_model(path, model)
        back = load_model(path)
        assert back.class_ids == model.class_ids
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)
        save_model(tmp_path / "again.bin", back)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WHAT" + b"\x00" * 32)
        from pbes.errors import FileFormatError

        with pytest.raises(FileFormatError):
            load_model(path)


class TestLossConfigValidation:
    def test_rejects_bad_temperature(self):
        with pytest.raises(ValidationError):
            LossConfig(temperature=1.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValidationError):
            LossConfig(beta=1.5)

    def test_rejects_bad_scope(self):
        with pytest.raises(ValidationError):
            LossConfig(distill_scope="sometimes")


class TestTrainingBatchValidation:
    def test_rejects_non_one_hot(self):
        with pytest.raises(ValidationError):
            TrainingBatch(np.ones((1, 2)), np.array([[0.5, 0.5]]), (0, 1))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError):
            TrainingBatch(np.ones((2, 2)), np.array([[1.0, 0.0]]), (0, 1))
