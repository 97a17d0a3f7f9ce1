from dataclasses import replace

import numpy as np
import pytest

from pbes.errors import ValidationError
from pbes.harness import (
    AugmentSettings,
    ExperimentConfig,
    StreamFiles,
    format_sweep_rows,
    run_experiment,
    sweep_budgets,
)
from pbes.metrics import format_metrics_rows
from pbes.model import LossConfig
from pbes.stream import SyntheticStreamSpec, generate_synthetic_stream, write_stream


def fast_loss(**overrides):
    base = dict(learning_rate=1e-3, epochs=60)
    base.update(overrides)
    return LossConfig(**base)


def tiny_config(**overrides):
    base = dict(
        seed=11,
        stream=SyntheticStreamSpec(classes=4, tasks=2, class_size=12, dims=3),
        mode="method",
        sampler="pbes",
        memory_budget=8,
        classifier="argmax",
        loss=fast_loss(),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Class sizes differ within each task, so an enabled augmentation cuts rows.
IMBALANCED_SPEC = SyntheticStreamSpec(
    classes=4, tasks=2, class_size=16, imbalance_ratio=2.0, dims=4
)


class TestConfigValidation:
    def test_finetune_requires_zero_budget(self):
        with pytest.raises(ValidationError):
            tiny_config(mode="finetune", memory_budget=4)

    def test_ncm_requires_method_mode_with_memory(self):
        with pytest.raises(ValidationError):
            tiny_config(mode="upperbound", memory_budget=0, classifier="ncm")
        with pytest.raises(ValidationError):
            tiny_config(classifier="ncm", memory_budget=0)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            tiny_config(mode="replay")

    def test_negative_budget(self):
        with pytest.raises(ValidationError):
            tiny_config(memory_budget=-1)


class TestRunExperiment:
    def test_structural_two_tasks(self):
        rows = run_experiment(tiny_config())
        assert [r.task_index for r in rows] == [1, 2]
        for r in rows:
            for value in (r.accuracy, r.avg_accuracy, r.macro_f1, r.gmean):
                assert 0.0 <= value <= 1.0

    def test_byte_identical_reruns(self):
        config = tiny_config()
        a = format_metrics_rows(run_experiment(config))
        b = format_metrics_rows(run_experiment(config))
        assert a == b

    def test_seed_changes_results(self):
        crowded = SyntheticStreamSpec(
            classes=4, tasks=2, class_size=12, dims=3, layout_radius=1.5
        )
        a = run_experiment(tiny_config(seed=1, stream=crowded))
        b = run_experiment(tiny_config(seed=2, stream=crowded))
        assert any(
            x.accuracy != y.accuracy or x.macro_f1 != y.macro_f1
            for x, y in zip(a, b)
        )

    def test_avg_accuracy_is_running_mean(self):
        rows = run_experiment(tiny_config())
        running = []
        for r in rows:
            running.append(r.accuracy)
            assert r.avg_accuracy == pytest.approx(np.mean(running))

    def test_ncm_classifier_runs(self):
        rows = run_experiment(tiny_config(classifier="ncm"))
        assert len(rows) == 2

    def test_finetune_mode_runs_without_memory(self):
        rows = run_experiment(tiny_config(mode="finetune", memory_budget=0))
        assert len(rows) == 2

    def test_upperbound_mode_runs(self):
        rows = run_experiment(tiny_config(mode="upperbound", memory_budget=0))
        assert len(rows) == 2

    def test_file_stream_source(self, tmp_path):
        spec = SyntheticStreamSpec(classes=4, tasks=2, class_size=12, dims=3)
        manifest = write_stream(tmp_path / "s", generate_synthetic_stream(spec, 11))
        config = tiny_config(stream=StreamFiles(manifest=str(manifest)))
        file_rows = run_experiment(config)
        synth_rows = run_experiment(tiny_config())
        for a, b in zip(file_rows, synth_rows):
            assert a.accuracy == b.accuracy
            assert a.macro_f1 == b.macro_f1

    def test_augmentation_enabled_still_deterministic(self):
        config = tiny_config(
            stream=SyntheticStreamSpec(
                classes=4, tasks=2, class_size=16, imbalance_ratio=2.0, dims=4
            ),
            augment=AugmentSettings(enabled=True),
        )
        a = format_metrics_rows(run_experiment(config))
        assert a == format_metrics_rows(run_experiment(config))


class TestModeSemantics:
    def test_exemplars_come_from_original_rows(self, monkeypatch):
        """Every stored exemplar equals some original train row of its class."""
        import pbes.harness as harness

        memories, augmented = [], []
        real_rebalance, real_augment = harness.rebalance_memory, harness._augment_task

        def capture_rebalance(*args):
            memories.append(real_rebalance(*args))
            return memories[-1]

        def capture_augment(*args):
            extra = real_augment(*args)
            augmented.append(len(extra[1]))
            return extra

        monkeypatch.setattr(harness, "rebalance_memory", capture_rebalance)
        monkeypatch.setattr(harness, "_augment_task", capture_augment)
        spec = IMBALANCED_SPEC
        config = tiny_config(
            stream=spec,
            memory_budget=8,
            classifier="ncm",
            augment=AugmentSettings(enabled=True),
            loss=fast_loss(epochs=1),
        )
        run_experiment(config)
        assert sum(augmented) > 0
        assert len(memories) == 2
        train = {
            cid: task.train.rows_for(cid)
            for task in generate_synthetic_stream(spec, config.seed).tasks
            for cid in task.class_ids
        }
        for memory in memories:
            assert memory.total_stored() > 0
            for sc in memory.classes:
                for row in sc.points:
                    assert (train[sc.class_id] == row).all(axis=1).any()

    def test_upperbound_beats_finetune_most_seeds(self):
        spec = SyntheticStreamSpec(
            classes=4, tasks=2, class_size=16, dims=4, layout_radius=4.0
        )
        wins = 0
        for seed in range(8):
            upper = run_experiment(
                tiny_config(seed=seed, stream=spec, mode="upperbound", memory_budget=0)
            )
            fine = run_experiment(
                tiny_config(seed=seed, stream=spec, mode="finetune", memory_budget=0)
            )
            if upper[-1].avg_accuracy >= fine[-1].avg_accuracy:
                wins += 1
        assert wins >= 7


# (class id, stored train-row indices) per class after each task of the
# MEMORY_SPEC runs below. Selection, quota split and prefix truncation all
# show here: budget 20 caps classes 0, 1 and 5 by their row counts, and
# budget 4 gives the last two classes a quota of 0.
MEMORY_SPEC = SyntheticStreamSpec(
    classes=6, tasks=3, class_size=10, imbalance_ratio=3.0, dims=3
)
PINNED_MEMORY = {
    ("pbes", 20): [
        ((0, (7, 1, 2, 6, 5, 0, 4, 3)), (1, (2, 0, 4, 5, 1, 3, 6))),
        ((0, (7, 1, 2, 6, 5)), (1, (2, 0, 4, 5, 1)), (2, (1, 0, 4, 3, 2)),
         (3, (2, 4, 1, 0, 3))),
        ((0, (7, 1, 2, 6)), (1, (2, 0, 4, 5)), (2, (1, 0, 4)), (3, (2, 4, 1)),
         (4, (2, 1, 3)), (5, (0, 1))),
    ],
    ("randp", 20): [
        ((0, (6, 7, 2, 0, 1, 5, 4, 3)), (1, (2, 3, 5, 4, 0, 1, 6))),
        ((0, (6, 7, 2, 0, 1)), (1, (2, 3, 5, 4, 0)), (2, (2, 0, 1, 4, 5)),
         (3, (4, 2, 3, 1, 0))),
        ((0, (6, 7, 2, 0)), (1, (2, 3, 5, 4)), (2, (2, 0, 1)), (3, (4, 2, 3)),
         (4, (3, 2, 0)), (5, (0, 1))),
    ],
    ("herding", 20): [
        ((0, (7, 6, 0, 2, 5, 1, 3, 4)), (1, (2, 1, 6, 5, 3, 0, 4))),
        ((0, (7, 6, 0, 2, 5)), (1, (2, 1, 6, 5, 3)), (2, (1, 0, 2, 4, 5)),
         (3, (4, 3, 2, 0, 1))),
        ((0, (7, 6, 0, 2)), (1, (2, 1, 6, 5)), (2, (1, 0, 2)), (3, (4, 3, 2)),
         (4, (2, 3, 0)), (5, (0, 1))),
    ],
    ("random", 20): [
        ((0, (4, 7, 0, 6, 3, 2, 5, 1)), (1, (3, 1, 0, 4, 6, 2, 5))),
        ((0, (4, 7, 0, 6, 3)), (1, (3, 1, 0, 4, 6)), (2, (1, 2, 3, 0, 4)),
         (3, (2, 1, 3, 0, 4))),
        ((0, (4, 7, 0, 6)), (1, (3, 1, 0, 4)), (2, (1, 2, 3)), (3, (2, 1, 3)),
         (4, (1, 3, 0)), (5, (1, 0))),
    ],
    ("pbes", 4): [
        ((0, (7, 1)), (1, (2, 0))),
        ((0, (7,)), (1, (2,)), (2, (1,)), (3, (2,))),
        ((0, (7,)), (1, (2,)), (2, (1,)), (3, (2,)), (4, ()), (5, ())),
    ],
}


@pytest.mark.parametrize("sampler, budget", sorted(PINNED_MEMORY))
def test_memory_contents_pinned(monkeypatch, sampler, budget):
    import pbes.harness as harness

    real_rebalance = harness.rebalance_memory
    contents = []

    def capture_rebalance(*args):
        memory = real_rebalance(*args)
        contents.append(memory)
        return memory

    monkeypatch.setattr(harness, "rebalance_memory", capture_rebalance)
    config = tiny_config(
        seed=5, stream=MEMORY_SPEC, sampler=sampler, memory_budget=budget,
        loss=fast_loss(epochs=1),
    )
    run_experiment(config)
    assert [
        tuple((sc.class_id, sc.ordered_indices) for sc in memory.classes)
        for memory in contents
    ] == PINNED_MEMORY[sampler, budget]
    train = {
        cid: task.train.rows_for(cid)
        for task in generate_synthetic_stream(MEMORY_SPEC, 5).tasks
        for cid in task.class_ids
    }
    for sc in contents[-1].classes:
        assert np.array_equal(sc.points, train[sc.class_id][list(sc.ordered_indices)])


# Metrics CSV rows (after the header) of each path through the run loop on
# CSV_SPEC, recorded before the three modes shared one loop: which rows are
# trained on, with which teacher, and which test rows are scored all show here.
CSV_SPEC = SyntheticStreamSpec(
    classes=6, tasks=3, class_size=24, imbalance_ratio=2.0, dims=4, layout_radius=2.5
)
CSV_LOSS = fast_loss(learning_rate=2e-3, epochs=80)
PINNED_CSV = {
    "method": (
        {},
        (
            "1,0.888889,0.888889,0.883117,0.866025,0.000000",
            "2,0.812500,0.850694,0.793939,0.759836,0.000000",
            "3,0.571429,0.757606,0.507937,0.000000,0.000000",
        ),
    ),
    "method_augment": (
        dict(augment=AugmentSettings(enabled=True)),
        (
            "1,0.888889,0.888889,0.883117,0.866025,0.000000",
            "2,0.812500,0.850694,0.793939,0.759836,0.000000",
            "3,0.523810,0.741733,0.452910,0.000000,0.000000",
        ),
    ),
    "finetune": (
        dict(mode="finetune", memory_budget=0),
        (
            "1,0.888889,0.888889,0.883117,0.866025,0.000000",
            "2,0.562500,0.725694,0.520833,0.000000,0.000000",
            "3,0.333333,0.594907,0.233333,0.000000,0.000000",
        ),
    ),
    "finetune_augment": (
        dict(mode="finetune", memory_budget=0, augment=AugmentSettings(enabled=True)),
        (
            "1,0.888889,0.888889,0.883117,0.866025,0.000000",
            "2,0.500000,0.694444,0.476190,0.000000,0.000000",
            "3,0.333333,0.574074,0.233333,0.000000,0.000000",
        ),
    ),
    "upperbound": (
        dict(mode="upperbound", memory_budget=0),
        (
            "1,0.888889,0.888889,0.883117,0.866025,0.000000",
            "2,0.875000,0.881944,0.863781,0.840896,0.000000",
            "3,0.761905,0.841931,0.729293,0.707107,0.000000",
        ),
    ),
    "batch_size_4": (
        dict(loss=replace(CSV_LOSS, batch_size=4)),
        (
            "1,0.888889,0.888889,0.883117,0.866025,0.000000",
            "2,0.812500,0.850694,0.793939,0.759836,0.000000",
            "3,0.571429,0.757606,0.507937,0.000000,0.000000",
        ),
    ),
    "ncm": (
        dict(classifier="ncm"),
        (
            "1,0.777778,0.777778,0.775000,0.774597,0.000000",
            "2,0.750000,0.763889,0.754167,0.740083,0.000000",
            "3,0.714286,0.747354,0.705556,0.681292,0.000000",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CSV))
def test_metrics_csv_pinned(name):
    overrides, expected = PINNED_CSV[name]
    config = tiny_config(**{"stream": CSV_SPEC, "loss": CSV_LOSS, **overrides})
    csv = format_metrics_rows(run_experiment(config))
    assert csv.splitlines()[1:] == list(expected)


def assert_blocks_match_single_runs(config, budgets=(12, 4, 8)):
    """Each budget's block of a sweep's CSV equals that budget's single run."""
    lines = format_sweep_rows(sweep_budgets(config, list(budgets))).splitlines(True)
    for budget in sorted(budgets):
        single = format_metrics_rows(
            run_experiment(replace(config, memory_budget=budget))
        ).splitlines(True)[1:]
        block = [ln for ln in lines[1:] if ln.startswith(f"{budget},")]
        assert block == [f"{budget},{ln}" for ln in single]


class TestSweep:
    def test_blocks_and_ordering(self):
        results = sweep_budgets(tiny_config(), [16, 8])
        assert [budget for budget, _ in results] == [8, 16]
        text = format_sweep_rows(results)
        lines = text.splitlines()
        assert lines[0] == "M,task,accuracy,avg_accuracy,macro_f1,gmean,wall_ms"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["8", "8", "16", "16"]

    def test_duplicate_budget_warns_and_dedupes(self):
        with pytest.warns(UserWarning, match="duplicate budget"):
            results = sweep_budgets(tiny_config(), [8, 8, 16])
        assert [budget for budget, _ in results] == [8, 16]

    def test_blocks_match_single_runs(self):
        assert_blocks_match_single_runs(tiny_config())

    def test_augmented_ncm_blocks_match_single_runs(self):
        # The benchmark sweep's shape: cuts balance every task, ncm scores.
        assert_blocks_match_single_runs(
            tiny_config(stream=IMBALANCED_SPEC, classifier="ncm",
                        augment=AugmentSettings(enabled=True))
        )

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(classifier="ncm", augment=AugmentSettings(enabled=True))],
        ids=["argmax", "ncm_augmented"],
    )
    def test_mini_batch_blocks_match_single_runs(self, monkeypatch, overrides):
        # Mini-batches of 4 on a 3-task stream. After task 1 the budgets'
        # batches differ in length: full slices step as stacks, and ragged
        # last slices step alone or in stacks of their own length.
        import pbes.model as model

        steps = []
        real_gradient = model._gradient

        def gradient(Xa, *args):
            steps.append(Xa.shape[:-1])  # (rows,) alone, (stack, rows) stacked
            return real_gradient(Xa, *args)

        monkeypatch.setattr(model, "_gradient", gradient)
        config = tiny_config(stream=MEMORY_SPEC, loss=fast_loss(batch_size=4, epochs=2),
                             **overrides)
        assert_blocks_match_single_runs(config, (30, 5, 20, 9))
        stacked = {rows for *stack, rows in steps if stack}
        alone = {rows for *stack, rows in steps if not stack}
        assert 4 in stacked  # full slices
        assert stacked - {4} and alone - {4}  # ragged last slices, stacked and alone

    def test_one_selection_per_task_class(self, monkeypatch):
        import pbes.harness as harness

        requested = []
        real_sample = harness.sample

        def sample(method, X, m, rng=None):
            requested.append(m)
            return real_sample(method, X, m, rng=rng)

        monkeypatch.setattr(harness, "sample", sample)
        config = tiny_config(seed=5, stream=MEMORY_SPEC, loss=fast_loss(epochs=1))
        results = sweep_budgets(config, [4, 8, 12, 20])
        # Budget 20's quotas, capped by the class sizes (see PINNED_MEMORY);
        # budget 4 gives task 3's classes a quota of 0, and no budget asks again.
        assert requested == [8, 7, 5, 5, 3, 2]
        monkeypatch.undo()
        for budget, rows in results:
            single = run_experiment(replace(config, memory_budget=budget))
            assert format_metrics_rows(rows) == format_metrics_rows(single)

    def test_stream_loaded_and_tasks_augmented_once(self, monkeypatch):
        import pbes.harness as harness

        loads, blocks = [], []
        real_load, real_augment = harness.load_stream, harness._augment_task

        def load(config):
            loads.append(config)
            return real_load(config)

        def augment(*args):
            blocks.append(real_augment(*args))
            return blocks[-1]

        monkeypatch.setattr(harness, "load_stream", load)
        monkeypatch.setattr(harness, "_augment_task", augment)
        config = tiny_config(stream=IMBALANCED_SPEC, augment=AugmentSettings(enabled=True))
        assert len(sweep_budgets(config, [4, 8, 12, 16])) == 4
        assert len(loads) == 1
        assert len(blocks) == IMBALANCED_SPEC.tasks
        assert sum(len(labels) for _, labels in blocks) > 0

    def test_empty_budgets_rejected(self):
        with pytest.raises(ValidationError):
            sweep_budgets(tiny_config(), [])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError, match="got -4"):
            sweep_budgets(tiny_config(), [-4])

    @pytest.mark.parametrize(
        "overrides, budgets",
        [
            (dict(mode="finetune", memory_budget=0), [0, 8]),
            (dict(classifier="ncm"), [4, 0]),
            ({}, [8, 16, -4]),
        ],
    )
    def test_every_budget_checked_before_any_run(self, monkeypatch, overrides, budgets):
        import pbes.harness as harness

        # Loading the stream is the first thing a run does.
        calls = []
        monkeypatch.setattr(harness, "load_stream", lambda config: calls.append(config))
        with pytest.raises(ValidationError):
            sweep_budgets(tiny_config(**overrides), budgets)
        assert calls == []
