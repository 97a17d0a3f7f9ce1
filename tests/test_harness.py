from dataclasses import replace

import numpy as np
import pytest

from pbes.errors import ValidationError
from pbes.harness import (
    AugmentSettings,
    ExperimentConfig,
    StreamFiles,
    decision_flags,
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

    def test_exemplars_only_scope_runs(self):
        rows = run_experiment(
            tiny_config(loss=fast_loss(distill_scope="exemplars_only"))
        )
        assert len(rows) == 2


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
        spec = SyntheticStreamSpec(
            classes=4, tasks=2, class_size=16, imbalance_ratio=2.0, dims=4
        )
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
        config = tiny_config()
        lines = format_sweep_rows(sweep_budgets(config, [12, 4, 8])).splitlines(True)
        for budget in (4, 8, 12):
            single = format_metrics_rows(
                run_experiment(replace(config, memory_budget=budget))
            ).splitlines(True)[1:]
            block = [ln for ln in lines[1:] if ln.startswith(f"{budget},")]
            assert block == [f"{budget},{ln}" for ln in single]

    def test_empty_budgets_rejected(self):
        with pytest.raises(ValidationError):
            sweep_budgets(tiny_config(), [])

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError):
            sweep_budgets(tiny_config(), [-4])


def test_decision_flags_cover_behavioural_switches():
    flags = decision_flags(tiny_config())
    assert flags["distill_scope"] == "all"
    assert flags["eigensolver"] == "cyclic-jacobi"
    assert flags["metrics_timing_column"] == "deterministic-zero"
