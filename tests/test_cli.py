import contextlib
import copy
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbes
from pbes.augmentation import read_pbim, write_pbim, write_pbsm
from pbes.benchmark import blob_stream_spec
from pbes.cli import main
from pbes.stream import (
    LabeledDataset,
    SyntheticStreamSpec,
    generate_synthetic_stream,
    write_dataset_csv,
    write_stream,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def five_point_csv(tmp_path):
    path = tmp_path / "points.csv"
    data = LabeledDataset(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]), [0] * 5)
    write_dataset_csv(path, data)
    return path


def minimal_config(tmp_path, **overrides):
    doc = {
        "seed": 11,
        "mode": "method",
        "sampler": "pbes",
        "memory_budget": 8,
        "classifier": "argmax",
        "loss": {"learning_rate": 0.001, "epochs": 40},
        "stream": {"synthetic": {"classes": 4, "tasks": 2, "class_size": 12, "dims": 3}},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def write_raw(path, magic, shape, values):
    """A PBIM (c, h, w) or PBSM (h, w) file written without validating ``values``."""
    header = struct.pack(f"<{len(shape)}I", *shape)
    path.write_bytes(magic + header + np.asarray(values, dtype="<f4").tobytes())


# Files that pass the PBIM/PBSM length check but hold no valid image or map.
BAD_PBIM = {
    "zero_axis": ((1, 0, 2), []),
    "nan": ((1, 2, 2), [1.0, np.nan, 1.0, 1.0]),
    "inf": ((1, 2, 2), [1.0, 1.0, -np.inf, 1.0]),
}
BAD_PBSM = {
    "zero_axis": ((2, 0), []),
    "nan": ((2, 2), [1.0, np.nan, 1.0, 1.0]),
    "negative": ((2, 2), [1.0, -0.5, 1.0, 1.0]),
}

# Specs whose generated points leave the float64 range.
OVERFLOWING_SPECS = [
    pytest.param({"blob_std": 1e308}, id="blob_std"),
    pytest.param(
        {"blob_std": 10.0, "outlier_distance": 1e308, "outlier_fraction": 0.5},
        id="outlier_distance",
    ),
]


class TestSample:
    def test_pbes_matches_hand_trace(self, tmp_path, five_point_csv):
        out = tmp_path / "sel"
        assert run_cli("sample", "--input", five_point_csv, "--method", "pbes",
                       "--m", 2, "--out", out) == 0
        indices = (out / "indices.txt").read_text().split()
        assert indices == ["2", "1"]  # rows holding values 3 and 2
        rows = (out / "exemplars.csv").read_text().splitlines()
        assert rows[0] == "label,f0"
        assert rows[1] == "0,3.0"
        assert rows[2] == "0,2.0"

    def test_summary_names_the_basis_and_rank(self, tmp_path, capsys):
        train = generate_synthetic_stream(blob_stream_spec(), 0).tasks[0].train
        path = tmp_path / "blob.csv"
        write_dataset_csv(path, train)
        for method, m, basis in (
            ("pbes", 20, " (basis fallback, rank 8)"),
            ("pbes", 4, " (basis pca, rank 8)"),
            ("randp", 4, " (basis random)"),
            ("herding", 4, ""),
        ):
            assert run_cli("sample", "--input", path, "--label", 0, "--method", method,
                           "--m", m, "--seed", 1, "--out", tmp_path / method) == 0
            rows = int((train.labels == 0).sum())
            assert capsys.readouterr().out == f"selected {m} of {rows} rows with {method}{basis}\n"

    def test_random_without_seed_is_usage_error(self, tmp_path, five_point_csv):
        code = run_cli("sample", "--input", five_point_csv, "--method", "random",
                       "--m", 2, "--out", tmp_path / "sel")
        assert code == 2

    def test_m_equals_n_emits_all_lines(self, tmp_path, five_point_csv):
        out = tmp_path / "sel"
        assert run_cli("sample", "--input", five_point_csv, "--method", "pbes",
                       "--m", 5, "--out", out) == 0
        assert len((out / "indices.txt").read_text().split()) == 5

    def test_m_too_large_is_validation_error(self, tmp_path, five_point_csv):
        code = run_cli("sample", "--input", five_point_csv, "--method", "pbes",
                       "--m", 9, "--out", tmp_path / "sel")
        assert code == 2

    def test_unreadable_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("definitely,not\n1,a,dataset\n")
        code = run_cli("sample", "--input", bad, "--method", "pbes", "--m", 1,
                       "--out", tmp_path / "sel")
        assert code == 3

    def test_missing_input_is_io_error(self, tmp_path):
        code = run_cli("sample", "--input", tmp_path / "nope.csv", "--method", "pbes",
                       "--m", 1, "--out", tmp_path / "sel")
        assert code == 3

    def test_label_filter_keeps_original_row_numbers(self, tmp_path):
        path = tmp_path / "mixed.csv"
        data = LabeledDataset(
            np.array([[10.0], [1.0], [2.0], [3.0], [20.0]]), [1, 0, 0, 0, 1]
        )
        write_dataset_csv(path, data)
        out = tmp_path / "sel"
        assert run_cli("sample", "--input", path, "--method", "pbes", "--m", 1,
                       "--label", 0, "--out", out) == 0
        assert (out / "indices.txt").read_text().split() == ["2"]  # value 2.0

    def test_negative_seed(self, tmp_path):
        path = tmp_path / "three.csv"
        write_dataset_csv(path, LabeledDataset(np.array([[1.0], [2.0], [3.0]]), [0] * 3))
        out = tmp_path / "sel"
        assert run_cli("sample", "--input", path, "--method", "random", "--m", 1,
                       "--seed", -1, "--out", out) == 0
        assert len((out / "indices.txt").read_text().split()) == 1

    def test_pbim_directory_input(self, tmp_path):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        for i, value in enumerate([1.0, 2.0, 3.0]):
            write_pbim(img_dir / f"{i}.pbim", np.full((1, 1, 1), value, dtype=np.float32))
        out = tmp_path / "sel"
        assert run_cli("sample", "--input", img_dir, "--method", "pbes", "--m", 1,
                       "--out", out) == 0
        assert (out / "indices.txt").read_text().split() == ["1"]

    @pytest.mark.parametrize("bad", sorted(BAD_PBIM))
    def test_invalid_pbim_is_format_error(self, tmp_path, capsys, bad):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        write_pbim(img_dir / "a.pbim", np.ones((1, 2, 2), dtype=np.float32))
        write_raw(img_dir / "b.pbim", b"PBIM", *BAD_PBIM[bad])
        assert run_cli("sample", "--input", img_dir, "--method", "pbes", "--m", 1,
                       "--out", tmp_path / "sel") == 3
        assert f"{img_dir / 'b.pbim'}: " in capsys.readouterr().err

    def test_mixed_shape_pbim_directory(self, tmp_path, capsys):
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        write_pbim(img_dir / "a.pbim", np.ones((1, 2, 2), dtype=np.float32))
        write_pbim(img_dir / "b.pbim", np.ones((1, 2, 2), dtype=np.float32))
        write_pbim(img_dir / "c.pbim", np.ones((1, 3, 2), dtype=np.float32))
        assert run_cli("sample", "--input", img_dir, "--method", "pbes", "--m", 1,
                       "--out", tmp_path / "sel") == 2
        err = capsys.readouterr().err
        assert str(img_dir) in err
        assert "c.pbim has shape (1, 3, 2)" in err
        assert "a.pbim has shape (1, 2, 2)" in err

    @pytest.mark.parametrize("method", ["pbes", "herding", "random"])
    def test_randp_pool_needs_randp(self, tmp_path, capsys, five_point_csv, method):
        assert run_cli("sample", "--input", five_point_csv, "--method", method, "--m", 1,
                       "--seed", 0, "--randp-pool", 5, "--out", tmp_path / "sel") == 2
        assert "randp_pool only applies to the randp sampler" in capsys.readouterr().err
        assert not (tmp_path / "sel").exists()

    def test_randp_pool_beyond_pass_count_changes_nothing(self, tmp_path):
        # m = 5 of 40 rows needs 3 passes; only that many directions are drawn.
        path = tmp_path / "points.csv"
        rows = np.random.default_rng(40).normal(size=(40, 5))
        write_dataset_csv(path, LabeledDataset(rows, [0] * 40))
        picked = []
        for i, pool in enumerate([[], ["--randp-pool", 10**12]]):
            out = tmp_path / f"sel{i}"
            assert run_cli("sample", "--input", path, "--method", "randp", "--m", 5,
                           "--seed", 7, *pool, "--out", out) == 0
            picked.append((out / "indices.txt").read_bytes())
        assert picked[0] == picked[1]

    @pytest.mark.parametrize(
        "value,method",
        [(1e200, "pbes"), (1e200, "herding"), (1e308, "pbes"), (1e308, "herding"),
         (1e308, "randp")],
    )
    def test_overflowing_rows_are_numerical_error(self, tmp_path, capsys, value, method):
        # Column 0 sums past float64 at 1e308. Row 1 has the signs of randp's
        # first direction at seed 2, so its projection reaches 2.2e308.
        signs = [
            [-1, -1, -1, -1, -1, -1, -1, -1],
            [-1, 1, 1, 1, -1, -1, 1, -1],
            [1, -1, 1, -1, -1, -1, 1, -1],
            [1, 0.5, -0.5, 1, 0.5, -1, 0.5, 1],
            [0.5, 1, 0.5, -0.5, 1, 0.5, -1, -0.5],
            [-0.5, -0.5, 1, 0.5, -0.5, 1, -0.5, 1],
            [1, 1, -1, -1, 0.5, 0.5, -0.5, -0.5],
        ]
        path = tmp_path / "huge.csv"
        write_dataset_csv(path, LabeledDataset(value * np.array(signs), [0] * 7))
        out = tmp_path / "sel"
        assert run_cli("sample", "--input", path, "--method", method, "--m", 2,
                       "--seed", 2, "--out", out) == 4
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()

    def test_eigensolver_failure_is_numerical_error(self, tmp_path, capsys, monkeypatch,
                                                    five_point_csv):
        def no_convergence(S):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert run_cli("sample", "--input", five_point_csv, "--method", "pbes",
                       "--m", 2, "--out", tmp_path / "sel") == 4
        assert "did not converge" in capsys.readouterr().err


class TestRun:
    def test_two_task_config_gives_two_rows(self, tmp_path):
        config = minimal_config(tmp_path)
        out = tmp_path / "metrics.csv"
        assert run_cli("run", "--config", config, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "task,accuracy,avg_accuracy,macro_f1,gmean,wall_ms"
        assert len(lines) == 3
        sidecar = json.loads((tmp_path / "metrics.csv.provenance.json").read_text())
        assert sidecar["seed"] == 11
        assert "decisions" in sidecar and "config_sha256" in sidecar

    def test_rerun_byte_identical(self, tmp_path):
        config = minimal_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("run", "--config", config, "--out", a) == 0
        assert run_cli("run", "--config", config, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        config = minimal_config(tmp_path, foo=1)
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2
        assert "'foo'" in capsys.readouterr().err

    def test_unknown_nested_key_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        doc = json.loads(minimal_config(tmp_path).read_text())
        doc["loss"]["momentum"] = 0.9
        path.write_text(json.dumps(doc))
        assert run_cli("run", "--config", path, "--out", tmp_path / "m.csv") == 2
        assert "'momentum'" in capsys.readouterr().err

    def test_missing_seed_rejected(self, tmp_path):
        doc = json.loads(minimal_config(tmp_path).read_text())
        del doc["seed"]
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", "--config", path, "--out", tmp_path / "m.csv") == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert run_cli("run", "--config", tmp_path / "nope.json",
                       "--out", tmp_path / "m.csv") == 3

    def test_corrupt_config_is_io_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert run_cli("run", "--config", path, "--out", tmp_path / "m.csv") == 3

    def test_file_stream_config(self, tmp_path):
        from pbes.stream import SyntheticStreamSpec, generate_synthetic_stream, write_stream

        spec = SyntheticStreamSpec(classes=4, tasks=2, class_size=12, dims=3)
        write_stream(tmp_path / "data", generate_synthetic_stream(spec, 11))
        config = minimal_config(
            tmp_path, stream={"files": {"manifest": "data/stream.json"}}
        )
        out = tmp_path / "metrics.csv"
        assert run_cli("run", "--config", config, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 3


class TestSweep:
    def test_two_budget_blocks(self, tmp_path):
        config = minimal_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", config, "--budgets", "8,16", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "M,task,accuracy,avg_accuracy,macro_f1,gmean,wall_ms"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["8", "8", "16", "16"]

    def test_duplicate_budgets_deduplicated_with_warning(self, tmp_path):
        config = minimal_config(tmp_path)
        out = tmp_path / "sweep.csv"
        with pytest.warns(UserWarning, match="duplicate budget"):
            assert run_cli("sweep", "--config", config, "--budgets", "8,8", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["8", "8"]

    def test_bad_budget_list(self, tmp_path):
        config = minimal_config(tmp_path)
        assert run_cli("sweep", "--config", config, "--budgets", "8,x",
                       "--out", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize(
        "overrides, budgets",
        [({"mode": "finetune", "memory_budget": 0}, "0,8"), ({}, "8,-4")],
    )
    def test_invalid_budget_runs_nothing(self, tmp_path, monkeypatch, overrides, budgets):
        import pbes.harness as harness

        calls = []
        monkeypatch.setattr(harness, "run_experiment", lambda config: calls.append(config))
        config = minimal_config(tmp_path, **overrides)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", config, "--budgets", budgets, "--out", out) == 2
        assert calls == []
        assert not out.exists()

    def test_large_budget_sweep_shape(self, tmp_path):
        # budgets exceeding the data size saturate the quotas but still run
        config = minimal_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", config, "--budgets", "800,1000,1200,1400",
                       "--out", out) == 0
        blocks = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
        assert blocks == ["800", "800", "1000", "1000", "1200", "1200", "1400", "1400"]


class TestOverrides:
    def test_mode_override_flag(self, tmp_path):
        config = minimal_config(tmp_path, memory_budget=0)
        out = tmp_path / "m.csv"
        assert run_cli("run", "--config", config, "--mode", "finetune",
                       "--out", out) == 0
        sidecar = json.loads((tmp_path / "m.csv.provenance.json").read_text())
        assert sidecar["seed"] == 11

    def test_seed_override_changes_output(self, tmp_path):
        config = minimal_config(
            tmp_path,
            stream={"synthetic": {"classes": 4, "tasks": 2, "class_size": 12,
                                  "dims": 3, "layout_radius": 1.5}},
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("run", "--config", config, "--out", a) == 0
        assert run_cli("run", "--config", config, "--seed", 99, "--out", b) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_incompatible_mode_override_is_validation_error(self, tmp_path):
        config = minimal_config(tmp_path)  # memory_budget 8
        assert run_cli("run", "--config", config, "--mode", "finetune",
                       "--out", tmp_path / "m.csv") == 2

    @pytest.mark.parametrize(
        "overrides, field",
        [
            pytest.param({"memory_budget": 40}, "memory_budget", id="budget"),
            pytest.param(
                {"memory_budget": 0, "augmentation": {"enabled": True}},
                "augmentation.enabled", id="augmentation",
            ),
        ],
    )
    def test_upperbound_rejects_what_it_would_ignore(self, tmp_path, capsys, overrides, field):
        config = minimal_config(tmp_path, mode="upperbound", **overrides)
        out = tmp_path / "u.csv"
        assert run_cli("run", "--config", config, "--out", out) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, key_path",
        [
            pytest.param({"memory_budget": "lots"}, "memory_budget", id="budget_str"),
            pytest.param({"memory_budget": True}, "memory_budget", id="budget_bool"),
            pytest.param({"seed": 1.9}, "seed", id="seed_float"),
            pytest.param(
                {"augmentation": {"enabled": "false"}}, "augmentation.enabled",
                id="enabled_str",
            ),
            pytest.param({"loss": {"epochs": 2.7}}, "loss.epochs", id="epochs_float"),
            pytest.param(
                {"loss": {"temperature": 10**400}}, "loss.temperature", id="float_overflow"
            ),
            pytest.param({"randp_pool": "3"}, "randp_pool", id="optional_int_str"),
            pytest.param(
                {"stream": {"synthetic": {"classes": 4, "tasks": 2,
                                          "per_class_sizes": "1234"}}},
                "stream.synthetic.per_class_sizes", id="sizes_str",
            ),
            pytest.param(
                {"stream": {"synthetic": {"classes": 4, "tasks": 2,
                                          "per_class_sizes": [9, 9, 9.5, 9]}}},
                "stream.synthetic.per_class_sizes[2]", id="sizes_float_item",
            ),
            pytest.param(
                {"stream": {"files": {"manifest": 7}}}, "stream.files.manifest",
                id="manifest_int",
            ),
        ],
    )
    def test_bad_value_type_is_validation_error(self, tmp_path, capsys, overrides, key_path):
        config = minimal_config(tmp_path, **overrides)
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2
        err = capsys.readouterr().err
        assert f"error: {key_path} must be " in err
        assert not (tmp_path / "m.csv").exists()

    def test_ints_accepted_for_floats(self, tmp_path):
        outputs = []
        for temperature in (2, 2.0):
            loss = {"learning_rate": 0.001, "epochs": 40, "temperature": temperature}
            config = minimal_config(tmp_path, loss=loss)
            out = tmp_path / f"{temperature!r}.csv"
            assert run_cli("run", "--config", config, "--out", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_augmentation_settings_rejected_on_balanced_stream(self, tmp_path, capsys):
        augmentation = {"enabled": True, "mode": "bogus", "tau": 7.0, "region_height": -3}
        config = minimal_config(tmp_path, augmentation=augmentation)
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2
        assert "'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize(
        "synthetic, field",
        [
            pytest.param({"class_size": 10**20}, "class_size", id="class_size"),
            pytest.param(
                {"per_class_sizes": [12, 12, 12, 10**20]}, "per_class_sizes",
                id="per_class_sizes",
            ),
        ],
    )
    def test_oversized_synthetic_stream_rejected(self, tmp_path, capsys, synthetic, field):
        stream = {"synthetic": {"classes": 4, "tasks": 2, "dims": 3, **synthetic}}
        config = minimal_config(tmp_path, stream=stream)
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2
        err = capsys.readouterr().err
        assert "too large" in err and field in err

    def test_non_object_section_is_validation_error(self, tmp_path):
        config = minimal_config(tmp_path, loss=[1, 2, 3])
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2


@pytest.mark.parametrize("synthetic", OVERFLOWING_SPECS)
def test_overflowing_synthetic_spec_is_validation_error(tmp_path, capsys, synthetic):
    spec = {"classes": 4, "tasks": 2, "dims": 3, **synthetic}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    config = minimal_config(tmp_path, stream={"synthetic": spec})
    for argv in (
        ["gen", "--config", spec_path, "--seed", 5, "--out", tmp_path / "o"],
        ["run", "--config", config, "--out", tmp_path / "o.csv"],
    ):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in ("blob_std", "layout_radius", "outlier_distance"))
        assert not argv[-1].exists()


class TestGen:
    def test_deterministic_dataset_files(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"classes": 4, "tasks": 2, "class_size": 10, "dims": 2}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("gen", "--config", spec_path, "--seed", 5, "--out", out_a) == 0
        assert run_cli("gen", "--config", spec_path, "--seed", 5, "--out", out_b) == 0
        for name in ("stream.json", "task_001_train.csv", "task_002_test.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_ill_typed_spec_value(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"classes": "x", "tasks": 2}))
        assert run_cli("gen", "--config", spec_path, "--seed", 5,
                       "--out", tmp_path / "o") == 2
        assert "classes must be int, got 'x'" in capsys.readouterr().err

    def test_unknown_spec_key(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"classes": 4, "tasks": 2, "sigma": 1.0}))
        assert run_cli("gen", "--config", spec_path, "--seed", 5,
                       "--out", tmp_path / "o") == 2


def file_stream_config(tmp_path):
    """A run config over a small stream written as CSV files, and its manifest."""
    spec = SyntheticStreamSpec(classes=4, tasks=2, class_size=12, dims=3)
    manifest = write_stream(tmp_path / "data", generate_synthetic_stream(spec, 11))
    config = minimal_config(tmp_path, stream={"files": {"manifest": "data/stream.json"}})
    return config, manifest


class TestInputFiles:
    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda m: m["tasks"][0].pop("train"), "task 1 needs",
                         id="task_without_train"),
            pytest.param(lambda m: m.update(tasks=[]), "non-empty 'tasks' list",
                         id="no_tasks"),
            pytest.param(lambda m: m.update(tasks=5), "non-empty 'tasks' list",
                         id="tasks_not_a_list"),
            pytest.param(lambda m: m["tasks"][1].update(classes="ab"), "task 2 needs",
                         id="classes_str"),
            pytest.param(lambda m: m["tasks"][1].update(test=None), "task 2 needs",
                         id="test_null"),
        ],
    )
    def test_malformed_manifest_is_format_error(self, tmp_path, capsys, edit, message):
        config, manifest = file_stream_config(tmp_path)
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 3
        err = capsys.readouterr().err
        assert str(manifest) in err and message in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_csv_cell_is_format_error(self, tmp_path, capsys, cell):
        config, manifest = file_stream_config(tmp_path)
        csv = manifest.parent / "task_002_test.csv"
        lines = csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
        csv.write_text("\n".join(lines) + "\n")
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 3
        assert f"{csv}:3: non-finite value" in capsys.readouterr().err

    def test_out_of_range_csv_label_is_format_error(self, tmp_path, capsys):
        config, manifest = file_stream_config(tmp_path)
        csv = manifest.parent / "task_001_train.csv"
        lines = csv.read_text().splitlines()
        lines[1] = str(2**63) + "," + lines[1].split(",", 1)[1]
        csv.write_text("\n".join(lines) + "\n")
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 3
        assert f"{csv}:2: label" in capsys.readouterr().err

    def test_feature_count_mismatch_is_validation_error(self, tmp_path, capsys):
        config, manifest = file_stream_config(tmp_path)
        narrow = LabeledDataset(np.zeros((2, 2)), [2, 3], "test")
        write_dataset_csv(manifest.parent / "task_002_test.csv", narrow)
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2
        assert "task 2 test split has 2 features" in capsys.readouterr().err

    def test_class_listed_twice_is_validation_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        gen = np.random.default_rng(2)
        manifest = {"tasks": []}
        for task, classes in enumerate(([0, 0], [1, 2]), start=1):
            for split in ("train", "test"):
                labels = sorted(set(classes)) * 4
                rows = LabeledDataset(gen.normal(size=(len(labels), 3)), labels, split)
                write_dataset_csv(data / f"{task}_{split}.csv", rows)
            names = {split: f"{task}_{split}.csv" for split in ("train", "test")}
            manifest["tasks"].append({"classes": classes, **names})
        (data / "stream.json").write_text(json.dumps(manifest))
        config = minimal_config(
            tmp_path, memory_budget=6, stream={"files": {"manifest": "data/stream.json"}}
        )
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2
        assert "task 1 lists classes [0] more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("augment", [False, True])
    def test_class_without_train_rows_is_validation_error(
        self, tmp_path, capsys, augment
    ):
        config, manifest = file_stream_config(tmp_path)
        csv = manifest.parent / "task_002_train.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(ln for ln in lines if not ln.startswith("3,")) + "\n")
        doc = json.loads(config.read_text())
        doc["augmentation"] = {"enabled": augment}
        config.write_text(json.dumps(doc))
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2
        assert "task 2 train split has no rows of classes [3]" in capsys.readouterr().err

    @pytest.mark.parametrize("augment", [False, True])
    def test_synthetic_class_without_train_rows_is_validation_error(
        self, tmp_path, capsys, augment
    ):
        spec = {"classes": 2, "tasks": 1, "class_size": 2, "test_fraction": 0.9}
        config = minimal_config(
            tmp_path, stream={"synthetic": spec}, augmentation={"enabled": augment}
        )
        assert run_cli("run", "--config", config, "--out", tmp_path / "m.csv") == 2
        err = capsys.readouterr().err
        assert "task 1 train split has no rows of classes [0, 1]" in err

    def test_non_utf8_config_is_io_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": "\xe9"}')
        assert run_cli("run", "--config", path, "--out", tmp_path / "m.csv") == 3


# A valid config that reaches every config field; mutations start from it.
FUZZ_CONFIG = {
    "seed": 3,
    "mode": "method",
    "sampler": "randp",
    "randp_pool": 4,
    "memory_budget": 6,
    "classifier": "ncm",
    "loss": {"temperature": 2.0, "beta": 0.5, "learning_rate": 0.001, "epochs": 2,
             "batch_size": 4, "distill_scope": "all", "ce_shared_temperature": False},
    "augmentation": {"enabled": True, "region_height": 1, "region_width": 1,
                     "mode": "randomized", "tau": 0.5},
    "stream": {"synthetic": {"classes": 4, "tasks": 2, "class_size": 10,
                             "imbalance_ratio": 2.0, "blob_std": 1.0,
                             "layout_radius": 6.0, "outlier_fraction": 0.1,
                             "outlier_distance": 20.0, "dims": 3, "test_fraction": 0.2,
                             "per_class_sizes": [10, 8, 6, 4]}},
}
FUZZ_FILES_CONFIG = {**FUZZ_CONFIG, "stream": {"files": {"manifest": "data/stream.json"}}}
# Replacement JSON values; ints stay <= 2 so that no mutated run trains long.
FUZZ_VALUES = st.sampled_from([
    None, True, False, -1, 0, 1, 2, 0.5, -1.5, 2.7, "", "x", "false", "\x00",
    "finetune", "upperbound", "herding", "exemplars_only", "deterministic",
    "task_001_train.csv", "missing.csv", [], [1, 2], ["a"], {}, {"extra": 1},
])
FUZZ_CELLS = st.sampled_from(
    ["nan", "inf", "-Infinity", "1e999", "", "x", "7", "-0.0", "1e6", str(2**63)]
)


def _json_paths(doc, prefix=()):
    """Key paths to every value in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _mutate_json(data, doc):
    """``doc`` with one to three values replaced, keys deleted or keys added."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(FUZZ_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "add" and isinstance(parent, dict):
            parent[data.draw(st.sampled_from(["extra", "seed", "enabled", "dims"]))] = value
        else:
            parent[path[-1]] = value
    return doc


def _mutate_csv(data, path):
    lines = path.read_text().split("\n")
    row = data.draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    action = data.draw(st.sampled_from(["cell", "drop_cell", "add_cell", "drop_line"]))
    if action == "cell":
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(FUZZ_CELLS)
    elif action == "drop_cell":
        cells.pop()
    elif action == "add_cell":
        cells.append(data.draw(FUZZ_CELLS))
    lines[row:row + 1] = [] if action == "drop_line" else [",".join(cells)]
    path.write_text("\n".join(lines))


FUZZ_PIXELS = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -0.0, 3e38])
FUZZ_AXES = st.sampled_from([0, 1, 2, 3, 7, 2**32 - 1])


def _mutate_image_file(data, path):
    """Corrupt a PBIM/PBSM file's header, payload length, one value or its shape."""
    blob = bytearray(path.read_bytes())
    head = 16 if blob[:4] == b"PBIM" else 12
    action = data.draw(st.sampled_from(["magic", "axis", "truncate", "extend", "value",
                                        "shape"]))
    if action == "magic":
        blob[:4] = data.draw(st.sampled_from([b"PBIM", b"PBSM", b"XXXX", b""]))
    elif action == "axis":
        at = data.draw(st.sampled_from(range(4, head, 4)))
        blob[at:at + 4] = struct.pack("<I", data.draw(FUZZ_AXES))
    elif action == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif action == "extend":
        blob += bytes(data.draw(st.integers(1, 8)))
    elif action == "value":
        at = head + 4 * data.draw(st.integers(0, (len(blob) - head) // 4 - 1))
        blob[at:at + 4] = struct.pack("<f", data.draw(FUZZ_PIXELS))
    else:  # a well-formed file of another shape
        shape = [data.draw(st.integers(0, 4)) for _ in range((head - 4) // 4)]
        values = np.ones(shape, dtype="<f4").tobytes()
        blob = blob[:4] + struct.pack(f"<{len(shape)}I", *shape) + values
    path.write_bytes(bytes(blob))


def _exit_code(argv):
    """Exit code of one CLI call, checked to be quiet on success and traceback-free."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(*argv)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    return code


@settings(max_examples=50, derandomize=True, database=None)
@given(data=st.data(), target=st.sampled_from(["config", "files_config", "manifest", "csv"]))
def test_mutated_inputs_end_in_documented_exit_codes(data, target):
    """Malformed configs, manifests and CSVs end in exit 2, 3 or 4, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec = SyntheticStreamSpec(classes=4, tasks=2, class_size=10, dims=3)
        manifest = write_stream(tmp / "data", generate_synthetic_stream(spec, 5))
        config = FUZZ_CONFIG if target == "config" else FUZZ_FILES_CONFIG
        if target in ("config", "files_config"):
            config = _mutate_json(data, config)
        elif target == "manifest":
            doc = _mutate_json(data, json.loads(manifest.read_text()))
            manifest.write_text(json.dumps(doc))
        else:
            names = sorted(p.name for p in manifest.parent.glob("*.csv"))
            _mutate_csv(data, manifest.parent / data.draw(st.sampled_from(names)))
        (tmp / "config.json").write_text(json.dumps(config))
        code = _exit_code(["run", "--config", tmp / "config.json", "--out", tmp / "m.csv"])
    assert code in (0, 2, 3, 4)


@settings(max_examples=50, derandomize=True, database=None)
@given(data=st.data(), suffix=st.sampled_from(["pbim", "pbsm"]),
       command=st.sampled_from(["stats", "augment", "sample"]))
def test_mutated_image_files_end_in_documented_exit_codes(data, suffix, command):
    """A malformed PBIM or PBSM file ends in exit 2 or 3, never a traceback."""
    gen = np.random.default_rng(4)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "imgs"
        make_class_dir(root, 0, [gen.random((2, 3, 3)) for _ in range(4)])
        class_dir = make_class_dir(root, 1, [gen.random((2, 3, 3)) for _ in range(2)])
        for path in class_dir.glob("*.pbim"):
            write_pbsm(path.with_suffix(".pbsm"), gen.random((3, 3)))
        names = sorted(str(p) for p in root.rglob(f"*.{suffix}"))
        _mutate_image_file(data, Path(data.draw(st.sampled_from(names))))
        out = Path(tmp) / "out"
        if command == "sample":
            argv = ["sample", "--input", class_dir, "--method", "pbes", "--m", 1]
        else:
            argv = [command, "--input", root] + (["--seed", 3] if command == "augment" else [])
        code = _exit_code(argv + ["--out", out])
    assert code in (0, 2, 3)


def test_checks_hold_under_optimize_flag(tmp_path):
    """Validation does not rest on assert: the exit codes hold under python -O."""
    env = {**os.environ, "PYTHONPATH": str(Path(pbes.__file__).parents[1])}

    def run_optimized(config):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pbes.cli", "run", "--config", str(config),
             "--out", str(tmp_path / "m.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert "Traceback" not in proc.stderr
        return proc.returncode

    config, manifest = file_stream_config(tmp_path)
    assert run_optimized(config) == 0
    doc = json.loads(manifest.read_text())
    doc["tasks"][0].pop("train")
    manifest.write_text(json.dumps(doc))
    assert run_optimized(config) == 3
    assert run_optimized(minimal_config(tmp_path, seed=1.9)) == 2


def make_class_dir(root, cid, images):
    class_dir = root / str(cid)
    class_dir.mkdir(parents=True)
    for i, img in enumerate(images):
        write_pbim(class_dir / f"img_{i:03d}.pbim", img)
    return class_dir


@pytest.mark.parametrize("name", ["01", "+1", "1_0", "-0"])
def test_non_canonical_class_dir_is_validation_error(tmp_path, capsys, name):
    # int() reads each name, but only the decimal form of an id names a class.
    root = tmp_path / "imgs"
    make_class_dir(root, 0, [np.ones((1, 2, 2)) for _ in range(2)])
    make_class_dir(root, 1, [np.ones((1, 2, 2))])
    bad_dir = make_class_dir(root, name, [np.zeros((1, 2, 2))])
    for command, extra in (("stats", []), ("augment", ["--seed", 3])):
        out = tmp_path / command
        assert run_cli(command, "--input", root, "--out", out, *extra) == 2
        assert f"{bad_dir}: " in capsys.readouterr().err
        assert not out.exists()


class TestStats:
    def test_variance_and_histogram(self, tmp_path):
        gen = np.random.default_rng(0)
        root = tmp_path / "imgs"
        make_class_dir(root, 0, [np.zeros((1, 1, 1)), np.ones((1, 1, 1))])
        make_class_dir(root, 1, [gen.random((1, 2, 2)).astype(np.float32)])
        out = tmp_path / "stats"
        assert run_cli("stats", "--input", root, "--out", out) == 0
        variance = (out / "variance.csv").read_text().splitlines()
        assert variance[0] == "class,channel,variance"
        assert variance[1] == "0,0,0.250000"
        counts = (out / "counts.csv").read_text()
        assert counts == "class,count\n0,2\n1,1\n"

    def test_missing_dir_is_io_error(self, tmp_path):
        assert run_cli("stats", "--input", tmp_path / "nope", "--out", tmp_path / "s") == 3

    @pytest.mark.parametrize("bad", sorted(BAD_PBIM))
    def test_invalid_image_is_format_error(self, tmp_path, capsys, bad):
        root = tmp_path / "imgs"
        class_dir = make_class_dir(root, 0, [np.ones((1, 2, 2))])
        write_raw(class_dir / "bad.pbim", b"PBIM", *BAD_PBIM[bad])
        assert run_cli("stats", "--input", root, "--out", tmp_path / "s") == 3
        assert f"{class_dir / 'bad.pbim'}: " in capsys.readouterr().err


    def test_empty_class_dir_is_io_error(self, tmp_path, capsys):
        root = tmp_path / "imgs"
        make_class_dir(root, 0, [np.ones((1, 2, 2))])
        empty = make_class_dir(root, 1, [])
        out = tmp_path / "s"
        assert run_cli("stats", "--input", root, "--out", out) == 3
        assert f"{empty}: no .pbim files found" in capsys.readouterr().err
        assert not out.exists()


class TestAugment:
    def test_balances_class_counts(self, tmp_path):
        gen = np.random.default_rng(1)
        root = tmp_path / "imgs"
        make_class_dir(root, 0, [gen.random((1, 4, 4)).astype(np.float32) for _ in range(5)])
        make_class_dir(root, 1, [gen.random((1, 4, 4)).astype(np.float32) for _ in range(2)])
        out = tmp_path / "balanced"
        assert run_cli("augment", "--input", root, "--out", out, "--seed", 3) == 0
        assert len(list((out / "0").glob("*.pbim"))) == 5
        assert len(list((out / "1").glob("*.pbim"))) == 5
        # originals preserved byte-exactly
        for path in (root / "0").glob("*.pbim"):
            assert (out / "0" / path.name).read_bytes() == path.read_bytes()
        # generated images are cut copies of originals
        sources = [read_pbim(p) for p in sorted((root / "1").glob("*.pbim"))]
        for path in sorted((out / "1").glob("aug_*.pbim")):
            img = read_pbim(path)
            assert any(
                np.array_equal(img[img != 0], src[img != 0]) for src in sources
            )

    def test_uses_sidecar_saliency_maps(self, tmp_path):
        root = tmp_path / "imgs"
        imgs = [np.ones((1, 4, 4), dtype=np.float32) for _ in range(2)]
        make_class_dir(root, 0, imgs * 2)  # four images
        class_dir = make_class_dir(root, 1, imgs[:1])
        sal = np.ones((4, 4), dtype=np.float32)
        sal[0, 0] = 0.0
        write_pbsm(class_dir / "img_000.pbsm", sal)
        out = tmp_path / "balanced"
        assert run_cli("augment", "--input", root, "--out", out, "--seed", 3,
                       "--region-height", 1, "--region-width", 1) == 0
        for path in (out / "1").glob("aug_*.pbim"):
            img = read_pbim(path)
            assert img[0, 0, 0] == 0.0  # cut at the low-saliency pixel

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--tau", 7], id="tau"),
            pytest.param(["--region-height", 0], id="region_height"),
        ],
    )
    def test_bad_settings_rejected_before_writing(self, tmp_path, flags):
        gen = np.random.default_rng(1)
        root = tmp_path / "imgs"
        make_class_dir(root, 0, [gen.random((1, 4, 4)).astype(np.float32) for _ in range(3)])
        make_class_dir(root, 1, [gen.random((1, 4, 4)).astype(np.float32)])
        out = tmp_path / "balanced"
        assert run_cli("augment", "--input", root, "--out", out, "--seed", 3, *flags) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "suffix,bad,cid",
        [pytest.param(".pbim", bad, 1, id=f".pbim-{bad}") for bad in sorted(BAD_PBIM)]
        + [pytest.param(".pbsm", bad, 1, id=f".pbsm-{bad}") for bad in sorted(BAD_PBSM)]
        + [
            pytest.param(".pbim", bad, 0, id=f".pbim-{bad}-largest_class")
            for bad in sorted(BAD_PBIM)
        ],
    )
    def test_invalid_image_or_saliency_is_format_error(
        self, tmp_path, capsys, suffix, bad, cid
    ):
        # Class 1 needs new images and class 0, the largest, is only copied;
        # either way nothing is written.
        root = tmp_path / "imgs"
        make_class_dir(root, 0, [np.ones((1, 2, 2)) for _ in range(3)])
        class_dir = make_class_dir(root, 1, [np.ones((1, 2, 2))])
        write_pbsm(class_dir / "img_000.pbsm", np.ones((2, 2)))
        bad_path = root / str(cid) / f"img_000{suffix}"
        table = BAD_PBIM if suffix == ".pbim" else BAD_PBSM
        write_raw(bad_path, suffix[1:].upper().encode(), *table[bad])
        out = tmp_path / "out"
        assert run_cli("augment", "--input", root, "--out", out, "--seed", 3) == 3
        assert f"{bad_path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_failed_cut_leaves_no_partial_tree(self, tmp_path, capsys):
        # Class 1's 2x2 images cannot take a 3-row region; class 0 sorts first.
        root = tmp_path / "imgs"
        make_class_dir(root, 0, [np.ones((1, 4, 4)) for _ in range(3)])
        make_class_dir(root, 1, [np.ones((1, 2, 2))])
        out = tmp_path / "out"
        assert run_cli("augment", "--input", root, "--out", out, "--seed", 3,
                       "--region-height", 3) == 2
        assert "larger than map" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_given_seed(self, tmp_path):
        gen = np.random.default_rng(2)
        root = tmp_path / "imgs"
        make_class_dir(root, 0, [gen.random((1, 3, 3)).astype(np.float32) for _ in range(3)])
        make_class_dir(root, 1, [gen.random((1, 3, 3)).astype(np.float32)])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("augment", "--input", root, "--out", out_a, "--seed", 9) == 0
        assert run_cli("augment", "--input", root, "--out", out_b, "--seed", 9) == 0
        for path in sorted(out_a.rglob("*.pbim")):
            twin = out_b / path.relative_to(out_a)
            assert twin.read_bytes() == path.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


def test_image_commands_go_through_module_file_functions(tmp_path, monkeypatch):
    # Benchmarks trace pbes.cli.read_pbim, read_pbsm and write_pbim, so every
    # file a command reads or generates must pass through those attributes once.
    calls = {}
    for name in ("read_pbim", "read_pbsm", "write_pbim"):
        def counted(path, *rest, _name=name, _real=getattr(pbes.cli, name)):
            calls.setdefault(_name, []).append(Path(path).relative_to(tmp_path).as_posix())
            return _real(path, *rest)

        monkeypatch.setattr(pbes.cli, name, counted)

    def files(pattern):
        return sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.glob(pattern))

    root = tmp_path / "imgs"
    make_class_dir(root, 0, [np.full((1, 3, 3), float(i)) for i in range(4)])
    class_dir = make_class_dir(root, 1, [np.full((1, 3, 3), 5.0)])
    make_class_dir(root, 2, [np.full((1, 3, 3), 6.0), np.full((1, 3, 3), 7.0)])
    write_pbsm(class_dir / "img_000.pbsm", np.ones((3, 3)))

    assert run_cli("augment", "--input", root, "--out", tmp_path / "aug", "--seed", 1) == 0
    assert sorted(calls.pop("read_pbim")) == files("imgs/*/*.pbim")
    assert calls.pop("read_pbsm") == ["imgs/1/img_000.pbsm"]
    assert sorted(calls.pop("write_pbim")) == files("aug/*/aug_*.pbim")
    assert len(files("aug/*/aug_*.pbim")) == 5
    assert calls == {}

    assert run_cli("stats", "--input", root, "--out", tmp_path / "stats") == 0
    assert sorted(calls.pop("read_pbim")) == files("imgs/*/*.pbim")
    assert calls == {}

    assert run_cli("sample", "--input", root / "0", "--method", "pbes", "--m", 2,
                   "--out", tmp_path / "sel") == 0
    assert calls.pop("read_pbim") == files("imgs/0/*.pbim")
    assert calls == {}
