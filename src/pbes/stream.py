"""Task streams: disjoint-class tasks with train/test splits.

Synthetic streams place class means on a circle inside a random 2-plane of
R^d and draw Gaussian blobs around them, optionally displacing a fraction of
each class far away along random directions to act as outliers. Streams can
also be persisted to and loaded from a directory of CSV files plus a JSON
manifest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ValidationError
from .numerics import RngState

# Largest synthetic stream, in generated values (total rows x dims): 10^8
# float64 values are 800 MB, beyond a desk-scale run.
MAX_SYNTHETIC_VALUES = 10**8


@dataclass
class LabeledDataset:
    """Feature rows with integer class labels and a split tag."""

    points: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) int64
    split: str = "train"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.points.ndim != 2 or self.labels.ndim != 1:
            raise ValidationError("dataset needs 2-D points and 1-D labels")
        if self.points.shape[0] != self.labels.shape[0]:
            raise ValidationError(
                f"{self.points.shape[0]} points but {self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return self.points.shape[0]

    def rows_for(self, class_id: int) -> np.ndarray:
        return self.points[self.labels == class_id]


@dataclass
class Task:
    class_ids: tuple[int, ...]
    train: LabeledDataset
    test: LabeledDataset


@dataclass
class TaskStream:
    """Ordered tasks over pairwise-disjoint class sets of constant size."""

    tasks: list[Task] = field(default_factory=list)

    def __post_init__(self):
        seen: set[int] = set()
        sizes = {len(t.class_ids) for t in self.tasks}
        if len(sizes) > 1:
            raise ValidationError(f"per-task class counts differ: {sorted(sizes)}")
        for i, task in enumerate(self.tasks):
            ids = set(task.class_ids)
            if ids & seen:
                raise ValidationError(
                    f"task {i + 1} reuses classes {sorted(ids & seen)}"
                )
            seen |= ids
            for split in (task.train, task.test):
                if split.points.shape[1] != self.dims:
                    raise ValidationError(
                        f"task {i + 1} {split.split} split has {split.points.shape[1]} "
                        f"features, task 1 has {self.dims}"
                    )
                stray = set(np.unique(split.labels)) - ids
                if stray:
                    raise ValidationError(
                        f"task {i + 1} {split.split} split has labels {sorted(stray)} "
                        f"outside its classes"
                    )

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def dims(self) -> int:
        return self.tasks[0].train.points.shape[1]


@dataclass(frozen=True)
class SyntheticStreamSpec:
    """Parameters of the synthetic blob stream.

    Class c has size round(class_size * (1 + (1/imbalance_ratio - 1) * c/(C-1)))
    so the largest class has ``class_size`` points and the smallest about
    ``class_size / imbalance_ratio``. ``outlier_fraction`` of each class is
    displaced by ``outlier_distance * blob_std`` along random unit directions.
    """

    classes: int
    tasks: int
    class_size: int = 24
    imbalance_ratio: float = 1.0
    blob_std: float = 1.0
    layout_radius: float = 6.0
    outlier_fraction: float = 0.0
    outlier_distance: float = 20.0
    dims: int = 8
    test_fraction: float = 0.2
    per_class_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.classes < 1 or self.tasks < 1 or self.dims < 1:
            raise ValidationError("need at least one class, one task and one dimension")
        if self.classes % self.tasks != 0:
            raise ValidationError(
                f"{self.classes} classes do not divide into {self.tasks} equal tasks"
            )
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValidationError("outlier fraction must be in [0, 1)")
        if self.imbalance_ratio < 1.0:
            raise ValidationError("imbalance ratio must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValidationError("test fraction must be in (0, 1)")
        if self.per_class_sizes is not None and len(self.per_class_sizes) != self.classes:
            raise ValidationError("per_class_sizes must list one size per class")
        if self.per_class_sizes is not None:
            rows, source = sum(self.per_class_sizes), "per_class_sizes"
        else:
            rows, source = self.classes * self.class_size, "classes x class_size"
        if rows * self.dims > MAX_SYNTHETIC_VALUES:
            raise ValidationError(
                f"synthetic stream too large: {source} gives {rows} rows, times "
                f"dims {self.dims} exceeds {MAX_SYNTHETIC_VALUES} values"
            )

    def class_sizes(self) -> list[int]:
        if self.per_class_sizes is not None:
            sizes = [int(s) for s in self.per_class_sizes]
        elif self.classes == 1:
            sizes = [self.class_size]
        else:
            low = 1.0 / self.imbalance_ratio
            sizes = [
                int(round(self.class_size * (1.0 + (low - 1.0) * c / (self.classes - 1))))
                for c in range(self.classes)
            ]
        for c, s in enumerate(sizes):
            if s < 2:
                raise ValidationError(
                    f"class {c} has size {s}; need >= 2 for a train/test split"
                )
        return sizes


def _plane_basis(dims: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal pair spanning a random 2-plane (first axis for dims == 1)."""
    if dims == 1:
        return np.ones(1), np.zeros(1)
    while True:
        u = gen.standard_normal(dims)
        nu = np.linalg.norm(u)
        if nu < 1e-12:
            continue
        u = u / nu
        v = gen.standard_normal(dims)
        v = v - (v @ u) * u
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            continue
        return u, v / nv


def generate_synthetic_stream(spec: SyntheticStreamSpec, seed: int) -> TaskStream:
    """Build a deterministic blob stream from the spec and a master seed."""
    sizes = spec.class_sizes()
    root = RngState(seed).derive("stream")
    u, v = _plane_basis(spec.dims, root.derive("plane").generator())

    per_task = spec.classes // spec.tasks
    tasks: list[Task] = []
    for t in range(spec.tasks):
        class_ids = tuple(range(t * per_task, (t + 1) * per_task))
        train_pts, train_labs, test_pts, test_labs = [], [], [], []
        for cid in class_ids:
            n_c = sizes[cid]
            angle = 2.0 * math.pi * cid / spec.classes
            mean = spec.layout_radius * (math.cos(angle) * u + math.sin(angle) * v)
            gen = root.derive("class", cid).generator()
            pts = mean + spec.blob_std * gen.standard_normal((n_c, spec.dims))
            n_out = int(spec.outlier_fraction * n_c)
            for row in range(n_out):
                direction = gen.standard_normal(spec.dims)
                norm = np.linalg.norm(direction)
                if norm < 1e-12:
                    direction = np.zeros(spec.dims)
                    direction[0] = 1.0
                    norm = 1.0
                pts[row] = pts[row] + spec.outlier_distance * spec.blob_std * (
                    direction / norm
                )
            order = gen.permutation(n_c)
            n_test = max(1, int(round(spec.test_fraction * n_c)))
            test_rows = order[:n_test]
            train_rows = order[n_test:]
            train_pts.append(pts[train_rows])
            train_labs.append(np.full(len(train_rows), cid, dtype=np.int64))
            test_pts.append(pts[test_rows])
            test_labs.append(np.full(len(test_rows), cid, dtype=np.int64))
        tasks.append(
            Task(
                class_ids=class_ids,
                train=LabeledDataset(
                    np.vstack(train_pts), np.concatenate(train_labs), "train"
                ),
                test=LabeledDataset(
                    np.vstack(test_pts), np.concatenate(test_labs), "test"
                ),
            )
        )
    return TaskStream(tasks)


def write_dataset_csv(path, dataset: LabeledDataset) -> None:
    """Write `label,f0,...`: one row per point, LF endings, round-trip floats."""
    d = dataset.points.shape[1]
    header = "label," + ",".join(f"f{j}" for j in range(d))
    lines = [header]
    for row, lab in zip(dataset.points, dataset.labels):
        lines.append(str(int(lab)) + "," + ",".join(repr(float(x)) for x in row))
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_dataset_csv(path, split: str = "train") -> LabeledDataset:
    """Read a `label,f0,...` CSV back into a dataset; every value must be finite."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except ValueError as exc:  # not UTF-8, or a NUL in the path
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise FileFormatError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2 or any(
        col != f"f{j}" for j, col in enumerate(header[1:])
    ):
        raise FileFormatError(f"{path}: bad dataset header {lines[0]!r}")
    d = len(header) - 1
    points, labels = [], []
    for ln_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != d + 1:
            raise FileFormatError(f"{path}:{ln_no}: expected {d + 1} columns")
        try:
            label = int(cells[0])
            row = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise FileFormatError(f"{path}:{ln_no}: {exc}") from exc
        if not -(2**63) <= label < 2**63:
            raise FileFormatError(f"{path}:{ln_no}: label {label} out of range")
        if not all(math.isfinite(x) for x in row):
            raise FileFormatError(f"{path}:{ln_no}: non-finite value")
        labels.append(label)
        points.append(row)
    if not points:
        raise FileFormatError(f"{path}: dataset has no rows")
    return LabeledDataset(np.array(points), np.array(labels), split)


def write_stream(directory, stream: TaskStream) -> Path:
    """Persist a stream as per-task CSVs plus a stream.json manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"tasks": []}
    for i, task in enumerate(stream.tasks, start=1):
        train_name = f"task_{i:03d}_train.csv"
        test_name = f"task_{i:03d}_test.csv"
        write_dataset_csv(directory / train_name, task.train)
        write_dataset_csv(directory / test_name, task.test)
        manifest["tasks"].append(
            {
                "classes": [int(c) for c in task.class_ids],
                "train": train_name,
                "test": test_name,
            }
        )
    manifest_path = directory / "stream.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest_path


def read_stream(manifest_path) -> TaskStream:
    """Load a stream written by :func:`write_stream`.

    The manifest needs a non-empty ``tasks`` list whose entries each give an
    int list ``classes`` and string ``train``/``test`` paths.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or UTF-8, or a NUL in the path
        raise FileFormatError(f"{manifest_path}: cannot read manifest: {exc}") from exc
    entries = manifest.get("tasks") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise FileFormatError(f"{manifest_path}: manifest needs a non-empty 'tasks' list")
    base = manifest_path.parent
    tasks = []
    for i, entry in enumerate(entries, start=1):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("classes"), list)
            and all(type(c) is int for c in entry["classes"])
            and isinstance(entry.get("train"), str)
            and isinstance(entry.get("test"), str)
        ):
            raise FileFormatError(
                f"{manifest_path}: task {i} needs an int list 'classes' and "
                f"string 'train' and 'test' file names"
            )
        tasks.append(
            Task(
                class_ids=tuple(entry["classes"]),
                train=read_dataset_csv(base / entry["train"], "train"),
                test=read_dataset_csv(base / entry["test"], "test"),
            )
        )
    return TaskStream(tasks)
