"""The benchmark's four workloads: input generators, operations and output checks.

A workload turns a seed into inputs (``__init__`` generates them in memory,
``prepare`` writes whatever files the program reads, through ``pbes`` calls),
then runs a fixed cycle of ``len(workload)`` operations. ``run(k)`` is the
timed call into ``pbes``; ``check(k, output)`` returns a list of problems, empty
when the output is correct. At ``DEFAULT_SEED`` every output is compared with
the digests in ``reference.json``; at any seed the output is checked
structurally and a repeated operation must reproduce its first output exactly.

Every call into ``pbes`` goes through a module attribute looked up at call
time (``harness.run_experiment``, ``cli.main``, ...), so the traced run sees
the patched functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import struct
from pathlib import Path

import numpy as np

from pbes import augmentation, benchmark, cli, harness, metrics, sampling
from pbes.numerics import RngState

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    """Digests per workload recorded at ``DEFAULT_SEED``; {} when absent."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _generator(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def _in_unit_interval(cells: list[str]) -> bool:
    return all(0.0 <= float(c) <= 1.0 for c in cells)


class Workload:
    """Base: a cycle of operations over inputs generated from one seed."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.reference = load_reference().get(self.name) if seed == DEFAULT_SEED else None
        self._first_digest: dict[int, str] = {}

    def __len__(self) -> int:
        raise NotImplementedError

    def prepare(self) -> None:
        """Write the files the program reads; in-memory workloads write none."""

    def run(self, k: int):
        raise NotImplementedError

    def digest(self, k: int, output) -> str:
        raise NotImplementedError

    def structural_problems(self, k: int, output) -> list[str]:
        raise NotImplementedError

    def finish(self, k: int) -> None:
        """Remove what op k left on disk, after its output was checked."""

    def check(self, k: int, output) -> list[str]:
        problems = self.structural_problems(k, output)
        if problems:
            return problems
        digest = self.digest(k, output)
        first = self._first_digest.setdefault(k, digest)
        if digest != first:
            problems.append(f"op {k}: output differs from its first run")
        if self.seed == DEFAULT_SEED:
            if self.reference is None or k >= len(self.reference):
                problems.append(f"op {k}: no reference digest for the default seed")
            elif digest != self.reference[k]:
                problems.append(f"op {k}: output digest differs from the reference")
        return problems


def _metrics_csv_problems(text: str, header: str, keys: list[tuple]) -> list[str]:
    """Rows must follow ``keys`` in order, every metric in [0, 1], timing zeroed."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != header:
        return ["metrics CSV header or line ending is wrong"]
    rows = [line.split(",") for line in lines[1:-1]]
    width = len(header.split(","))
    if len(rows) != len(keys) or any(len(r) != width for r in rows):
        return [f"metrics CSV has {len(rows)} rows, expected {len(keys)}"]
    lead = len(keys[0])
    for row, key in zip(rows, keys):
        if tuple(int(c) for c in row[:lead]) != key:
            return [f"metrics CSV row {row[:lead]} out of order, expected {key}"]
        if not _in_unit_interval(row[lead:-1]) or row[-1] != "0.000000":
            return [f"metrics CSV row {key} has a value outside [0, 1]"]
    return []


class BlobSuite(Workload):
    """One ``run_experiment`` per op on the canonical blob configuration.

    The cycle is acceptance criterion 7's six approaches at the default
    budget, then method/pbes at criterion 8's other budgets.
    """

    name = "blob_suite"
    RUNS = (
        ("method", "pbes", benchmark.BLOB_BUDGET),
        ("method", "randp", benchmark.BLOB_BUDGET),
        ("method", "herding", benchmark.BLOB_BUDGET),
        ("method", "random", benchmark.BLOB_BUDGET),
        ("finetune", "pbes", benchmark.BLOB_BUDGET),
        ("upperbound", "pbes", benchmark.BLOB_BUDGET),
    ) + tuple(
        ("method", "pbes", b)
        for b in benchmark.BLOB_BUDGET_SWEEP
        if b != benchmark.BLOB_BUDGET
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        seeds = _generator(seed, 1).integers(0, 2**31, size=len(self.RUNS))
        self.configs = [
            benchmark.blob_config(mode, int(s), sampler=sampler, budget=budget)
            for (mode, sampler, budget), s in zip(self.RUNS, seeds)
        ]
        self.tasks = benchmark.blob_stream_spec().tasks

    def __len__(self) -> int:
        return len(self.configs)

    def run(self, k: int):
        return harness.run_experiment(self.configs[k])

    def csv_bytes(self, output) -> bytes:
        return metrics.format_metrics_rows(output).encode("utf-8")

    def digest(self, k: int, output) -> str:
        return sha256(self.csv_bytes(output))

    def structural_problems(self, k: int, output) -> list[str]:
        text = self.csv_bytes(output).decode("utf-8")
        keys = [(t,) for t in range(1, self.tasks + 1)]
        return _metrics_csv_problems(text, metrics.METRICS_HEADER, keys)


def embedding_class(gen: np.random.Generator, n: int, d: int, kind: str) -> np.ndarray:
    """An n x d class of CNN-feature-like rows.

    Rows have a decaying spectrum in a random rotation, and a tenth of them
    are outliers twenty leading standard deviations out. ``low_rank`` zeroes
    the spectrum past LOW_RANK so the sampler needs more directions than the
    rank; ``duplicated`` copies a quarter of the rows over others;
    ``quantized`` rounds every entry to a coarse grid. The last two make
    exact ties in projections and distances.
    """
    spectrum = (1.0 + np.arange(d)) ** -0.8
    if kind == "low_rank":
        spectrum[EmbedSelect.LOW_RANK :] = 0.0
    Y = gen.standard_normal((n, d)) * spectrum
    n_out = n // 10
    directions = gen.standard_normal((n_out, d)) * (spectrum > 0)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    Y[:n_out] += 20.0 * directions
    q, _ = np.linalg.qr(gen.standard_normal((d, d)))
    X = Y @ q.T + gen.standard_normal(d)
    if kind == "duplicated":
        dup = n // 4
        X[gen.choice(n, dup, replace=False)] = X[gen.choice(n, dup, replace=False)]
    elif kind == "quantized":
        X = np.round(X * 4.0) / 4.0
    return X[gen.permutation(n)]


class EmbedSelect(Workload):
    """One class matrix per op, passed to every sampler through ``sample``."""

    name = "embed_select"
    LOW_RANK = 12
    # (n, d, m, kind). Shapes are fixed and only values follow the seed. Most
    # ops cost about the same, so the median and the tail stay within one
    # group of ops whether a run completes three, four or five cycles.
    SHAPES = (
        (300, 64, 20, "plain"),
        (700, 64, 50, "plain"),
        (700, 64, 50, "duplicated"),
        (700, 64, 50, "quantized"),
        (600, 64, 80, "duplicated"),
        (800, 64, 40, "quantized"),
        (700, 64, 60, "low_rank"),
        (250, 64, 100, "duplicated"),
        (2000, 64, 20, "plain"),
        (250, 128, 24, "plain"),
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.classes = []
        for k, (n, d, m, kind) in enumerate(self.SHAPES):
            gen = _generator(seed, 2, k)
            X = embedding_class(gen, n, d, kind)
            rng_seed = int(gen.integers(0, 2**63))
            self.classes.append((X, m, rng_seed))

    def __len__(self) -> int:
        return len(self.classes)

    def run(self, k: int):
        X, m, rng_seed = self.classes[k]
        rng = RngState(rng_seed)
        return [
            sampling.sample(method, X, m, rng=rng.derive(method))
            for method in sampling.SAMPLER_NAMES
        ]

    def digest(self, k: int, output) -> str:
        text = ";".join(
            f"{sel.method}:{sel.appended_count}:"
            + ",".join(str(i) for i in sel.ordered_indices)
            for sel in output
        )
        return sha256(text.encode("utf-8"))

    def structural_problems(self, k: int, output) -> list[str]:
        X, m, _ = self.classes[k]
        n = X.shape[0]
        problems = []
        if [sel.method for sel in output] != list(sampling.SAMPLER_NAMES):
            return [f"op {k}: samplers returned {[s.method for s in output]}"]
        for sel in output:
            idx = sel.ordered_indices
            if len(idx) != m or len(set(idx)) != m:
                problems.append(f"op {k}: {sel.method} returned {len(idx)} indices, not {m} distinct")
            elif not all(0 <= int(i) < n for i in idx):
                problems.append(f"op {k}: {sel.method} returned an index outside [0, {n})")
            median_loop = sel.method in ("pbes", "randp")
            if median_loop != (sel.appended_count in (m, m + 1)):
                problems.append(f"op {k}: {sel.method} appended_count {sel.appended_count}")
        return problems


def _call_cli(argv: list[str]) -> int:
    """``pbes.cli.main`` with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            return exc.code


class CliSweep(Workload):
    """One in-process ``pbes sweep`` per op over a file-backed stream.

    The stream is written once by ``pbes gen`` in ``prepare``; the ops cycle
    through one config per sampler, with augmentation on, the ncm classifier
    and mini-batches of 16.
    """

    name = "cli_sweep"
    BUDGETS = (8, 16, 32, 64)
    STREAM = {
        "classes": 10,
        "tasks": 5,
        "class_size": 40,
        "imbalance_ratio": 2.0,
        "outlier_fraction": 0.1,
        "dims": 8,
    }

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        gen = _generator(seed, 3)
        self.stream_seed = int(gen.integers(0, 2**31))
        self.configs = [
            {
                "seed": int(gen.integers(0, 2**31)),
                "sampler": sampler,
                "memory_budget": self.BUDGETS[0],
                "classifier": "ncm",
                "loss": {"learning_rate": 0.002, "epochs": 12, "batch_size": 16},
                "augmentation": {"enabled": True},
                "stream": {"files": {"manifest": "stream/stream.json"}},
            }
            for sampler in sampling.SAMPLER_NAMES
        ]
        self.tasks = self.STREAM["tasks"]

    def __len__(self) -> int:
        return len(self.configs)

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        spec = self.workdir / "stream_spec.json"
        spec.write_text(json.dumps(self.STREAM), encoding="utf-8")
        stream_dir = self.workdir / "stream"
        code = _call_cli(
            ["gen", "--config", str(spec), "--seed", str(self.stream_seed), "--out", str(stream_dir)]
        )
        if code != 0:
            raise RuntimeError(f"pbes gen exited with {code}")
        for k, doc in enumerate(self.configs):
            (self.workdir / f"config_{k}.json").write_text(json.dumps(doc), encoding="utf-8")

    def out_path(self, k: int) -> Path:
        return self.workdir / f"sweep_{k}.csv"

    def run(self, k: int):
        budgets = ",".join(str(b) for b in self.BUDGETS)
        return _call_cli(
            [
                "sweep",
                "--config", str(self.workdir / f"config_{k}.json"),
                "--budgets", budgets,
                "--out", str(self.out_path(k)),
            ]
        )

    def digest(self, k: int, output) -> str:
        return sha256(self.out_path(k).read_bytes())

    def structural_problems(self, k: int, output) -> list[str]:
        if output != 0:
            return [f"op {k}: pbes sweep exited with {output}"]
        text = self.out_path(k).read_text(encoding="utf-8")
        keys = [(b, t) for b in self.BUDGETS for t in range(1, self.tasks + 1)]
        problems = _metrics_csv_problems(text, harness.SWEEP_HEADER, keys)
        sidecar = Path(str(self.out_path(k)) + ".provenance.json")
        if json.loads(sidecar.read_text(encoding="utf-8")).get("seed") != self.configs[k]["seed"]:
            problems.append(f"op {k}: provenance sidecar does not record the seed")
        return problems


PBIM_HEADER = struct.Struct("<4sIII")


def _read_pbim_bytes(blob: bytes) -> np.ndarray:
    """Decode PBIM independently of ``pbes``, for checking its output."""
    magic, c, h, w = PBIM_HEADER.unpack_from(blob)
    if magic != b"PBIM" or len(blob) != PBIM_HEADER.size + 4 * c * h * w:
        raise ValueError("not a well-formed PBIM file")
    return np.frombuffer(blob, dtype="<f4", offset=PBIM_HEADER.size).reshape(c, h, w)


class ImageAugment(Workload):
    """One in-process ``pbes augment`` per op on an imbalanced PBIM tree.

    Even class ids carry ``.pbsm`` saliency sidecars, odd ones fall back to
    the computed saliency; ops alternate deterministic and randomized search.
    Images are Tiny-ImageNet sized and one head class dwarfs five tail
    classes, so most output files are generated images and the region
    search, not file creation, sets an op's time.
    """

    name = "image_augment"
    SHAPE = (3, 64, 64)
    CLASS_SIZES = (12, 2, 2, 2, 2, 2)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        gen = _generator(seed, 4)
        c, h, w = self.SHAPE
        self.images = {}
        self.saliencies = {}
        for cid, size in enumerate(self.CLASS_SIZES):
            # Pixels stay in [0.1, 1) so a cut region is the only zeros.
            self.images[cid] = 0.1 + 0.9 * gen.random((size, c, h, w), dtype=np.float32)
            if cid % 2 == 0:
                self.saliencies[cid] = gen.random((size, h, w), dtype=np.float32)
        self.ops = [
            (int(gen.integers(0, 2**31)), "deterministic" if k % 2 == 0 else "randomized")
            for k in range(4)
        ]
        self.tree = self.workdir / "images"

    def __len__(self) -> int:
        return len(self.ops)

    def prepare(self) -> None:
        for cid, stack in self.images.items():
            class_dir = self.tree / str(cid)
            class_dir.mkdir(parents=True, exist_ok=True)
            for i, image in enumerate(stack):
                augmentation.write_pbim(class_dir / f"img_{i:03d}.pbim", image)
                if cid in self.saliencies:
                    augmentation.write_pbsm(class_dir / f"img_{i:03d}.pbsm", self.saliencies[cid][i])

    def out_dir(self, k: int) -> Path:
        return self.workdir / f"balanced_{k}"

    def finish(self, k: int) -> None:
        shutil.rmtree(self.out_dir(k), ignore_errors=True)

    def run(self, k: int):
        seed, mode = self.ops[k]
        return _call_cli(
            [
                "augment",
                "--input", str(self.tree),
                "--out", str(self.out_dir(k)),
                "--seed", str(seed),
                "--search-mode", mode,
            ]
        )

    def _files(self, k: int) -> list[tuple[str, bytes]]:
        root = self.out_dir(k)
        return [
            (p.relative_to(root).as_posix(), p.read_bytes())
            for p in sorted(root.rglob("*"))
            if p.is_file()
        ]

    def digest(self, k: int, output) -> str:
        h = hashlib.sha256()
        for rel, blob in self._files(k):
            h.update(rel.encode("utf-8") + b"\0" + sha256(blob).encode("ascii"))
        return h.hexdigest()

    def structural_problems(self, k: int, output) -> list[str]:
        if output != 0:
            return [f"op {k}: pbes augment exited with {output}"]
        target = max(self.CLASS_SIZES)
        _, h, w = self.SHAPE
        rh, rw = max(1, h // 4), max(1, w // 4)
        by_class: dict[str, list[tuple[str, bytes]]] = {}
        for rel, blob in self._files(k):
            cid, fname = rel.split("/")
            by_class.setdefault(cid, []).append((fname, blob))
        if sorted(by_class, key=int) != [str(c) for c in self.images]:
            return [f"op {k}: output classes {sorted(by_class)} differ from the input"]
        problems = []
        for cid, files in by_class.items():
            sources = self.images[int(cid)]
            if len(files) != target:
                problems.append(f"op {k}: class {cid} has {len(files)} images, not {target}")
                continue
            for fname, blob in files:
                try:
                    image = _read_pbim_bytes(blob)
                except (ValueError, struct.error):
                    problems.append(f"op {k}: {cid}/{fname} is not a valid PBIM file")
                    continue
                if fname.startswith("aug_"):
                    problem = self._cut_problem(image, sources, rh, rw)
                else:
                    i = int(fname[4:7])
                    problem = None if np.array_equal(image, sources[i]) else "copy differs"
                if problem:
                    problems.append(f"op {k}: {cid}/{fname}: {problem}")
        return problems

    @staticmethod
    def _cut_problem(image, sources, rh: int, rw: int) -> str | None:
        """None when image is a source with exactly one rh x rw window zeroed."""
        if image.shape != sources.shape[1:]:
            return f"shape {image.shape}"
        zero = (image == 0).all(axis=0)
        rows, cols = np.flatnonzero(zero.any(axis=1)), np.flatnonzero(zero.any(axis=0))
        if len(rows) != rh or len(cols) != rw or zero.sum() != rh * rw:
            return "cut is not one region of the expected size"
        if rows[-1] - rows[0] != rh - 1 or cols[-1] - cols[0] != rw - 1:
            return "cut region is not contiguous"
        keep = ~zero
        if not (sources[:, :, keep] == image[:, keep]).all(axis=(1, 2)).any():
            return "uncut pixels match no source image"
        return None


WORKLOADS = {w.name: w for w in (BlobSuite, EmbedSelect, CliSweep, ImageAugment)}
