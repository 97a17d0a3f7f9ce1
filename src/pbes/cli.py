"""Command-line front end.

Subcommands: ``sample`` (exemplar selection from a CSV or PBIM directory),
``run`` (one experiment from a JSON config), ``sweep`` (the same experiment
over several memory budgets), ``gen`` (synthetic stream to CSV files),
``stats`` (per-class image statistics), and ``augment`` (class balancing of
a PBIM directory tree).

Exit codes are a stable scripting contract: 0 success, 2 validation error,
3 I/O error, 4 numerical failure. Every command is deterministic given its
config and seed and never mutates its inputs. The JSON config is strictly
validated against the config dataclasses: unknown keys are rejected by name
and values are type-checked, never coerced.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import sys
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .augmentation import (
    SEARCH_MODES,
    AugmentParams,
    augment_class_records,
    balance_plan,
    read_pbim,
    read_pbsm,
    write_pbim,
)
from .errors import FileFormatError, NumericalError, ValidationError
from .harness import (
    EXPERIMENT_MODES,
    ExperimentConfig,
    StreamFiles,
    decision_flags,
    format_sweep_rows,
    run_experiment,
    sweep_budgets,
)
from .metrics import write_metrics_csv
from .numerics import RngState
from .sampling import SAMPLER_NAMES, sample
from .stats import dataset_stats, write_histogram_csv, write_variance_csv
from .stream import (
    LabeledDataset,
    SyntheticStreamSpec,
    generate_synthetic_stream,
    read_dataset_csv,
    write_dataset_csv,
    write_stream,
)


# JSON key of each config field whose key differs from the field name.
_JSON_KEYS = {"augment": "augmentation"}
# The stream section is a tagged union: exactly one of these keys.
_STREAM_KINDS = {"synthetic": SyntheticStreamSpec, "files": StreamFiles}
_TYPE_NAMES = {bool: "bool", int: "int", float: "a finite number", str: "str"}


def _reject_unknown(section, allowed, where: str) -> None:
    where = where or "config root"
    if not isinstance(section, dict):
        raise ValidationError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(k) for k in unknown)} in {where}"
        )


def _from_json(cls, section, where: str):
    """Build dataclass ``cls`` from a JSON object, checking every value's type.

    Unknown keys are rejected by name, fields without a default are required
    keys, and absent keys take the dataclass default. ``where`` is the key
    path of ``section`` ("" at the document root), used in error messages.
    """
    fields = {_JSON_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    _reject_unknown(section, fields, where)
    hints = typing.get_type_hints(cls)
    values = {}
    for key, f in fields.items():
        path = f"{where}.{key}" if where else key
        if key in section:
            values[f.name] = _check(hints[f.name], section[key], path)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"missing required key {path!r}")
    return cls(**values)


def _check(hint, value, where: str):
    """``value`` as type ``hint``; a JSON value of another type is an error.

    bool takes only true/false, int rejects floats and bools, float takes
    ints (but not NaN or infinities), ``X | None`` takes null, and
    ``tuple[X, ...]`` takes a list. Nothing is coerced.
    """
    if dataclasses.is_dataclass(hint):
        return _from_json(hint, value, where)
    if hint == SyntheticStreamSpec | StreamFiles:
        _reject_unknown(value, _STREAM_KINDS, where)
        if len(value) != 1:
            raise ValidationError(f"{where} needs exactly one of 'synthetic' or 'files'")
        ((kind, section),) = value.items()
        return _from_json(_STREAM_KINDS[kind], section, f"{where}.{kind}")
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _check(args[0], value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be a list, got {value!r}")
        return tuple(_check(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if hint is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
        value = float(value) if ok else value
    else:
        ok = type(value) is hint
    if not ok:
        raise ValidationError(f"{where} must be {_TYPE_NAMES[hint]}, got {value!r}")
    return value


def parse_experiment_config(doc: dict, base_dir: Path) -> ExperimentConfig:
    """Strictly validate a run config document; unknown keys are errors.

    A file-backed stream's manifest path resolves against ``base_dir``.
    """
    config = _from_json(ExperimentConfig, doc, "")
    if isinstance(config.stream, StreamFiles):
        manifest = str(base_dir / config.stream.manifest)
        config = replace(config, stream=StreamFiles(manifest=manifest))
    return config


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON or UTF-8
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc


def _config_digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_provenance(out_path: Path, doc: dict, config, wall_ms) -> None:
    sidecar = {
        "config_sha256": _config_digest(doc),
        "seed": config.seed,
        "package_version": __version__,
        "decisions": decision_flags(config),
        "wall_ms_per_task": wall_ms,
    }
    Path(str(out_path) + ".provenance.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _read_pbim_files(directory: Path) -> tuple[list[Path], list[np.ndarray]]:
    """The sorted ``*.pbim`` files of ``directory`` and their images."""
    paths = sorted(directory.glob("*.pbim"))
    if not paths:
        raise FileFormatError(f"{directory}: no .pbim files found")
    return paths, [read_pbim(p) for p in paths]


def _load_sample_rows(input_path: Path, label: int | None):
    """Rows to sample from: a dataset CSV (optionally one class) or a PBIM dir."""
    if input_path.is_dir():
        paths, images = _read_pbim_files(input_path)
        for image, path in zip(images, paths):
            if image.shape != images[0].shape:
                raise ValidationError(
                    f"{input_path}: {path.name} has shape {image.shape}, "
                    f"but {paths[0].name} has shape {images[0].shape}"
                )
        rows = np.vstack([img.reshape(-1).astype(np.float64) for img in images])
        labels = np.full(rows.shape[0], 0 if label is None else label, dtype=np.int64)
        return rows, labels, np.arange(rows.shape[0])
    dataset = read_dataset_csv(input_path)
    if label is None:
        return dataset.points, dataset.labels, np.arange(len(dataset))
    keep = dataset.labels == label
    if not keep.any():
        raise ValidationError(f"no rows with label {label} in {input_path}")
    return dataset.points[keep], dataset.labels[keep], np.flatnonzero(keep)


def cmd_sample(args) -> int:
    if args.method in ("randp", "random") and args.seed is None:
        raise ValidationError(f"--seed is required for method {args.method!r}")
    rows, labels, original_rows = _load_sample_rows(Path(args.input), args.label)
    if not 1 <= args.m <= rows.shape[0]:
        raise ValidationError(
            f"need 1 <= m <= {rows.shape[0]} available rows, got m={args.m}"
        )
    rng = None if args.seed is None else RngState(args.seed)
    selection = sample(args.method, rows, args.m, rng=rng, pool_size=args.randp_pool)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    chosen = [int(original_rows[i]) for i in selection.ordered_indices]
    (out_dir / "indices.txt").write_text(
        "".join(f"{i}\n" for i in chosen), encoding="utf-8"
    )
    picked = LabeledDataset(
        rows[list(selection.ordered_indices)],
        labels[list(selection.ordered_indices)],
        "train",
    )
    write_dataset_csv(out_dir / "exemplars.csv", picked)
    basis = ""
    if selection.source is not None:
        rank = "" if selection.rank is None else f", rank {selection.rank}"
        basis = f" (basis {selection.source}{rank})"
    print(f"selected {len(selection)} of {rows.shape[0]} rows with {args.method}{basis}")
    return 0


def _load_run_config(args):
    """Config document plus the parsed config, with flag overrides applied."""
    config_path = Path(args.config)
    doc = _load_json(config_path)
    if getattr(args, "mode", None) is not None:
        doc = {**doc, "mode": args.mode}
    if getattr(args, "seed", None) is not None:
        doc = {**doc, "seed": args.seed}
    return doc, parse_experiment_config(doc, config_path.parent)


def cmd_run(args) -> int:
    doc, config = _load_run_config(args)
    rows = run_experiment(config)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_path, rows)
    _write_provenance(out_path, doc, config, [row.wall_ms for row in rows])
    print(f"wrote {len(rows)} task rows to {out_path}")
    return 0


def cmd_sweep(args) -> int:
    doc, config = _load_run_config(args)
    try:
        budgets = [int(tok) for tok in args.budgets.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"--budgets must be comma-separated integers, got {args.budgets!r}")
    if not budgets:
        raise ValidationError("--budgets must name at least one budget")
    results = sweep_budgets(config, budgets)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(format_sweep_rows(results).encode("utf-8"))
    wall = {str(budget): [row.wall_ms for row in rows] for budget, rows in results}
    _write_provenance(out_path, doc, config, wall)
    print(f"wrote {len(results)} budget blocks to {out_path}")
    return 0


def cmd_gen(args) -> int:
    doc = _load_json(Path(args.config))
    spec = _from_json(SyntheticStreamSpec, doc, "")
    stream = generate_synthetic_stream(spec, args.seed)
    manifest = write_stream(Path(args.out), stream)
    print(f"wrote {len(stream)} tasks under {manifest.parent}")
    return 0


def _class_dirs(root: Path) -> list[tuple[int, Path]]:
    if not root.is_dir():
        raise FileFormatError(f"{root}: not a directory")
    out = []
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        try:
            cid = int(child.name)
        except ValueError:
            cid = None
        # Only the canonical decimal names a class, so 1/ and 01/ cannot merge.
        if cid is None or str(cid) != child.name:
            raise ValidationError(
                f"{child}: class directory name {child.name!r} is not the "
                f"decimal form of an integer id (such as '3', not '03' or '+3')"
            )
        out.append((cid, child))
    if not out:
        raise FileFormatError(f"{root}: no class subdirectories found")
    return out


def cmd_stats(args) -> int:
    images: list[np.ndarray] = []
    labels: list[int] = []
    for cid, child in _class_dirs(Path(args.input)):
        _, class_images = _read_pbim_files(child)
        images += class_images
        labels += [cid] * len(class_images)
    stats = dataset_stats(images, labels)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_variance_csv(out_dir / "variance.csv", stats)
    write_histogram_csv(out_dir / "counts.csv", stats)
    print(f"wrote statistics for {len(stats.per_class)} classes to {out_dir}")
    return 0


def cmd_augment(args) -> int:
    params = AugmentParams(
        region_height=args.region_height,
        region_width=args.region_width,
        mode=args.search_mode,
        tau=args.tau,
    )
    # Read and check every image, and the sidecars a class will use, then
    # generate every new image before any output exists, so a bad file or an
    # impossible cut leaves no partial tree behind.
    classes = sorted(_class_dirs(Path(args.input)))
    per_class = {cid: _read_pbim_files(child) for cid, child in classes}
    plan = balance_plan({cid: len(paths) for cid, (paths, _) in per_class.items()})
    saliencies = {}
    for cid, (paths, _) in per_class.items():
        sidecars = [p.with_suffix(".pbsm") for p in paths]
        if plan[cid] and all(s.exists() for s in sidecars):
            saliencies[cid] = [read_pbsm(s) for s in sidecars]
    rng = RngState(args.seed)
    generated = {
        cid: augment_class_records(
            images,
            plan[cid],
            rng.derive("augment", cid),
            saliencies=saliencies.get(cid),
            params=params,
        )
        for cid, (_, images) in per_class.items()
    }
    out_root = Path(args.out)
    for cid, (paths, _) in per_class.items():
        out_dir = out_root / str(cid)
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in paths:
            shutil.copyfile(path, out_dir / path.name)
        for k, rec in enumerate(generated[cid]):
            write_pbim(out_dir / f"aug_{k:05d}.pbim", rec.image)
    target = max(len(paths) for paths, _ in per_class.values())
    print(f"balanced {len(per_class)} classes to {target} images each under {out_root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbes",
        description="Robust exemplar sampling and a class-incremental learning harness.",
    )
    parser.add_argument("--version", action="version", version=f"pbes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="select exemplars from a CSV file or PBIM directory")
    p.add_argument("--input", required=True, help="dataset CSV or directory of .pbim files")
    p.add_argument("--method", required=True, choices=SAMPLER_NAMES)
    p.add_argument("--m", required=True, type=int, help="number of exemplars")
    p.add_argument("--seed", type=int, help="master seed (required for randp/random)")
    p.add_argument("--label", type=int, help="restrict to rows of one class id")
    p.add_argument("--randp-pool", type=int, help="random direction pool size for randp")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("run", help="run one experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--mode", choices=EXPERIMENT_MODES, help="override the config's mode")
    p.add_argument("--seed", type=int, help="override the config's master seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run the experiment across memory budgets")
    p.add_argument("--config", required=True)
    p.add_argument("--budgets", required=True, help="comma-separated budgets, e.g. 8,16,32")
    p.add_argument("--out", required=True, help="combined metrics CSV path")
    p.add_argument("--mode", choices=EXPERIMENT_MODES, help="override the config's mode")
    p.add_argument("--seed", type=int, help="override the config's master seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="generate a synthetic stream as CSV files")
    p.add_argument("--config", required=True, help="JSON synthetic stream spec")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="per-class channel variances and counts")
    p.add_argument("--input", required=True, help="directory of <class id>/ *.pbim")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("augment", help="balance class sizes with selective-cut images")
    p.add_argument("--input", required=True, help="directory of <class id>/ *.pbim")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--region-height", type=int, default=None)
    p.add_argument("--region-width", type=int, default=None)
    p.add_argument(
        "--search-mode", choices=SEARCH_MODES, default=AugmentParams.mode
    )
    p.add_argument("--tau", type=float, default=AugmentParams.tau)
    p.set_defaults(func=cmd_augment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileFormatError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
