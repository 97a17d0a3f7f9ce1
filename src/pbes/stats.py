"""Per-class image statistics: channel variances and class-count histograms."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augmentation import as_image
from .errors import ValidationError


@dataclass(frozen=True)
class ClassStats:
    count: int
    channel_variances: tuple[float, ...]


@dataclass(frozen=True)
class DatasetStats:
    """Per-class channel variances plus the across-class average."""

    per_class: dict[int, ClassStats]
    average_variances: tuple[float, ...]


def dataset_stats(images: list, labels) -> DatasetStats:
    """Population variance of each channel's pixel values, per class.

    All pixel values of one channel across a class's images form one sample;
    images may differ in spatial size but must share the channel count.
    """
    if len(images) == 0:
        raise ValidationError("dataset statistics need at least one image")
    imgs = [as_image(img) for img in images]
    labels = [int(l) for l in labels]
    if len(imgs) != len(labels):
        raise ValidationError(f"{len(imgs)} images but {len(labels)} labels")
    channels = imgs[0].shape[0]
    if any(img.shape[0] != channels for img in imgs):
        raise ValidationError("all images must share one channel count")

    by_class: dict[int, list[np.ndarray]] = {}
    for img, lab in zip(imgs, labels):
        by_class.setdefault(lab, []).append(img)

    per_class: dict[int, ClassStats] = {}
    for cid in sorted(by_class):
        members = by_class[cid]
        variances = []
        for ch in range(channels):
            values = np.concatenate(
                [img[ch].ravel().astype(np.float64) for img in members]
            )
            variances.append(float(np.var(values)))
        per_class[cid] = ClassStats(count=len(members), channel_variances=tuple(variances))

    average = tuple(
        float(np.mean([cs.channel_variances[ch] for cs in per_class.values()]))
        for ch in range(channels)
    )
    return DatasetStats(per_class=per_class, average_variances=average)


def write_variance_csv(path, stats: DatasetStats) -> None:
    """Write `class,channel,variance` rows plus `avg` rows for the cross-class mean."""
    lines = ["class,channel,variance"]
    for cid, cs in sorted(stats.per_class.items()):
        for ch, var in enumerate(cs.channel_variances):
            lines.append(f"{cid},{ch},{var:.6f}")
    for ch, var in enumerate(stats.average_variances):
        lines.append(f"avg,{ch},{var:.6f}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_histogram_csv(path, stats: DatasetStats) -> None:
    """Write the `class,count` histogram file."""
    lines = ["class,count"]
    for cid, cs in sorted(stats.per_class.items()):
        lines.append(f"{cid},{cs.count}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
