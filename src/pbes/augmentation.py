"""Class balancing by saliency-guided selective cut.

A balance plan says how many extra images each class needs to match the
largest class. Each generated image is a copy of a source image with one
low-importance rectangular region zeroed out; importance is the sum of
saliency weights inside the region. Saliency maps are supplied by the caller
or, failing that, computed by a model-free fallback (per-pixel channel-mean
absolute deviation from the class mean image).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ValidationError
from .numerics import RngState

PBIM_MAGIC = b"PBIM"
PBSM_MAGIC = b"PBSM"


def as_image(x) -> np.ndarray:
    """Validate a (channels, height, width) image; float dtype is preserved."""
    arr = np.asarray(x)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim != 3:
        raise ValidationError(f"image must be 3-D (c, h, w), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValidationError(f"image axes must be >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("image contains non-finite values")
    return arr


def as_saliency(s) -> np.ndarray:
    """Validate an (h, w) saliency map of finite non-negative weights."""
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"saliency map must be 2-D, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ValidationError(f"saliency axes must be >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("saliency map contains non-finite values")
    if (arr < 0).any():
        raise ValidationError("saliency weights must be non-negative")
    return arr


@dataclass(frozen=True)
class Region:
    """Rectangle with 0-based top/left corner and inclusive-exclusive extent."""

    top: int
    left: int
    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValidationError(f"region extent must be >= 1, got {self}")
        if self.top < 0 or self.left < 0:
            raise ValidationError(f"region corner must be >= 0, got {self}")

    def check_within(self, h: int, w: int) -> None:
        if self.top + self.height > h or self.left + self.width > w:
            raise ValidationError(f"region {self} exceeds {h}x{w} bounds")


@dataclass(frozen=True)
class BalancePlan:
    """Per-class counts of images to generate so every class matches the largest.

    ``reference_class`` is the largest class (lowest id on ties) and always
    has count 0.
    """

    counts: dict
    reference_class: object


def balance_plan(class_sizes: dict) -> BalancePlan:
    """Counts needed to raise every class to the size of the largest one."""
    if not class_sizes:
        raise ValidationError("balance plan needs at least one class")
    for cid, size in class_sizes.items():
        if size < 1:
            raise ValidationError(f"class {cid!r} has size {size}, must be >= 1")
    reference = min(
        class_sizes, key=lambda cid: (-class_sizes[cid], cid)
    )
    target = class_sizes[reference]
    counts = {cid: target - size for cid, size in class_sizes.items()}
    return BalancePlan(counts=counts, reference_class=reference)


def importance_score(saliency, region: Region) -> float:
    """Sum of saliency weights inside the region."""
    s = as_saliency(saliency)
    region.check_within(*s.shape)
    window = s[
        region.top : region.top + region.height,
        region.left : region.left + region.width,
    ]
    return float(window.sum())


def binary_mask(region: Region, h: int, w: int) -> np.ndarray:
    """h x w mask of ones inside the region and zeros elsewhere."""
    region.check_within(h, w)
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[
        region.top : region.top + region.height,
        region.left : region.left + region.width,
    ] = 1
    return mask


def selective_cut(image, region: Region) -> np.ndarray:
    """Zero the region in every channel; all other pixels stay bit-identical."""
    img = as_image(image)
    region.check_within(img.shape[1], img.shape[2])
    out = img.copy()
    out[
        :,
        region.top : region.top + region.height,
        region.left : region.left + region.width,
    ] = 0.0
    return out


def find_low_importance_region(
    saliency,
    region_height: int,
    region_width: int,
    mode: str = "deterministic",
    rng: RngState | None = None,
    tau: float = 0.25,
) -> Region:
    """Locate a low-importance window of the given size.

    Candidates are every region_height x region_width window at unit stride.
    Deterministic mode returns the minimum-score window (ties resolve in
    raster order). Randomized mode draws uniformly, seeded, among windows
    whose score is at most the tau-quantile of all candidate scores.
    """
    s = as_saliency(saliency)
    h, w = s.shape
    if region_height > h or region_width > w:
        raise ValidationError(
            f"region {region_height}x{region_width} larger than map {h}x{w}"
        )
    if region_height < 1 or region_width < 1:
        raise ValidationError("region extent must be >= 1")
    positions = [
        (t, l) for t in range(h - region_height + 1) for l in range(w - region_width + 1)
    ]
    scores = np.array(
        [float(s[t : t + region_height, l : l + region_width].sum()) for t, l in positions]
    )
    if mode == "deterministic":
        top, left = positions[int(np.argmin(scores))]
    elif mode == "randomized":
        if rng is None:
            raise ValidationError("randomized region search requires a seed")
        if not 0.0 <= tau <= 1.0:
            raise ValidationError(f"tau must be in [0, 1], got {tau}")
        cutoff = float(np.quantile(scores, tau))
        eligible = [i for i, sc in enumerate(scores) if sc <= cutoff]
        pick = eligible[int(rng.generator().integers(len(eligible)))]
        top, left = positions[pick]
    else:
        raise ValidationError(f"unknown region search mode {mode!r}")
    return Region(top=top, left=left, height=region_height, width=region_width)


SEARCH_MODES = ("deterministic", "randomized")


@dataclass(frozen=True)
class AugmentParams:
    """Region size and search mode for selective-cut generation.

    ``region_height``/``region_width`` of None default to a quarter of the
    corresponding image dimension (at least 1 pixel).
    """

    region_height: int | None = None
    region_width: int | None = None
    mode: str = "deterministic"
    tau: float = 0.25

    def __post_init__(self):
        if self.mode not in SEARCH_MODES:
            raise ValidationError(f"unknown region search mode {self.mode!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"tau must be in [0, 1], got {self.tau}")
        for name in ("region_height", "region_width"):
            size = getattr(self, name)
            if size is not None and size < 1:
                raise ValidationError(f"{name} must be null or >= 1, got {size}")


@dataclass(frozen=True)
class AugmentedImage:
    """One generated image together with its source index and cut region."""

    image: np.ndarray
    source_index: int
    region: Region


def fallback_saliency(images: list[np.ndarray]) -> list[np.ndarray]:
    """Model-free saliency: channel-mean absolute deviation from the class mean.

    Requires every image in the class to share one shape.
    """
    stack = [as_image(img) for img in images]
    shape = stack[0].shape
    if any(img.shape != shape for img in stack):
        raise ValidationError("fallback saliency requires uniformly shaped images")
    mean_image = np.mean(np.stack([img.astype(np.float64) for img in stack]), axis=0)
    return [np.mean(np.abs(img - mean_image), axis=0) for img in stack]


def _region_dims(h: int, w: int, params: AugmentParams) -> tuple[int, int]:
    rh = params.region_height if params.region_height is not None else max(1, h // 4)
    rw = params.region_width if params.region_width is not None else max(1, w // 4)
    return rh, rw


def augment_class_records(
    images: list,
    count: int,
    rng: RngState,
    saliencies: list | None = None,
    params: AugmentParams | None = None,
) -> list[AugmentedImage]:
    """Generate ``count`` selective-cut images with provenance records.

    Source images are visited round-robin in a seeded-shuffled order, each
    transformed by one low-importance cut. Deterministic given ``rng``.
    """
    if count < 0:
        raise ValidationError(f"augment count must be >= 0, got {count}")
    if count == 0:
        return []
    if not images:
        raise ValidationError("cannot augment an empty class")
    imgs = [as_image(img) for img in images]
    if saliencies is None:
        sals = fallback_saliency(imgs)
    else:
        if len(saliencies) != len(imgs):
            raise ValidationError("need one saliency map per image")
        sals = [as_saliency(s) for s in saliencies]
        for img, s in zip(imgs, sals):
            if img.shape[1:] != s.shape:
                raise ValidationError(
                    f"saliency shape {s.shape} does not match image {img.shape[1:]}"
                )
    params = params or AugmentParams()

    gen = rng.generator()
    order = list(range(len(imgs)))
    for i in range(len(order) - 1):
        j = int(gen.integers(i, len(order)))
        order[i], order[j] = order[j], order[i]
    search_rng = rng.derive("region-search")

    out: list[AugmentedImage] = []
    for t in range(count):
        src = order[t % len(order)]
        img = imgs[src]
        rh, rw = _region_dims(img.shape[1], img.shape[2], params)
        region = find_low_importance_region(
            sals[src], rh, rw, mode=params.mode,
            rng=search_rng.derive(t), tau=params.tau,
        )
        out.append(AugmentedImage(selective_cut(img, region), src, region))
    return out


def augment_class(
    images: list,
    count: int,
    rng: RngState,
    saliencies: list | None = None,
    params: AugmentParams | None = None,
) -> list[np.ndarray]:
    """Generate ``count`` selective-cut images for one class."""
    return [
        rec.image
        for rec in augment_class_records(images, count, rng, saliencies, params)
    ]


def write_pbim(path, image) -> None:
    """Write an image as PBIM: magic, u32 c/h/w, then f32 pixels, planar LE."""
    img = as_image(image).astype("<f4")
    c, h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(PBIM_MAGIC)
        fh.write(struct.pack("<III", c, h, w))
        fh.write(img.tobytes(order="C"))


def _checked(path, check, arr: np.ndarray) -> np.ndarray:
    """``arr`` if ``check`` accepts it, else a format error naming ``path``."""
    try:
        check(arr)
    except ValidationError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    return arr


def read_pbim(path) -> np.ndarray:
    """Read a PBIM image back as a float32 (c, h, w) array valid for ``as_image``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != PBIM_MAGIC:
        raise FileFormatError(f"{path}: bad magic, not a PBIM file")
    if len(blob) < 16:
        raise FileFormatError(f"{path}: truncated PBIM header")
    c, h, w = struct.unpack("<III", blob[4:16])
    expected = 16 + 4 * c * h * w
    if len(blob) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes for {c}x{h}x{w}, got {len(blob)}"
        )
    image = np.frombuffer(blob[16:], dtype="<f4").reshape(c, h, w).copy()
    return _checked(path, as_image, image)


def write_pbsm(path, saliency) -> None:
    """Write a saliency map as PBSM: magic, u32 h/w, then f32 weights LE."""
    s = as_saliency(saliency).astype("<f4")
    h, w = s.shape
    with open(path, "wb") as fh:
        fh.write(PBSM_MAGIC)
        fh.write(struct.pack("<II", h, w))
        fh.write(s.tobytes(order="C"))


def read_pbsm(path) -> np.ndarray:
    """Read a PBSM saliency map as a float32 (h, w) array valid for ``as_saliency``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != PBSM_MAGIC:
        raise FileFormatError(f"{path}: bad magic, not a PBSM file")
    if len(blob) < 12:
        raise FileFormatError(f"{path}: truncated PBSM header")
    h, w = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * h * w
    if len(blob) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} bytes for {h}x{w}, got {len(blob)}"
        )
    saliency = np.frombuffer(blob[12:], dtype="<f4").reshape(h, w).copy()
    return _checked(path, as_saliency, saliency)


def read_pbim_dir(directory) -> tuple[list[np.ndarray], list[str]]:
    """Read every .pbim file in a directory, sorted by filename."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.pbim"))
    if not paths:
        raise FileFormatError(f"{directory}: no .pbim files found")
    return [read_pbim(p) for p in paths], [p.name for p in paths]
