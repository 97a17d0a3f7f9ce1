"""Class balancing by saliency-guided selective cut.

A balance plan says how many extra images each class needs to match the
largest class. Each generated image is a copy of a source image with one
low-importance rectangular region zeroed out; importance is the sum of
saliency weights inside the region. Saliency maps are supplied by the caller
or, failing that, computed by a model-free fallback (per-pixel channel-mean
absolute deviation from the class mean image).
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, ValidationError
from .numerics import RngState, finite_array, shuffled_prefix


def as_image(x) -> np.ndarray:
    """Validate a (channels, height, width) image; float dtype is preserved."""
    arr = np.asarray(x)
    keep = arr.dtype in (np.float32, np.float64)
    return finite_array(arr, 3, "image", arr.dtype if keep else np.float64)


def as_saliency(s) -> np.ndarray:
    """Validate an (h, w) saliency map of finite non-negative weights."""
    arr = finite_array(s, 2, "saliency map")
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


def balance_plan(class_sizes: dict) -> dict:
    """Per-class counts of images to generate so every class matches the largest."""
    if not class_sizes:
        raise ValidationError("balance plan needs at least one class")
    for cid, size in class_sizes.items():
        if size < 1:
            raise ValidationError(f"class {cid!r} has size {size}, must be >= 1")
    target = max(class_sizes.values())
    return {cid: target - size for cid, size in class_sizes.items()}


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


# Float64 values copied at once by ``_window_scores``: about 512 KB.
_BLOCK_VALUES = 1 << 16


def _window_scores(s: np.ndarray, rh: int, rw: int) -> np.ndarray:
    """Saliency sum of every rh x rw window of ``s`` at unit stride, in raster order.

    Each score has the bits of ``float(s[t:t+rh, l:l+rw].sum())``. numpy sums a
    slice of a C-ordered map that fits its reduction buffer
    (``np.getbufsize()`` values) pairwise in row-major order in one pass, as it
    sums the slice's contiguous copy; windows are copied a block at a time,
    which bounds the temporary. numpy sums a larger 2-D slice buffer by buffer,
    and a slice of a map in another memory layout in that layout's order, so
    those keep the slice loop.
    """
    rows, cols, size = s.shape[0] - rh + 1, s.shape[1] - rw + 1, rh * rw
    if size > np.getbufsize() or not s.flags.c_contiguous:
        return np.array([
            float(s[t : t + rh, l : l + rw].sum()) for t in range(rows) for l in range(cols)
        ])
    # Every window as a view of ``s`` (numpy checks that it stays inside ``s``);
    # as_strided and sliding_window_view cost more than the rest of a small
    # map's search.
    views = np.ndarray((rows, cols, rh, rw), s.dtype, s, strides=s.strides * 2)
    # A block is whole window rows, or part of one row when a row holds more
    # than a block, so the blocks' scores concatenate in raster order.
    per_block = max(1, _BLOCK_VALUES // size)
    row_step, col_step = max(1, per_block // cols), min(cols, per_block)
    blocks = (
        views[t : t + row_step, l : l + col_step].reshape(-1, size)
        for t in range(0, rows, row_step)
        for l in range(0, cols, col_step)
    )
    # reshape returns a view where it can (column windows, say), and numpy would
    # sum that view's rows in another order than a contiguous copy's.
    return np.concatenate([np.ascontiguousarray(b).sum(axis=1) for b in blocks])


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
    AugmentParams(region_height, region_width, mode, tau)  # its extent, mode and tau rules
    s = as_saliency(saliency)
    h, w = s.shape
    if region_height > h or region_width > w:
        raise ValidationError(
            f"region {region_height}x{region_width} larger than map {h}x{w}"
        )
    scores = _window_scores(s, region_height, region_width)
    if mode == "deterministic":
        pick = int(np.argmin(scores))
    else:
        if rng is None:
            raise ValidationError("randomized region search requires a seed")
        cutoff = float(np.quantile(scores, tau))
        eligible = np.flatnonzero(scores <= cutoff)
        pick = int(eligible[int(rng.generator().integers(len(eligible)))])
    top, left = divmod(pick, w - region_width + 1)
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
    deviation = _deviation_from_mean(stack)
    return [deviation(img) for img in stack]


def _deviation_from_mean(images: list[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Fallback saliency of an image of ``images`` (validated, of one shape), as a function."""
    if any(img.shape != images[0].shape for img in images):
        raise ValidationError("fallback saliency requires uniformly shaped images")
    mean_image = np.mean(np.stack(images, dtype=np.float64), axis=0)
    return lambda img: np.mean(np.abs(img - mean_image), axis=0)


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
    order = shuffled_prefix(rng, len(imgs), len(imgs))
    if saliencies is None:  # only the first ``count`` sources of the order are cut
        deviation = _deviation_from_mean(imgs)
        sals = {src: deviation(imgs[src]) for src in order[:count]}
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


@dataclass(frozen=True)
class _FloatCodec:
    """Magic, u32 axis lengths, then float32 values little-endian in C order."""

    magic: bytes
    ndim: int
    check: Callable[..., np.ndarray]

    def write(self, path, values) -> None:
        with np.errstate(over="ignore"):
            payload = self.check(values).astype("<f4")
        # The readers reject non-finite values, so refuse to write one.
        if not np.isfinite(payload).all():
            raise ValidationError(
                f"{self.magic.decode()} values must lie within the float32 range"
            )
        with open(path, "wb") as fh:
            fh.write(self.magic + struct.pack(f"<{self.ndim}I", *payload.shape))
            fh.write(payload.tobytes())

    def read(self, path) -> np.ndarray:
        with open(path, "rb") as fh:
            blob = fh.read()
        kind = self.magic.decode()
        if blob[:4] != self.magic:
            raise FileFormatError(f"{path}: bad magic, not a {kind} file")
        header = 4 + 4 * self.ndim
        if len(blob) < header:
            raise FileFormatError(f"{path}: truncated {kind} header")
        shape = struct.unpack(f"<{self.ndim}I", blob[4:header])
        expected = header + 4 * math.prod(shape)
        if len(blob) != expected:
            raise FileFormatError(
                f"{path}: expected {expected} bytes for "
                f"{'x'.join(map(str, shape))}, got {len(blob)}"
            )
        arr = np.frombuffer(blob[header:], dtype="<f4").reshape(shape).copy()
        try:
            self.check(arr)
        except ValidationError as exc:
            raise FileFormatError(f"{path}: {exc}") from None
        return arr


_PBIM = _FloatCodec(b"PBIM", 3, as_image)
_PBSM = _FloatCodec(b"PBSM", 2, as_saliency)


def write_pbim(path, image) -> None:
    """Write a (c, h, w) image as PBIM: magic, u32 c/h/w, f32 pixels planar LE."""
    _PBIM.write(path, image)


def read_pbim(path) -> np.ndarray:
    """Read a PBIM image back as a float32 (c, h, w) array valid for ``as_image``."""
    return _PBIM.read(path)


def write_pbsm(path, saliency) -> None:
    """Write an (h, w) saliency map as PBSM: magic, u32 h/w, f32 weights LE."""
    _PBSM.write(path, saliency)


def read_pbsm(path) -> np.ndarray:
    """Read a PBSM saliency map as a float32 (h, w) array valid for ``as_saliency``."""
    return _PBSM.read(path)
