"""Dataset ingestion, episode sampling, noise injection, PGM export."""

import struct
from dataclasses import dataclass

import numpy as np

from .nets import Episode

NOISE_KINDS = ("salt_pepper", "speckle", "poisson")


@dataclass
class Dataset:
    """Images (N, C, H, W) with values in [0, 1]."""

    images: np.ndarray
    split: str = "train"

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        if self.images.ndim != 4:
            raise ValueError(f"dataset images must be (N,C,H,W), got {self.images.shape}")
        lo, hi = self.images.min(), self.images.max()
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"pixel values out of [0,1]: min {lo}, max {hi}")

    def __len__(self):
        return self.images.shape[0]

    @property
    def image_shape(self):
        return self.images.shape[1:]


def load_idx(path, split="train"):
    """Parse an IDX image file (magic 0x803) into a Dataset in [0,1]."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated IDX header, need 4 bytes at offset 0, got {len(raw)}")
    (magic,) = struct.unpack_from(">I", raw, 0)
    if magic != 0x00000803:
        raise ValueError(
            f"{path}: bad IDX magic 0x{magic:08x} at offset 0 (expected 0x00000803 images)"
        )
    header = 16  # magic, then the three dims (n, h, w)
    if len(raw) < header:
        raise ValueError(
            f"{path}: truncated IDX header, need {header} bytes, got {len(raw)}"
        )
    dims = struct.unpack_from(">3I", raw, 4)
    count = int(np.prod(dims))
    expected = header + count
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for dims {dims}, file has {len(raw)} "
            f"(data starts at offset {header})"
        )
    n, h, w = dims
    body = np.frombuffer(raw, dtype=np.uint8, offset=header)
    images = body.reshape(n, 1, h, w).astype(np.float64) / 255.0
    return Dataset(images=images, split=split)


BINARIZE_MODES = ("threshold", "sample")


def binarize(dataset: Dataset, mode="threshold", seed=0) -> Dataset:
    """Map pixels to {0,1}: fixed threshold at 0.5 ("threshold") or one
    seeded Bernoulli draw per pixel ("sample")."""
    if mode == "threshold":
        images = (dataset.images >= 0.5).astype(np.float64)
    elif mode == "sample":
        rng = np.random.default_rng(seed)
        images = (rng.random(dataset.images.shape) < dataset.images).astype(np.float64)
    else:
        raise ValueError(f"unknown binarize mode {mode!r}")
    return Dataset(images=images, split=dataset.split)


def _draw_rectangle(img, rng):
    h, w = img.shape
    rh = int(rng.integers(h // 4, max(h // 4 + 1, h // 2 + 1)))
    rw = int(rng.integers(w // 4, max(w // 4 + 1, w // 2 + 1)))
    y0 = int(rng.integers(1, h - rh))
    x0 = int(rng.integers(1, w - rw))
    img[y0:y0 + rh, x0:x0 + rw] = 1.0


def _draw_cross(img, rng):
    h, w = img.shape
    side = min(h, w)
    lo = max(2, side // 4)
    hi = max(lo, min((side - 3) // 2, side // 3))
    arm = int(rng.integers(lo, hi + 1))
    cy = int(rng.integers(arm + 1, h - arm))
    cx = int(rng.integers(arm + 1, w - arm))
    bar = max(1, min(h, w) // 8)
    img[cy - bar // 2: cy + (bar + 1) // 2, cx - arm: cx + arm + 1] = 1.0
    img[cy - arm: cy + arm + 1, cx - bar // 2: cx + (bar + 1) // 2] = 1.0


def _draw_circle(img, rng):
    h, w = img.shape
    r = int(rng.integers(min(h, w) // 5, min(h, w) // 3))
    cy = int(rng.integers(r + 1, h - r - 1))
    cx = int(rng.integers(r + 1, w - r - 1))
    yy, xx = np.mgrid[0:h, 0:w]
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1.0


_SHAPE_FNS = (_draw_rectangle, _draw_cross, _draw_circle)


def synth_shapes(n, h, w, seed, split="train") -> Dataset:
    """n binary images of randomly placed rectangles, crosses and circles."""
    if h < 8 or w < 8:
        raise ValueError(f"synthetic images need sides >= 8, got {h}x{w}")
    rng = np.random.default_rng(seed)
    images = np.zeros((n, 1, h, w))
    for i in range(n):
        _SHAPE_FNS[i % 3](images[i, 0], rng)
    return Dataset(images=images, split=split)


def inject_noise(image, kind, seed, rate=0.1, std=0.3, scale=30.0):
    """Corrupt an image in [0,1] with one of the three studied noise kinds."""
    image = np.asarray(image, dtype=np.float64)
    if image.min() < 0 or image.max() > 1:
        raise ValueError("inject_noise expects pixels in [0,1]")
    rng = np.random.default_rng(seed)
    if kind == "salt_pepper":
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"salt_pepper rate must be in [0,1], got {rate}")
        u = rng.random(image.shape)
        out = image.copy()
        out[u < rate / 2] = 0.0
        out[(u >= rate / 2) & (u < rate)] = 1.0
        return out
    if kind == "speckle":
        if not 0.0 <= std < np.inf:
            raise ValueError(f"speckle std must be finite and >= 0, got {std}")
        eps = rng.normal(0.0, std, size=image.shape)
        return np.clip(image * (1.0 + eps), 0.0, 1.0)
    if kind == "poisson":
        if not 0.0 < scale < np.inf:
            raise ValueError(f"poisson scale must be finite and > 0, got {scale}")
        return np.clip(rng.poisson(image * scale) / scale, 0.0, 1.0)
    raise ValueError(f"unknown noise kind {kind!r}, expected one of {NOISE_KINDS}")


def check_episode_length(t, *splits, name="episode length"):
    """Raise ValueError, naming what set t, unless every split holds t images."""
    for split in splits:
        if len(split) < t:
            raise ValueError(f"{name} {t} exceeds the {split.split} split of {len(split)} images")


class EpisodeSampler:
    """Draws exchangeable episodes of T distinct images from a dataset."""

    def __init__(self, dataset: Dataset, t: int, seed):
        if t < 1:
            raise ValueError(f"episode length must be >= 1, got {t}")
        check_episode_length(t, dataset)
        self.dataset = dataset
        self.t = t
        self._rng = np.random.default_rng(seed)

    def sample(self) -> Episode:
        ids = self._rng.choice(len(self.dataset), size=self.t, replace=False)
        return Episode(images=self.dataset.images[ids].copy(), dataset_ids=ids.tolist())

    def sample_batch(self, n) -> list:
        return [self.sample() for _ in range(n)]


def episode_grid(dataset: Dataset, t: int, seed) -> Episode:
    """One deterministic episode from a dataset (convenience wrapper)."""
    return EpisodeSampler(dataset, t, seed).sample()


def save_pgm(path, image):
    """Write a single-channel image in [0,1] as binary PGM (P5, maxval 255)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 3:
        if arr.shape[0] != 1:
            raise ValueError(f"save_pgm needs a single-channel image, got {arr.shape}")
        arr = arr[0]
    if arr.ndim != 2:
        raise ValueError(f"save_pgm needs a 2-D image, got shape {arr.shape}")
    pix = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode())
        f.write(pix.tobytes())


def image_grid(images, cols=None, pad=1):
    """Tile (N, 1, H, W) images into one (H', W') canvas with separators."""
    images = np.asarray(images, dtype=np.float64)
    n = images.shape[0]
    if cols is None:
        cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    h, w = images.shape[-2], images.shape[-1]
    canvas = np.zeros((rows * (h + pad) - pad, cols * (w + pad) - pad))
    for i in range(n):
        r, c = divmod(i, cols)
        canvas[r * (h + pad): r * (h + pad) + h,
               c * (w + pad): c * (w + pad) + w] = images[i].reshape(h, w)
    return canvas
