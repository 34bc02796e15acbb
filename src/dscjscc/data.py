"""Dataset handling: binary PPM loading, center cropping, synthetic images.

Images are stored as float64 (L, C, H, W) arrays holding 8-bit values in
[0, 255].  Only binary "P6" PPM files with maxval 255 are accepted; anything
else should be converted upstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    pass


@dataclass
class Dataset:
    images: np.ndarray  # (L, C, H, W), values in [0, 255]
    split: str = "train"

    def __post_init__(self) -> None:
        if self.images.ndim != 4 or self.images.shape[0] < 1:
            raise DatasetError(f"dataset needs a non-empty (L, C, H, W) array, got {self.images.shape}")

    def __len__(self) -> int:
        return int(self.images.shape[0])


# magic, width, height and maxval, each after whitespace and "#" comments that run
# to a newline, and each ending at whitespace; read from the first 64 KiB only
_PPM_HEADER = re.compile(rb"\s*(?:#[^\n]*\n\s*)*([^\s#]\S*)(?!\S)" * 4)
_PPM_HEADER_BYTES = 1 << 16


def _read_ppm(path: Path) -> np.ndarray:
    """Parse a binary PPM (P6, maxval 255) into (3, H, W) float64."""
    data = path.read_bytes()
    header = _PPM_HEADER.match(data, 0, _PPM_HEADER_BYTES)
    # a maxval that runs into the bound may go on past it
    if header is None or header.end() == _PPM_HEADER_BYTES < len(data):
        raise DatasetError(f"{path}: truncated PPM header")
    magic, width, height, maxval = header.groups()
    if magic != b"P6":
        raise DatasetError(f"{path}: expected binary PPM magic P6, got {magic[:24]!r}")
    # plain decimal digits only: int() would also take signs, underscores and
    # surrounding space, and fails with its own ValueError past 4300 digits
    for name, field in (("width", width), ("height", height), ("maxval", maxval)):
        if not (field.isdigit() and len(field) <= 18):
            raise DatasetError(f"{path}: PPM {name} must be a decimal number of at most 18 digits, "
                               f"got {field[:24]!r}")
    w, h, mv = int(width), int(height), int(maxval)
    if w == 0 or h == 0:
        raise DatasetError(f"{path}: PPM image must be at least 1x1, got width {w}, height {h}")
    if mv != 255:
        raise DatasetError(f"{path}: only maxval 255 supported, got {mv}")
    pos = header.end() + 1  # single whitespace byte after maxval
    raw = data[pos:pos + 3 * w * h]
    if len(raw) != 3 * w * h:
        raise DatasetError(f"{path}: pixel payload has {len(raw)} bytes, expected {3 * w * h}")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return img.transpose(2, 0, 1).astype(np.float64)


def center_crop(image: np.ndarray, size: int) -> np.ndarray:
    """Crop (C, H, W) to size x size around the center; offsets floor((dim-size)/2)."""
    _, h, w = image.shape
    if h < size or w < size:
        raise DatasetError(f"image {h}x{w} smaller than crop size {size}")
    top = (h - size) // 2
    left = (w - size) // 2
    return image[:, top:top + size, left:left + size]


def load_dataset(path: str | Path, crop: int | None = None) -> Dataset:
    """Load every .ppm under a directory, ordered lexicographically by filename."""
    root = Path(path)
    if not root.is_dir():
        raise DatasetError(f"dataset path {root} is not a directory")
    files = sorted(p for p in root.iterdir() if p.suffix.lower() == ".ppm")
    if not files:
        raise DatasetError(f"no .ppm files found under {root}")
    images = []
    problems = []
    for f in files:
        try:
            img = _read_ppm(f)
            if crop is not None:
                img = center_crop(img, crop)
            images.append(img)
        except DatasetError as e:
            problems.append(str(e))
    if problems:
        raise DatasetError("unreadable or incompatible files:\n" + "\n".join(problems))
    shapes = {img.shape for img in images}
    if len(shapes) != 1:
        raise DatasetError(f"images disagree on shape: {sorted(shapes)}; pass a crop size")
    return Dataset(np.stack(images))


def synthetic_dataset(count: int, size: int, seed: int = 0, split: str = "train") -> Dataset:
    """Smooth gradients plus mild noise: enough structure to learn at desk scale."""
    rng = np.random.default_rng(seed)
    ys, xs = np.meshgrid(np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, size), indexing="ij")
    images = np.empty((count, 3, size, size))
    for i in range(count):
        for c in range(3):
            a, b, offs = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 1)
            freq = rng.uniform(0.5, 2.0)
            base = 0.5 + 0.35 * np.sin(2.0 * np.pi * freq * (a * xs + b * ys) + offs * 2 * np.pi)
            noise = rng.normal(0.0, 0.03, size=(size, size))
            images[i, c] = np.clip(base + noise, 0.0, 1.0) * 255.0
    return Dataset(images, split=split)
