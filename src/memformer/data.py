"""Hyperspectral cube and label handling.

Covers the four data concerns the classifier needs: binary I/O for cubes
(HSC1) and label maps (HSL1), synthetic labeled scenes for desk-scale
experiments, mirror-padded window extraction around a pixel, and seeded
stratified train/val/test splitting with a hashable plain-text manifest.

On-disk layouts (all little-endian):

* HSC1: magic ``HSC1``, u32 H, u32 W, u32 S, then H*W*S float32 values with
  the band index varying fastest (pixel-major, band-minor).
* HSL1: magic ``HSL1``, u32 H, u32 W, then H*W u16 labels row-major,
  0 meaning unlabeled.
* Split manifest: text, one ``split,row,col,class`` line per assigned pixel.

Cube values are held as float32 in memory, matching the storage width, so a
save/load cycle is bit-identity. Model code widens to float64 at tokenize
time.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FormatError",
    "HSICube",
    "LabelMap",
    "SplitManifest",
    "load_cube",
    "save_cube",
    "load_labels",
    "save_labels",
    "synth_scene",
    "extract_window",
    "stratified_split",
    "manifest_text",
    "save_manifest",
    "load_manifest",
    "manifest_sha256",
]

_CUBE_MAGIC = b"HSC1"
_LABEL_MAGIC = b"HSL1"
_INT64_MAX = np.iinfo(np.int64).max


class FormatError(ValueError):
    """A file does not conform to the HSC1/HSL1/manifest layout."""


@dataclass
class HSICube:
    """A height x width x bands cube of reflectance values."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise ValueError(f"cube values must be rank 3 (H, W, S), got shape {self.values.shape}")
        if min(self.values.shape) < 1:
            raise ValueError(f"cube extents must all be >= 1, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("cube contains non-finite values")

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def bands(self):
        return self.values.shape[2]


@dataclass
class LabelMap:
    """Per-pixel class ids aligned with a cube; 0 marks unlabeled pixels."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels)
        if self.labels.ndim != 2:
            raise ValueError(f"label map must be rank 2 (H, W), got shape {self.labels.shape}")
        if min(self.labels.shape) < 1:
            raise ValueError(f"label extents must all be >= 1, got {self.labels.shape}")
        if self.labels.min() < 0 or self.labels.max() > np.iinfo(np.uint16).max:
            raise ValueError("labels must fit in an unsigned 16-bit integer")
        self.labels = self.labels.astype(np.uint16)

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]

    @property
    def num_classes(self):
        """Largest class id present (ids are 1..C)."""
        return int(self.labels.max())


# -- binary I/O -------------------------------------------------------------


def _read_header(data, magic, n_extents, path):
    if len(data) < 4 or data[:4] != magic:
        found = bytes(data[:4])
        raise FormatError(f"{path}: bad magic at byte 0: expected {magic!r}, found {found!r}")
    need = 4 + 4 * n_extents
    if len(data) < need:
        raise FormatError(f"{path}: truncated header at byte {len(data)}: need {need} bytes")
    extents = struct.unpack_from(f"<{n_extents}I", data, 4)
    for i, e in enumerate(extents):
        if e == 0:
            raise FormatError(f"{path}: zero extent at byte {4 + 4 * i}")
    return extents, need


def _check_payload(data, offset, expected, path):
    actual = len(data) - offset
    if actual != expected:
        kind = "truncated" if actual < expected else "oversized"
        raise FormatError(
            f"{path}: {kind} payload at byte {offset}: expected {expected} bytes, found {actual}"
        )


def save_cube(cube, path):
    """Write ``cube`` in HSC1 layout."""
    with open(path, "wb") as fh:
        fh.write(_CUBE_MAGIC)
        fh.write(struct.pack("<III", cube.height, cube.width, cube.bands))
        fh.write(np.ascontiguousarray(cube.values, dtype="<f4").tobytes())


def load_cube(path):
    """Read an HSC1 file; malformed input raises FormatError with a byte offset."""
    data = Path(path).read_bytes()
    (h, w, s), offset = _read_header(data, _CUBE_MAGIC, 3, path)
    _check_payload(data, offset, 4 * h * w * s, path)
    values = np.frombuffer(data, dtype="<f4", offset=offset).reshape(h, w, s)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: non-finite value in payload")
    return HSICube(values.copy())


def save_labels(label_map, path):
    """Write ``label_map`` in HSL1 layout."""
    with open(path, "wb") as fh:
        fh.write(_LABEL_MAGIC)
        fh.write(struct.pack("<II", label_map.height, label_map.width))
        fh.write(np.ascontiguousarray(label_map.labels, dtype="<u2").tobytes())


def load_labels(path):
    """Read an HSL1 file; malformed input raises FormatError with a byte offset."""
    data = Path(path).read_bytes()
    (h, w), offset = _read_header(data, _LABEL_MAGIC, 2, path)
    _check_payload(data, offset, 2 * h * w, path)
    labels = np.frombuffer(data, dtype="<u2", offset=offset).reshape(h, w)
    return LabelMap(labels.copy())


# -- synthetic scenes ---------------------------------------------------------


def synth_scene(height, width, bands, classes, noise_sigma=0.05, blob_count=3, seed=0):
    """Generate a labeled scene: Voronoi class blobs over smooth spectra.

    Each class gets ``blob_count`` seed pixels and a smooth random spectral
    signature (a few low-frequency harmonics). Every pixel takes the class of
    its nearest seed, and its spectrum is the class signature plus i.i.d.
    Gaussian noise. Fully determined by ``seed``.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if bands < 2:
        raise ValueError(f"need at least 2 bands, got {bands}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if blob_count < 1:
        raise ValueError(f"blob_count must be >= 1, got {blob_count}")
    if height * width < classes * blob_count:
        raise ValueError(
            f"cannot place {classes * blob_count} blob seeds on a {height}x{width} scene"
        )
    rng = np.random.default_rng(seed)

    t = np.linspace(0.0, 1.0, bands)
    signatures = np.zeros((classes, bands))
    for c in range(classes):
        signatures[c] = rng.uniform(-0.5, 0.5)
        for k in range(1, 4):
            amp = rng.uniform(0.3, 1.0) / k
            phase = rng.uniform(0.0, 2.0 * np.pi)
            signatures[c] += amp * np.sin(2.0 * np.pi * k * t + phase)

    flat = rng.choice(height * width, size=classes * blob_count, replace=False)
    seeds_rc = np.stack([flat // width, flat % width], axis=1)
    seed_class = np.repeat(np.arange(1, classes + 1), blob_count)

    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    d2 = (rows[..., None] - seeds_rc[:, 0]) ** 2 + (cols[..., None] - seeds_rc[:, 1]) ** 2
    labels = seed_class[np.argmin(d2, axis=-1)].astype(np.uint16)

    values = signatures[labels - 1].astype(np.float32)
    if noise_sigma > 0:
        values = values + noise_sigma * rng.standard_normal(values.shape)
    return HSICube(values), LabelMap(labels)


# -- window extraction -------------------------------------------------------


def _mirror_indices(idx, extent):
    """Absolute indices folded into [0, extent) by edge-repeating reflection
    ([a b c] pads to ... b a | a b c | c b a ...)."""
    idx = np.mod(idx, 2 * extent)
    return np.where(idx >= extent, 2 * extent - 1 - idx, idx)


def extract_window(cube, row, col, size):
    """The size x size x S window centered at (row, col), or (..., size,
    size, S) windows for integer arrays of centers that broadcast together.

    The window starts size//2 pixels up and left of the center; positions
    falling outside the cube are filled by mirror reflection at the edges.
    """
    if size < 1:
        raise ValueError(f"window size must be >= 1, got {size}")
    if size > 2 * min(cube.height, cube.width):
        raise ValueError(
            f"window size {size} exceeds twice the smaller scene extent "
            f"({cube.height}x{cube.width})"
        )
    rows, cols = np.broadcast_arrays(row, col)
    outside = (rows < 0) | (rows >= cube.height) | (cols < 0) | (cols >= cube.width)
    if outside.any():
        row, col = rows[outside][0], cols[outside][0]
        raise ValueError(f"center ({row}, {col}) outside a {cube.height}x{cube.width} scene")
    offsets = np.arange(size) - size // 2
    r = _mirror_indices(rows[..., None] + offsets, cube.height)
    c = _mirror_indices(cols[..., None] + offsets, cube.width)
    return cube.values[r[..., :, None], c[..., None, :]].astype(np.float64)


# -- stratified splitting -----------------------------------------------------


@dataclass
class SplitManifest:
    """Disjoint train/val/test pixel assignments.

    Each split is an (n, 3) int array of (row, col, class) triples.
    """

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        self.train = _as_triples(self.train, "train")
        self.val = _as_triples(self.val, "val")
        self.test = _as_triples(self.test, "test")
        coords = [(r, c) for arr in (self.train, self.val, self.test) for r, c, _ in arr]
        if len(coords) != len(set(coords)):
            raise ValueError("splits overlap: a pixel appears in more than one list")

    def counts(self):
        return len(self.train), len(self.val), len(self.test)


def _as_triples(arr, name):
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, 3)
    if len(arr) and (arr[:, :2] < 0).any():
        raise ValueError(f"{name} split contains a negative row or column")
    if len(arr) and (arr[:, 2] < 1).any():
        raise ValueError(f"{name} split contains an unlabeled pixel (class 0)")
    return arr


def stratified_split(label_map, fractions, seed):
    """Per-class split of the labeled pixels into train/val/test.

    For each class, floor(fraction * count) pixels go to each split after a
    seeded shuffle; the remainder is deliberately left unused. A fraction may
    be zero. Classes with fewer than 3 labeled pixels are rejected by id.
    """
    f = tuple(float(x) for x in fractions)
    if len(f) != 3:
        raise ValueError(f"fractions must be (train, val, test), got {fractions!r}")
    if min(f) < 0:
        raise ValueError(f"fractions must be >= 0, got {f}")
    if sum(f) > 1.0 + 1e-9:
        raise ValueError(f"fractions must sum to at most 1, got {sum(f)}")

    rng = np.random.default_rng(seed)
    parts = {"train": [], "val": [], "test": []}
    labels = label_map.labels
    for cls in range(1, label_map.num_classes + 1):
        coords = np.argwhere(labels == cls)
        n = len(coords)
        if n == 0:
            continue
        if n < 3:
            raise ValueError(f"class {cls} has only {n} labeled pixels, need at least 3")
        coords = coords[rng.permutation(n)]
        stop = 0
        for name, frac in zip(("train", "val", "test"), f):
            take = int(np.floor(frac * n))
            chunk = coords[stop : stop + take]
            stop += take
            for r, c in chunk:
                parts[name].append((int(r), int(c), int(cls)))
    return SplitManifest(
        train=np.array(parts["train"], dtype=np.int64).reshape(-1, 3),
        val=np.array(parts["val"], dtype=np.int64).reshape(-1, 3),
        test=np.array(parts["test"], dtype=np.int64).reshape(-1, 3),
    )


# -- manifest serialization ---------------------------------------------------


def manifest_text(manifest):
    """Canonical text form: one ``split,row,col,class`` line per assignment."""
    lines = []
    for name in ("train", "val", "test"):
        for r, c, y in getattr(manifest, name):
            lines.append(f"{name},{r},{c},{y}")
    return "\n".join(lines) + ("\n" if lines else "")


def save_manifest(manifest, path):
    Path(path).write_text(manifest_text(manifest))


def _text_lines(path, error):
    """(line number, text) of each line of a UTF-8 text file.

    A line ends only at a line feed, and a carriage return just before it is
    dropped; every other character, other line separators included, belongs
    to its line. A byte that is not UTF-8 raises ``error`` naming its line.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        raise error(f"{path}: line {lineno}: byte {e.start} is not valid UTF-8") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        yield lineno, line.removesuffix("\r")


def load_manifest(path):
    """Parse a manifest file; malformed lines raise FormatError by number."""
    parts = {"train": [], "val": [], "test": []}
    first_line = {}  # (row, col) -> line that assigned it
    for lineno, line in _text_lines(path, FormatError):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4 or fields[0] not in parts:
            raise FormatError(f"{path}: line {lineno}: expected 'split,row,col,class', got {line!r}")
        try:
            triple = tuple(int(x) for x in fields[1:])
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-integer field in {line!r}") from None
        if min(triple[:2]) < 0:
            raise FormatError(f"{path}: line {lineno}: negative row or column in {line!r}")
        if triple[2] < 1:
            raise FormatError(f"{path}: line {lineno}: unlabeled pixel (class 0) or negative class in {line!r}")
        if max(triple) > _INT64_MAX:
            raise FormatError(f"{path}: line {lineno}: field above the 64-bit integer range in {line!r}")
        pixel = triple[:2]
        if pixel in first_line:
            raise FormatError(
                f"{path}: line {lineno}: pixel {pixel} already assigned on line {first_line[pixel]}"
            )
        first_line[pixel] = lineno
        parts[fields[0]].append(triple)
    arrays = {k: np.array(v, dtype=np.int64).reshape(-1, 3) for k, v in parts.items()}
    return SplitManifest(train=arrays["train"], val=arrays["val"], test=arrays["test"])


def manifest_sha256(manifest):
    """Hex digest of the canonical text; identifies a split exactly."""
    return hashlib.sha256(manifest_text(manifest).encode()).hexdigest()
