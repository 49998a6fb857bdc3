"""Cube/label I/O, synthetic scenes, windowing, and stratified splits."""

import numpy as np
import pytest

from memformer.data import (
    FormatError,
    HSICube,
    LabelMap,
    extract_window,
    load_cube,
    load_labels,
    load_manifest,
    manifest_sha256,
    manifest_text,
    save_cube,
    save_labels,
    save_manifest,
    stratified_split,
    synth_scene,
)


def _random_cube(rng):
    h, w, s = rng.integers(1, 9, size=3)
    return HSICube(rng.standard_normal((h, w, s)).astype(np.float32))


# -- binary round-trips -------------------------------------------------------


def test_cube_round_trip_small(tmp_path):
    cube = HSICube(np.arange(12, dtype=np.float32).reshape(2, 2, 3))
    save_cube(cube, tmp_path / "c.hsc")
    back = load_cube(tmp_path / "c.hsc")
    assert back.values.shape == (2, 2, 3)
    np.testing.assert_array_equal(back.values, cube.values)


def test_cube_round_trip_randomized(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(100):
        cube = _random_cube(rng)
        path = tmp_path / f"cube_{i}.hsc"
        save_cube(cube, path)
        back = load_cube(path)
        assert back.values.dtype == np.float32
        np.testing.assert_array_equal(back.values, cube.values)


def test_labels_round_trip_randomized(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(100):
        h, w = rng.integers(1, 9, size=2)
        lm = LabelMap(rng.integers(0, 7, size=(h, w)))
        path = tmp_path / f"labels_{i}.hsl"
        save_labels(lm, path)
        back = load_labels(path)
        np.testing.assert_array_equal(back.labels, lm.labels)


def test_cube_bad_magic_names_offset(tmp_path):
    path = tmp_path / "bad.hsc"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError, match="byte 0"):
        load_cube(path)


def test_cube_truncated_payload_diagnostic(tmp_path):
    # header declares 4x4x2 floats = 128 payload bytes; provide 100
    import struct

    path = tmp_path / "short.hsc"
    path.write_bytes(b"HSC1" + struct.pack("<III", 4, 4, 2) + b"\x00" * 100)
    with pytest.raises(FormatError, match="expected 128 bytes, found 100"):
        load_cube(path)


def test_cube_zero_extent_rejected(tmp_path):
    import struct

    path = tmp_path / "zero.hsc"
    path.write_bytes(b"HSC1" + struct.pack("<III", 2, 0, 3))
    with pytest.raises(FormatError, match="byte 8"):
        load_cube(path)


def test_cube_truncated_header(tmp_path):
    path = tmp_path / "tiny.hsc"
    path.write_bytes(b"HSC1\x02\x00")
    with pytest.raises(FormatError, match="truncated header"):
        load_cube(path)


def test_cube_nonfinite_rejected(tmp_path):
    import struct

    path = tmp_path / "nan.hsc"
    payload = np.array([1.0, np.nan], dtype="<f4").tobytes()
    path.write_bytes(b"HSC1" + struct.pack("<III", 1, 1, 2) + payload)
    with pytest.raises(FormatError, match="non-finite"):
        load_cube(path)


def test_labels_bad_magic_and_truncation(tmp_path):
    import struct

    bad = tmp_path / "bad.hsl"
    bad.write_bytes(b"ZZZZ" + b"\x00" * 12)
    with pytest.raises(FormatError, match="byte 0"):
        load_labels(bad)
    short = tmp_path / "short.hsl"
    short.write_bytes(b"HSL1" + struct.pack("<II", 3, 3) + b"\x00" * 10)
    with pytest.raises(FormatError, match="expected 18 bytes, found 10"):
        load_labels(short)


def test_cube_validation():
    with pytest.raises(ValueError):
        HSICube(np.ones((2, 2)))
    with pytest.raises(ValueError):
        HSICube(np.full((1, 1, 2), np.inf))


# -- synthetic scenes ---------------------------------------------------------


def test_synth_scene_deterministic():
    a_cube, a_labels = synth_scene(16, 16, 8, 3, noise_sigma=0.1, seed=7)
    b_cube, b_labels = synth_scene(16, 16, 8, 3, noise_sigma=0.1, seed=7)
    np.testing.assert_array_equal(a_cube.values, b_cube.values)
    np.testing.assert_array_equal(a_labels.labels, b_labels.labels)
    c_cube, _ = synth_scene(16, 16, 8, 3, noise_sigma=0.1, seed=8)
    assert not np.array_equal(a_cube.values, c_cube.values)


def test_synth_scene_noiseless_pixels_match_signature():
    cube, labels = synth_scene(12, 10, 6, 4, noise_sigma=0.0, seed=3)
    for cls in range(1, 5):
        spectra = cube.values[labels.labels == cls]
        assert len(spectra) > 0
        # with zero noise every pixel of a class is exactly its signature
        np.testing.assert_array_equal(spectra, np.broadcast_to(spectra[0], spectra.shape))


def test_synth_scene_signatures_distinct():
    cube, labels = synth_scene(32, 32, 16, 3, noise_sigma=0.0, seed=0)
    sigs = [cube.values[labels.labels == cls][0] for cls in range(1, 4)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(sigs[i] - sigs[j]) > 0


def test_synth_scene_every_pixel_labeled():
    _, labels = synth_scene(9, 11, 4, 5, seed=2)
    assert labels.labels.min() >= 1
    assert set(np.unique(labels.labels)) <= set(range(1, 6))


def test_synth_scene_infeasible_packing():
    with pytest.raises(ValueError, match="blob seeds"):
        synth_scene(2, 2, 4, 3, blob_count=2)
    with pytest.raises(ValueError):
        synth_scene(8, 8, 4, 1)
    with pytest.raises(ValueError):
        synth_scene(8, 8, 1, 2)


# -- window extraction ---------------------------------------------------------


def _mirror_oracle(values, row, col, size):
    """Gather one index at a time, reflecting at the edges."""
    h, w, _ = values.shape

    def fold(i, n):
        while not 0 <= i < n:
            if i < 0:
                i = -i - 1
            else:
                i = 2 * n - 1 - i
        return i

    out = np.zeros((size, size, values.shape[2]), dtype=np.float64)
    r0, c0 = row - size // 2, col - size // 2
    for a in range(size):
        for b in range(size):
            out[a, b] = values[fold(r0 + a, h), fold(c0 + b, w)]
    return out


def test_window_size_one_is_own_spectrum():
    cube, _ = synth_scene(8, 8, 5, 2, seed=1)
    np.testing.assert_array_equal(extract_window(cube, 3, 4, 1)[0, 0], cube.values[3, 4])


def test_window_corner_center_preserved():
    cube, _ = synth_scene(8, 8, 5, 2, seed=1)
    win = extract_window(cube, 0, 0, 3)
    np.testing.assert_array_equal(win[1, 1], cube.values[0, 0])
    # mirrored edge repeats the first row/col
    np.testing.assert_array_equal(win[0, 1], cube.values[0, 0])
    np.testing.assert_array_equal(win[1, 0], cube.values[0, 0])


def test_window_interior_equals_direct_slice():
    rng = np.random.default_rng(4)
    cube = HSICube(rng.standard_normal((32, 32, 4)).astype(np.float32))
    win = extract_window(cube, 5, 5, 14)
    # start = 5 - 14//2 = -2, so rows -2..11; compare the in-bounds part
    np.testing.assert_array_equal(win[2:, 2:], cube.values[0:12, 0:12])
    np.testing.assert_array_equal(win, _mirror_oracle(cube.values, 5, 5, 14))
    mid = extract_window(cube, 16, 16, 14)
    np.testing.assert_array_equal(mid, cube.values[9:23, 9:23])


def test_window_matches_oracle_exhaustively():
    rng = np.random.default_rng(5)
    cube = HSICube(rng.standard_normal((8, 8, 4)).astype(np.float32))
    for size in (1, 2, 3, 5, 8, 14, 16):
        for row in range(8):
            for col in range(8):
                got = extract_window(cube, row, col, size)
                np.testing.assert_array_equal(got, _mirror_oracle(cube.values, row, col, size))


def test_window_gathers_arrays_of_centers():
    rng = np.random.default_rng(6)
    cube = HSICube(rng.standard_normal((9, 7, 3)).astype(np.float32))
    rows = rng.integers(0, 9, size=(2, 5))
    cols = rng.integers(0, 7, size=(2, 5))
    got = extract_window(cube, rows, cols, 5)
    assert got.shape == (2, 5, 5, 5, 3) and got.dtype == np.float64
    for i in np.ndindex(rows.shape):
        np.testing.assert_array_equal(got[i], extract_window(cube, rows[i], cols[i], 5))
    empty = extract_window(cube, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 5)
    assert empty.shape == (0, 5, 5, 3)
    # the first center outside the scene is the one named
    with pytest.raises(ValueError, match=r"center \(9, 1\) outside a 9x7 scene"):
        extract_window(cube, np.array([0, 9, -1]), np.array([0, 1, 0]), 3)
    # centers broadcast: three rows against one column
    across = extract_window(cube, np.array([0, 4, 8]), 2, 3)
    for i, r in enumerate((0, 4, 8)):
        np.testing.assert_array_equal(across[i], extract_window(cube, r, 2, 3))
    with pytest.raises(ValueError, match="broadcast"):
        extract_window(cube, np.array([0, 1]), np.array([0, 1, 2]), 3)


def test_window_rejects_oversize_and_bad_center():
    cube, _ = synth_scene(8, 10, 4, 2, seed=0)
    with pytest.raises(ValueError, match="twice"):
        extract_window(cube, 0, 0, 17)
    with pytest.raises(ValueError):
        extract_window(cube, 8, 0, 3)
    with pytest.raises(ValueError):
        extract_window(cube, 0, 0, 0)


# -- stratified splits -----------------------------------------------------------


def _dense_labels(counts):
    """A 1-pixel-wide label map with the requested per-class pixel counts."""
    col = np.concatenate([np.full(n, cls) for cls, n in counts.items()])
    return LabelMap(col.reshape(-1, 1))


def test_split_exact_halves():
    labels = _dense_labels({1: 10})
    m = stratified_split(labels, (0.5, 0.0, 0.5), seed=0)
    assert m.counts() == (5, 0, 5)


def test_split_paper_fractions():
    labels = _dense_labels({1: 100, 2: 100})
    m = stratified_split(labels, (0.20, 0.05, 0.50), seed=0)
    assert m.counts() == (40, 10, 100)
    for cls in (1, 2):
        assert (m.train[:, 2] == cls).sum() == 20
        assert (m.val[:, 2] == cls).sum() == 5
        assert (m.test[:, 2] == cls).sum() == 50
    used = len(m.train) + len(m.val) + len(m.test)
    assert 200 - used == 50  # the deliberately unused 25%


def test_split_disjoint_and_labeled_only():
    _, labels = synth_scene(16, 16, 4, 4, seed=9)
    m = stratified_split(labels, (0.3, 0.2, 0.4), seed=1)
    seen = set()
    for part in (m.train, m.val, m.test):
        for r, c, y in part:
            assert (r, c) not in seen
            seen.add((r, c))
            assert labels.labels[r, c] == y
            assert y >= 1


def test_split_seed_changes_assignment_not_counts():
    _, labels = synth_scene(20, 20, 4, 3, seed=11)
    a = stratified_split(labels, (0.4, 0.1, 0.4), seed=1)
    b = stratified_split(labels, (0.4, 0.1, 0.4), seed=2)
    assert a.counts() == b.counts()
    for cls in range(1, 4):
        assert (a.train[:, 2] == cls).sum() == (b.train[:, 2] == cls).sum()
    assert not np.array_equal(a.train, b.train)
    a2 = stratified_split(labels, (0.4, 0.1, 0.4), seed=1)
    np.testing.assert_array_equal(a.train, a2.train)
    np.testing.assert_array_equal(a.test, a2.test)


def test_split_stratified_within_one_sample():
    rng = np.random.default_rng(12)
    counts = {cls: int(n) for cls, n in enumerate(rng.integers(9, 60, size=5), start=1)}
    labels = _dense_labels(counts)
    f = (0.33, 0.17, 0.41)
    m = stratified_split(labels, f, seed=3)
    for cls, n in counts.items():
        for part, frac in zip((m.train, m.val, m.test), f):
            got = (part[:, 2] == cls).sum()
            assert abs(got - frac * n) <= 1


def test_split_rejects_tiny_class_by_id():
    labels = _dense_labels({1: 50, 2: 2})
    with pytest.raises(ValueError, match="class 2"):
        stratified_split(labels, (0.4, 0.2, 0.4), seed=0)


def test_split_rejects_bad_fractions():
    labels = _dense_labels({1: 10})
    with pytest.raises(ValueError):
        stratified_split(labels, (0.6, 0.2, 0.4), seed=0)
    with pytest.raises(ValueError):
        stratified_split(labels, (-0.1, 0.5, 0.5), seed=0)
    with pytest.raises(ValueError):
        stratified_split(labels, (0.5, 0.5), seed=0)


# -- manifest text ---------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    _, labels = synth_scene(12, 12, 4, 3, seed=5)
    m = stratified_split(labels, (0.2, 0.1, 0.5), seed=4)
    path = tmp_path / "split.txt"
    save_manifest(m, path)
    back = load_manifest(path)
    np.testing.assert_array_equal(back.train, m.train)
    np.testing.assert_array_equal(back.val, m.val)
    np.testing.assert_array_equal(back.test, m.test)
    assert manifest_sha256(back) == manifest_sha256(m)


def test_manifest_text_format():
    _, labels = synth_scene(6, 6, 4, 2, seed=6)
    m = stratified_split(labels, (0.5, 0.0, 0.5), seed=0)
    lines = manifest_text(m).strip().split("\n")
    assert len(lines) == len(m.train) + len(m.test)
    for line in lines:
        split, r, c, y = line.split(",")
        assert split in ("train", "val", "test")
        assert labels.labels[int(r), int(c)] == int(y)


def test_manifest_hash_tracks_content():
    _, labels = synth_scene(12, 12, 4, 3, seed=5)
    a = stratified_split(labels, (0.2, 0.1, 0.5), seed=4)
    b = stratified_split(labels, (0.2, 0.1, 0.5), seed=5)
    assert manifest_sha256(a) != manifest_sha256(b)


def test_manifest_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("train,1,2,3\nvalidation,0,0,1\n")
    with pytest.raises(FormatError, match="line 2"):
        load_manifest(path)
    path.write_text("train,1,x,3\n")
    with pytest.raises(FormatError, match="line 1"):
        load_manifest(path)
    path.write_text("train,1,2,0\n")
    with pytest.raises(ValueError, match="class 0"):
        load_manifest(path)


def test_manifest_rejects_negative_coordinates(tmp_path):
    from memformer.data import SplitManifest

    path = tmp_path / "negative.txt"
    path.write_text("train,-1,0,1\n")
    with pytest.raises(FormatError, match="line 1"):
        load_manifest(path)
    path.write_text("train,0,0,1\ntest,0,-2,1\n")
    with pytest.raises(FormatError, match="line 2"):
        load_manifest(path)
    for row in ([-1, 0, 1], [0, -2, 1]):
        with pytest.raises(ValueError, match="negative"):
            SplitManifest(train=np.array([row]), val=np.zeros((0, 3)), test=np.zeros((0, 3)))


@pytest.mark.parametrize(
    "text, what",
    [
        (b"train,0,0,1\ntrain,1,2,0\n", "class 0"),
        (b"train,0,0,1\ntrain,99999999999999999999,0,1\n", "64-bit"),
        (b"train,0,0,1\ntrain,0,0,2\n", "line 1"),
        (b"train,0,0,1\ntest,1,\xff,1\n", "UTF-8"),
    ],
    ids=["class_zero", "int64_overflow", "pixel_in_two_splits", "non_utf8"],
)
def test_manifest_fault_names_path_and_line(tmp_path, text, what):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(FormatError, match="line 2") as info:
        load_manifest(path)
    assert str(path) in str(info.value)
    assert what in str(info.value)


def test_manifest_rejects_overlap():
    from memformer.data import SplitManifest

    with pytest.raises(ValueError, match="overlap"):
        SplitManifest(
            train=np.array([[0, 0, 1]]),
            val=np.array([[0, 0, 1]]),
            test=np.zeros((0, 3), dtype=np.int64),
        )
