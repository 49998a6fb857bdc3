"""Property-based fuzzing of the four file parsers.

Mutated bytes of a valid HSC1 cube, HSL1 label map, split manifest or MFCK
checkpoint either load or raise the parser's typed error, never another
exception. A manifest or config file error names a line the file has.
Valid objects round-trip bitwise. ``tests/conftest.py`` fixes the
example set, so every run checks the same inputs.
"""

import re

import numpy as np
import pytest

from memformer.data import (
    FormatError,
    HSICube,
    LabelMap,
    SplitManifest,
    load_cube,
    load_labels,
    load_manifest,
    manifest_text,
    save_cube,
    save_labels,
    save_manifest,
    stratified_split,
    synth_scene,
)
from memformer.harness import parse_config_file
from memformer.model import (
    CheckpointError,
    MemFormer,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
hnp = pytest.importorskip("hypothesis.extra.numpy")
given = hypothesis.given

_CUBE, _LABELS = synth_scene(4, 3, 2, 2, seed=0)
_MANIFEST = stratified_split(_LABELS, (0.4, 0.2, 0.4), seed=0)
_TINY = dict(window=2, patch=1, bands=2, embed=4, layers=1, heads=1, ffn=4, memory=1, classes=2)
# the nine u32 model sizes of the MFCK config block, left as written by the fuzz
_MFCK_SIZES = range(6, 6 + 4 * 9)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _valid_bytes(save, obj, path):
    save(obj, path)
    return path.read_bytes()


def _valid_mfck(path):
    model = MemFormer(ModelConfig(**_TINY))
    for name, bank in model.buffers().items():
        model.set_buffer(name, np.full(bank.shape, 0.5))
    return _valid_bytes(save_checkpoint, model, path)


@st.composite
def _mutated(draw, blob, frozen=()):
    """``blob`` with a few bytes overwritten, then cut short or extended.

    Offsets in ``frozen`` keep their bytes.
    """
    data = bytearray(blob)
    offsets = st.integers(0, len(blob) - 1).filter(lambda i: i not in frozen)
    for offset, value in draw(st.lists(st.tuples(offsets, st.integers(0, 255)), max_size=6)):
        data[offset] = value
    cut = draw(st.one_of(st.just(len(data)), st.integers(0, len(data))))
    return bytes(data[:cut]) + draw(st.binary(max_size=12))


def _load_or_typed_error(load, path, blob, error):
    path.write_bytes(blob)
    try:
        load(path)
    except error as e:
        assert str(path) in str(e)


# -- mutated bytes raise only typed errors ------------------------------------------


@given(data=st.data())
def test_fuzz_cube_bytes(scratch, data):
    blob = _valid_bytes(save_cube, _CUBE, scratch / "valid.hsc")
    _load_or_typed_error(load_cube, scratch / "fuzz.hsc", data.draw(_mutated(blob)), FormatError)


@given(data=st.data())
def test_fuzz_label_bytes(scratch, data):
    blob = _valid_bytes(save_labels, _LABELS, scratch / "valid.hsl")
    _load_or_typed_error(load_labels, scratch / "fuzz.hsl", data.draw(_mutated(blob)), FormatError)


@given(data=st.data())
def test_fuzz_manifest_bytes(scratch, data):
    blob = _valid_bytes(save_manifest, _MANIFEST, scratch / "valid.txt")
    _load_or_typed_error(load_manifest, scratch / "fuzz.txt", data.draw(_mutated(blob)), FormatError)


@given(data=st.data())
def test_fuzz_checkpoint_bytes(scratch, data):
    # The model sizes stay as written: the loader builds the model the config
    # asks for before it compares records, so a mutated size could ask for
    # gigabytes. Every other byte, the rest of the config block included, is
    # fair game.
    blob = _valid_mfck(scratch / "valid.mfck")
    mutated = data.draw(_mutated(blob, frozen=_MFCK_SIZES))
    _load_or_typed_error(load_checkpoint, scratch / "fuzz.mfck", mutated, CheckpointError)


# everything str.splitlines breaks at; of these only a line feed ends a line
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def _text_file(draw, lines):
    """``lines`` drawn in any order, each ended by any separator, UTF-8
    encoded, then maybe one byte that is not UTF-8."""
    parts = draw(st.lists(st.tuples(st.sampled_from(lines), st.sampled_from(_SEPARATORS)), max_size=8))
    return "".join(line + sep for line, sep in parts).encode() + draw(st.sampled_from([b"", b"\xff"]))


@pytest.mark.parametrize(
    "load, lines",
    [
        (load_manifest, ["train,0,0,1", "val,1,2,2", "test,0,0,1", "train,x,0,1", "bad", ""]),
        (parse_config_file, ["window = 4", "lr = 0.1", "# note", "warmup = 1", "epochs = soon", ""]),
    ],
    ids=["manifest", "config"],
)
@given(data=st.data())
def test_text_errors_name_a_line_of_the_file(scratch, load, lines, data):
    blob = data.draw(_text_file(lines))
    path = scratch / "text.txt"
    path.write_bytes(blob)
    try:
        load(path)
    except ValueError as e:  # FormatError is a ValueError
        named = [int(n) for n in re.findall(r"line (\d+)", str(e))]
        assert named and max(named) <= blob.count(b"\n") + 1


# -- valid objects round-trip bitwise ---------------------------------------------

_extents = st.integers(1, 4)
_finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@given(hnp.arrays(np.float32, st.tuples(_extents, _extents, _extents), elements=_finite32))
def test_cube_round_trip_bitwise(scratch, values):
    path = scratch / "round.hsc"
    save_cube(HSICube(values), path)
    assert load_cube(path).values.tobytes() == values.tobytes()


@given(hnp.arrays(np.uint16, st.tuples(_extents, _extents)))
def test_labels_round_trip_bitwise(scratch, labels):
    path = scratch / "round.hsl"
    save_labels(LabelMap(labels), path)
    back = load_labels(path).labels
    assert back.dtype == np.uint16 and back.tobytes() == labels.tobytes()


_int64 = st.integers(0, np.iinfo(np.int64).max)


@given(
    st.dictionaries(
        st.tuples(_int64, _int64),
        st.tuples(st.sampled_from(["train", "val", "test"]), st.integers(1, np.iinfo(np.int64).max)),
        max_size=12,
    )
)
def test_manifest_round_trip_bitwise(scratch, assignments):
    parts = {"train": [], "val": [], "test": []}
    for (row, col), (split, cls) in assignments.items():
        parts[split].append((row, col, cls))
    manifest = SplitManifest(**parts)
    path = scratch / "round.txt"
    save_manifest(manifest, path)
    back = load_manifest(path)
    for split in parts:
        np.testing.assert_array_equal(getattr(back, split), getattr(manifest, split))
    assert manifest_text(back) == manifest_text(manifest)


@hypothesis.settings(max_examples=20)
@given(
    pe_mode=st.sampled_from(["none", "learnable", "sinusoidal1d", "sspe"]),
    attention=st.sampled_from(["memory", "standard"]),
    seed=st.integers(0, 2**63 - 1),
    scale=st.sampled_from([1.0, -0.0, 5e-324, 1e300]),
)
def test_checkpoint_round_trip_bitwise(scratch, pe_mode, attention, seed, scale):
    model = MemFormer(ModelConfig(**_TINY, pe_mode=pe_mode, attention=attention, seed=seed))
    rng = np.random.default_rng(seed)
    for p in model.parameters().values():
        p.data = rng.standard_normal(p.data.shape) * scale
    for name, bank in model.buffers().items():
        model.set_buffer(name, rng.standard_normal(bank.shape) * scale)
    first, second = scratch / "round.mfck", scratch / "again.mfck"
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    assert second.read_bytes() == first.read_bytes()
