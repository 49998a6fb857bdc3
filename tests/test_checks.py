"""One rule for every size, rate and fraction argument of data, embedding,
attention and metrics: a float, a bool, a size below its minimum or (for rates
and fractions) NaN raises a ``ValueError`` that names the argument. One rule
for every integer array (labels, manifest triples, window centres): a float
or bool array is refused by name, not cast."""

import math
import re

import numpy as np
import pytest

from memformer import autodiff as ad
from memformer.attention import MemoryAttention, StandardAttention, attend
from memformer.data import LabelMap, SplitManifest, extract_window, stratified_split, synth_scene
from memformer.embedding import PatchProjector, PositionalEmbedding, sinusoid_encoding, tokenize_batch
from memformer.metrics import confusion_matrix


def _rng():
    return np.random.default_rng(0)


def _labels():
    return LabelMap(np.repeat([1, 2], 10).reshape(-1, 1))


def _attend(heads):
    q = ad.constant(np.zeros((1, 2, 8)))
    bank = ad.constant(np.zeros((1, 3, 8)))
    return attend(q, bank, bank, heads)


# where -> (argument name, call with the argument set to a value, a valid
# value); the bad float of a size is integral, so only its type is wrong
_SIZES = {
    "synth_scene-height": ("height", lambda v: synth_scene(v, 8, 4, 2), 8),
    "synth_scene-width": ("width", lambda v: synth_scene(8, v, 4, 2), 8),
    "synth_scene-classes": ("classes", lambda v: synth_scene(8, 8, 4, v), 2),
    "synth_scene-bands": ("bands", lambda v: synth_scene(8, 8, v, 2), 4),
    "synth_scene-blob_count": ("blob_count", lambda v: synth_scene(8, 8, 4, 2, blob_count=v), 2),
    "extract_window-size": ("size", lambda v: extract_window(synth_scene(8, 8, 4, 2)[0], 1, 2, v), 3),
    "tokenize_batch-patch_side": ("patch_side", lambda v: tokenize_batch(np.zeros((1, 4, 4, 3)), v), 2),
    "PatchProjector-embed_dim": ("embed_dim", lambda v: PatchProjector(v, 2, 3, _rng()), 8),
    "PatchProjector-patch_side": ("patch_side", lambda v: PatchProjector(8, v, 3, _rng()), 2),
    "PatchProjector-bands": ("bands", lambda v: PatchProjector(8, 2, v, _rng()), 3),
    "PositionalEmbedding-embed_dim": ("embed_dim", lambda v: PositionalEmbedding("sspe", v, 2, 3, _rng()), 4),
    "PositionalEmbedding-grid": ("grid", lambda v: PositionalEmbedding("none", 4, v, 3, _rng()), 2),
    "PositionalEmbedding-bands": ("bands", lambda v: PositionalEmbedding("sspe", 4, 2, v, _rng()), 3),
    "sinusoid_encoding-dim": ("dim", lambda v: sinusoid_encoding(0.5, v), 4),
    "attend-heads": ("heads", _attend, 2),
    "StandardAttention-heads": ("heads", lambda v: StandardAttention(8, v, _rng(), 0.1), 2),
    "StandardAttention-embed_dim": ("embed_dim", lambda v: StandardAttention(v, 2, _rng(), 0.1), 8),
    "MemoryAttention-heads": ("heads", lambda v: MemoryAttention(8, v, 2, _rng(), 0.1), 2),
    "MemoryAttention-embed_dim": ("embed_dim", lambda v: MemoryAttention(v, 2, 2, _rng(), 0.1), 8),
    "MemoryAttention-capacity": ("capacity", lambda v: MemoryAttention(8, 2, v, _rng(), 0.1), 2),
    "confusion_matrix-num_classes": ("num_classes", lambda v: confusion_matrix([0, 1], [1, 1], v), 2),
}
_RATES = {
    "synth_scene-noise_sigma": ("noise_sigma", lambda v: synth_scene(8, 8, 4, 2, noise_sigma=v), 0.05),
    "stratified_split-train": ("train fraction", lambda v: stratified_split(_labels(), (v, 0.1, 0.1), 0), 0.5),
    "stratified_split-val": ("val fraction", lambda v: stratified_split(_labels(), (0.1, v, 0.1), 0), 0.5),
    "stratified_split-test": ("test fraction", lambda v: stratified_split(_labels(), (0.1, 0.1, v), 0), 0.5),
}
_CASES = [
    pytest.param(name, call, good, bad, id=f"{where}-{bad!r}")
    for table, bads in ((_SIZES, lambda good: (float(good), True)), (_RATES, lambda good: (True, math.nan)))
    for where, (name, call, good) in table.items()
    for bad in bads(good)
] + [
    # a zero the positional arithmetic would divide by or build an empty table from
    pytest.param(*_SIZES[where], 0, id=f"{where}-0")
    for where in ("PositionalEmbedding-embed_dim", "PositionalEmbedding-grid")
]


@pytest.mark.parametrize("name, call, good, bad", _CASES)
def test_a_size_or_rate_of_the_wrong_kind_raises_naming_it(name, call, good, bad):
    call(good)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be"):
        call(bad)


def _window_at_row(row):
    return extract_window(synth_scene(8, 8, 4, 2)[0], row, 2, 3)


# where -> (argument name, call with the argument set to a value, a valid
# value, a value of the wrong dtype that a cast to int64 would truncate)
_INT_ARRAYS = {
    "cross_entropy-labels": ("labels", lambda v: ad.cross_entropy(np.zeros((2, 3)), v), [0, 2], [0.9, 2.7]),
    "SplitManifest-triple": ("train split", lambda v: SplitManifest(v, [], []), [1, 2, 1], [1.5, 2.2, 1.9]),
    "extract_window-bool-centre": ("row", _window_at_row, 1, True),
    "extract_window-float-centre": ("row", _window_at_row, 1, 1.5),
}


@pytest.mark.parametrize("name, call, good, bad", list(_INT_ARRAYS.values()), ids=list(_INT_ARRAYS))
def test_an_integer_array_of_the_wrong_dtype_raises_naming_it(name, call, good, bad):
    call(good)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be integers, got dtype"):
        call(bad)
