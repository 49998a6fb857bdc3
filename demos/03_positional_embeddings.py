"""Compare the four positional-embedding modes on one token grid and look
inside the joint spatial-spectral encoding.
"""

import numpy as np

from memformer.data import synth_scene
from memformer.embedding import (
    PatchProjector,
    PositionalEmbedding,
    sinusoid_encoding,
    tokenize_batch,
)

rng = np.random.default_rng(3)
cube, _ = synth_scene(16, 16, 6, 2, seed=1)
window = cube.values[:8, :8, :].astype(np.float64)

print("== tokenizing an 8x8 window into 2x2 patches ==")
tokens = tokenize_batch(window[None], 2)
grid = 8 // 2
print(f"{tokens.shape[1]} tokens, each {tokens.shape[2:]}; token i sits at grid cell divmod(i, {grid}):")
print(np.stack(divmod(np.arange(tokens.shape[1]), grid)))

print("\n== patch projection ==")
projector = PatchProjector(16, 2, 6, rng)
z = projector.forward(tokens)
print(f"projected batch shape: {z.shape} (ReLU output, so min = {z.data.min():.3f})")

print("\n== the four embedding modes ==")
for mode in ("none", "learnable", "sinusoidal1d", "sspe"):
    pe = PositionalEmbedding(mode, 16, grid, np.random.default_rng(5))
    table = pe.forward(tokens)
    row0 = table.data[0] if table.data.ndim == 2 else table.data[0, 0]
    body = table.data[1:] if table.data.ndim == 2 else table.data[0, 1:]
    print(
        f"  {mode:12s} shape {str(table.shape):14s} "
        f"cls row zero: {bool(np.all(row0 == 0))}, body norm {np.linalg.norm(body):.3f}"
    )

print("\n== sinusoid schedule ==")
enc = sinusoid_encoding(np.array([0.0, 1.0, 2.0]), 6)
print("positions 0..2, one row each of interleaved sin/cos pairs:")
print(np.round(enc, 4))

print("\n== spectral half of the joint mode reacts to band content ==")
pe = PositionalEmbedding("sspe", 16, grid, np.random.default_rng(5))
flat = np.ones_like(tokens)  # uniform band energy
spiky = tokens * np.eye(6)[0]  # all energy in band 0
uniform_out = pe.forward(flat).data
spiky_out = pe.forward(spiky).data
delta = np.abs(uniform_out - spiky_out).max()
print(f"changing the band profile moves the embedding by up to {delta:.4f}")
assert delta > 0
