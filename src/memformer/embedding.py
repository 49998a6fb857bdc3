"""Window tokenization, patch projection, and positional embeddings.

A W_s x W_s x S sample window is cut into a row-major grid of g x g
sub-patches (tokens) of w x w x S, each projected to a K-vector by a shared
ReLU convolution kernel. Four positional embedding modes are provided:

* ``none``: all zeros.
* ``learnable``: a free N x K table.
* ``sinusoidal1d``: the standard interleaved sin/cos of the flat token index.
* ``sspe``: joint spatial-spectral encoding. Token i sits at grid cell
  divmod(i, g), whose row and column get interleaved sinusoids (row half then
  column half); the token's mean absolute band energies weight per-band
  sinusoids; both are projected to K and fused by a small MLP.

Every mode gives one row per token and none for the CLS token, which the
model prepends after adding them. The constant tables (the ``none`` and
``sinusoidal1d`` rows, the sspe grid and band-index sinusoids) are built
once, read-only, at construction.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = [
    "tokenize_batch",
    "PatchProjector",
    "sinusoid_encoding",
    "sspe_spatial",
    "PositionalEmbedding",
    "PE_MODES",
]

PE_MODES = ("none", "learnable", "sinusoidal1d", "sspe")

# base of every geometric frequency schedule
WAVELENGTH = 10000.0


def tokenize_batch(windows, patch_side):
    """Split a (B, W_s, W_s, S) stack of windows into row-major sub-patch grids.

    Returns the (B, N, w, w, S) tokens, N = (W_s/w)^2; token i of a window is
    the sub-patch at grid cell divmod(i, W_s/w).
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 4 or windows.shape[1] != windows.shape[2]:
        raise ValueError(f"expected (B, W_s, W_s, S) windows, got {windows.shape}")
    b, side = windows.shape[0], windows.shape[1]
    w = int(patch_side)
    if w < 1 or side % w != 0:
        raise ValueError(f"patch side {w} must divide the window side {side}")
    g = side // w
    return (
        windows.reshape(b, g, w, g, w, -1)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(b, g * g, w, w, -1)
    )


class PatchProjector:
    """Shared linear map + ReLU from flattened sub-patches to K-vectors."""

    def __init__(self, embed_dim, patch_side, bands, rng):
        if min(embed_dim, patch_side, bands) < 1:
            raise ValueError("embed_dim, patch_side, and bands must all be >= 1")
        self.embed_dim = embed_dim
        self.patch_side = patch_side
        self.bands = bands
        fan_in = patch_side * patch_side * bands
        self.kernel = ad.glorot_uniform(
            rng, (embed_dim, patch_side, patch_side, bands), fan_in=fan_in, fan_out=embed_dim
        )
        self.bias = ad.parameter(np.zeros(embed_dim))

    def forward(self, tokens):
        """(..., N, w, w, S) array of tokens -> (..., N, K) nonnegative embeddings."""
        tokens = ad.constant(np.asarray(tokens, dtype=np.float64))
        w, s = self.patch_side, self.bands
        if tokens.shape[-3:] != (w, w, s):
            raise ValueError(f"tokens must end in ({w}, {w}, {s}), got {tokens.shape}")
        flat = ad.reshape(tokens, tokens.shape[:-3] + (w * w * s,))
        weight = ad.transpose(ad.reshape(self.kernel, (self.embed_dim, w * w * s)), (1, 0))
        return ad.relu(ad.affine(flat, weight, self.bias))

    def parameters(self):
        return {"projector.kernel": self.kernel, "projector.bias": self.bias}


def sinusoid_encoding(position, dim, schedule_dim=None):
    """Interleaved sin/cos of ``position`` over dim/2 geometric frequencies.

    ``position`` is a scalar or an array; the result has shape
    ``np.shape(position) + (dim,)``. Entry 2j is
    sin(position / WAVELENGTH^(2j/schedule_dim)), entry 2j+1 the matching
    cos; ``schedule_dim`` defaults to ``dim``.
    """
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"encoding dim must be even and >= 2, got {dim}")
    schedule_dim = dim if schedule_dim is None else schedule_dim
    j = np.arange(dim // 2)
    angle = np.asarray(position, dtype=np.float64)[..., None] / np.power(
        WAVELENGTH, 2.0 * j / float(schedule_dim)
    )
    out = np.empty(angle.shape[:-1] + (dim,))
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return out


def _sspe_dims(embed_dim):
    """(K_s, K_sigma): the raw spatial and spectral widths for K = embed_dim.

    The x and y halves must each hold whole sin/cos pairs, so K_s is K rounded
    up to a multiple of 4; K_sigma is K rounded up to a multiple of 2.
    """
    return 4 * ((embed_dim + 3) // 4), 2 * ((embed_dim + 1) // 2)


def sspe_spatial(x, y, embed_dim):
    """K_s-vectors: sinusoids of grid x over the first half, of y over the second.

    ``x`` and ``y`` are scalars or arrays of one shape; the result is
    (..., K_s). Both halves use the frequency schedule over K.
    """
    half = _sspe_dims(embed_dim)[0] // 2
    return np.concatenate(
        [sinusoid_encoding(x, half, embed_dim), sinusoid_encoding(y, half, embed_dim)], axis=-1
    )


def _band_weights(profiles):
    """Each (..., S) band profile normalized to sum 1; all-zero ones become uniform."""
    totals = profiles.sum(axis=-1, keepdims=True)
    return np.where(totals == 0, 1.0 / profiles.shape[-1], profiles / np.where(totals == 0, 1.0, totals))


class PositionalEmbedding:
    """One of the four positional modes over a grid x grid token layout.

    ``forward`` takes the (B, N, w, w, S) tokens and returns one row per
    token: an (N, K) table for the data-independent modes and (B, N, K) for
    sspe, whose spectral half depends on each token's band energies. The
    CLS row gets no positional row; the model prepends it afterwards. The
    sspe raw spatial (K_s) and spectral (K_sigma) features are projected to
    K and fused by an affine(2K -> K) + ReLU + affine(K -> K) MLP.
    """

    def __init__(self, mode, embed_dim, grid, bands, rng):
        if mode not in PE_MODES:
            raise ValueError(f"unknown positional mode {mode!r}, expected one of {PE_MODES}")
        self.mode = mode
        self.num_tokens = n = grid * grid
        self.bands = bands
        self.fixed = None
        self.spatial = None
        self.band_table = None
        self._params = {}
        if mode == "learnable":
            self._params["pos.table"] = ad.glorot_uniform(rng, (n, embed_dim))
        elif mode == "sspe":
            k_s, k_sigma = _sspe_dims(embed_dim)
            self._params = {
                "sspe.proj_spatial": ad.glorot_uniform(rng, (k_s, embed_dim)),
                "sspe.proj_spectral": ad.glorot_uniform(rng, (k_sigma, embed_dim)),
                "sspe.fuse_w1": ad.glorot_uniform(rng, (2 * embed_dim, embed_dim)),
                "sspe.fuse_b1": ad.parameter(np.zeros(embed_dim)),
                "sspe.fuse_w2": ad.glorot_uniform(rng, (embed_dim, embed_dim)),
                "sspe.fuse_b2": ad.parameter(np.zeros(embed_dim)),
            }
            # (N, K_s) grid sinusoids of token i at row-major cell divmod(i, grid)
            self.spatial = sspe_spatial(*divmod(np.arange(n), grid), embed_dim)
            self.spatial.flags.writeable = False
            # (S, K_sigma) sinusoids of each band index
            self.band_table = sinusoid_encoding(np.arange(bands), k_sigma, embed_dim)
            self.band_table.flags.writeable = False
        else:
            self.fixed = np.zeros((n, embed_dim))
            if mode == "sinusoidal1d":
                dim = 2 * ((embed_dim + 1) // 2)
                self.fixed[:] = sinusoid_encoding(np.arange(n), dim)[:, :embed_dim]
            self.fixed.flags.writeable = False

    def parameters(self):
        return dict(self._params)

    def forward(self, tokens):
        """Positional rows for a (B, N, w, w, S) token batch."""
        shape = np.shape(tokens)
        n = self.num_tokens
        if len(shape) != 5 or shape[1] != n or shape[4] != self.bands:
            raise ValueError(f"expected (batch, {n}, w, w, {self.bands}) tokens, got shape {shape}")
        if self.fixed is not None:
            return ad.constant(self.fixed)
        p = self._params
        if self.mode == "learnable":
            return p["pos.table"]

        spatial = np.broadcast_to(self.spatial, (shape[0],) + self.spatial.shape)
        spa = ad.matmul(ad.constant(spatial), p["sspe.proj_spatial"])
        # K_sigma-vectors: each token's band energies weighting the band sinusoids
        spectral = _band_weights(np.abs(tokens).mean(axis=(2, 3))) @ self.band_table
        spe = ad.matmul(ad.constant(spectral), p["sspe.proj_spectral"])
        joint = ad.concat([spa, spe], axis=-1)
        return ad._mlp(joint, p["sspe.fuse_w1"], p["sspe.fuse_b1"], p["sspe.fuse_w2"], p["sspe.fuse_b2"])
