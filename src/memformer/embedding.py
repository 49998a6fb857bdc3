"""Window tokenization, patch projection, and positional embeddings.

A W_s x W_s x S sample window is cut into an exact grid of w x w x S
sub-patches (tokens), each projected to a K-vector by a shared ReLU
convolution kernel. Four positional embedding modes are provided:

* ``none``: all zeros.
* ``learnable``: a free N x K table.
* ``sinusoidal1d``: the standard interleaved sin/cos of the flat token index.
* ``sspe``: joint spatial-spectral encoding. Grid coordinates get interleaved
  sinusoids (x half then y half); the token's spectral content gets per-band
  sinusoids mixed by energy weights; both are projected to K and fused by a
  small MLP.

Every mode leaves row 0, the CLS position, at zero.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = [
    "tokenize_batch",
    "PatchProjector",
    "SSPEConfig",
    "sinusoid_encoding",
    "sspe_spatial",
    "sspe_spectral",
    "PositionalEmbedding",
    "PE_MODES",
]

PE_MODES = ("none", "learnable", "sinusoidal1d", "sspe")

# base of every geometric frequency schedule
WAVELENGTH = 10000.0


def tokenize_batch(windows, patch_side):
    """Split a (B, W_s, W_s, S) stack of windows into row-major sub-patch grids.

    Returns ``(tokens, coords)``: tokens is (B, N, w, w, S) with
    N = (W_s/w)^2, coords is the (N, 2) grid index (row, col) of each token
    in enumeration order, shared by every window.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 4 or windows.shape[1] != windows.shape[2]:
        raise ValueError(f"expected (B, W_s, W_s, S) windows, got {windows.shape}")
    b, side = windows.shape[0], windows.shape[1]
    w = int(patch_side)
    if w < 1 or side % w != 0:
        raise ValueError(f"patch side {w} must divide the window side {side}")
    g = side // w
    tokens = (
        windows.reshape(b, g, w, g, w, -1)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(b, g * g, w, w, -1)
    )
    gx, gy = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    coords = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return tokens, coords


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
        """(..., N, w, w, S) tokens -> (..., N, K) nonnegative embeddings."""
        if isinstance(tokens, ad.Tensor):
            data_shape = tokens.shape
        else:
            tokens = ad.constant(np.asarray(tokens, dtype=np.float64))
            data_shape = tokens.shape
        w, s = self.patch_side, self.bands
        if data_shape[-3:] != (w, w, s):
            raise ValueError(f"tokens must end in ({w}, {w}, {s}), got {data_shape}")
        flat = ad.reshape(tokens, data_shape[:-3] + (w * w * s,))
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


class SSPEConfig:
    """Widths and trainable pieces of the joint spatial-spectral encoding.

    Spatial and spectral sinusoids share one frequency schedule over K. The
    raw spatial (K_s) and spectral (K_sigma) features are projected to K and
    fused by an affine(2K -> K) + ReLU + affine(K -> K) MLP.
    """

    def __init__(self, embed_dim, rng):
        if embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        self.embed_dim = embed_dim
        # x and y halves must each hold whole sin/cos pairs, so the spatial
        # width is K rounded up to a multiple of 4; spectral to a multiple of 2
        self.spatial_dim = 4 * ((embed_dim + 3) // 4)
        self.spectral_dim = 2 * ((embed_dim + 1) // 2)
        self.proj_spatial = ad.glorot_uniform(rng, (self.spatial_dim, embed_dim))
        self.proj_spectral = ad.glorot_uniform(rng, (self.spectral_dim, embed_dim))
        self.fuse_w1 = ad.glorot_uniform(rng, (2 * embed_dim, embed_dim))
        self.fuse_b1 = ad.parameter(np.zeros(embed_dim))
        self.fuse_w2 = ad.glorot_uniform(rng, (embed_dim, embed_dim))
        self.fuse_b2 = ad.parameter(np.zeros(embed_dim))

    def parameters(self):
        return {
            "sspe.proj_spatial": self.proj_spatial,
            "sspe.proj_spectral": self.proj_spectral,
            "sspe.fuse_w1": self.fuse_w1,
            "sspe.fuse_b1": self.fuse_b1,
            "sspe.fuse_w2": self.fuse_w2,
            "sspe.fuse_b2": self.fuse_b2,
        }


def sspe_spatial(x, y, cfg):
    """K_s-vectors: sinusoids of grid x over the first half, of y over the second.

    ``x`` and ``y`` are scalars or arrays of one shape; the result is
    (..., K_s).
    """
    half = cfg.spatial_dim // 2
    return np.concatenate(
        [sinusoid_encoding(x, half, cfg.embed_dim), sinusoid_encoding(y, half, cfg.embed_dim)],
        axis=-1,
    )


def sspe_spectral(profiles, cfg):
    """K_sigma-vectors: energy-weighted mixtures of per-band-index sinusoids.

    ``profiles`` is (..., S) nonnegative band energies; the result is
    (..., K_sigma). Weights are each profile normalized to sum 1; an all-zero
    profile falls back to uniform weights.
    """
    profiles = np.asarray(profiles, dtype=np.float64)
    if profiles.ndim < 1:
        raise ValueError(f"band profiles need a band axis, got shape {profiles.shape}")
    if (profiles < 0).any():
        raise ValueError("band profile entries must be >= 0")
    bands = profiles.shape[-1]
    totals = profiles.sum(axis=-1, keepdims=True)
    weights = np.where(totals == 0, 1.0 / bands, profiles / np.where(totals == 0, 1.0, totals))
    return weights @ sinusoid_encoding(np.arange(bands), cfg.spectral_dim, cfg.embed_dim)


class PositionalEmbedding:
    """One of the four positional modes, emitting an (N+1) x K addend.

    Row 0 is the CLS position and is zero in every mode. ``forward`` returns
    (N+1, K) for data-independent modes and (B, N+1, K) for sspe, whose
    spectral half depends on each sample's band energies.
    """

    def __init__(self, mode, embed_dim, num_tokens, rng):
        if mode not in PE_MODES:
            raise ValueError(f"unknown positional mode {mode!r}, expected one of {PE_MODES}")
        self.mode = mode
        self.embed_dim = embed_dim
        self.num_tokens = num_tokens
        self.table = None
        self.sspe = None
        self.fixed = None
        if mode == "learnable":
            self.table = ad.glorot_uniform(rng, (num_tokens, embed_dim))
        elif mode == "sspe":
            self.sspe = SSPEConfig(embed_dim, rng)
        else:
            # none and sinusoidal1d are constant tables, built once
            self.fixed = np.zeros((num_tokens + 1, embed_dim))
            if mode == "sinusoidal1d":
                dim = 2 * ((embed_dim + 1) // 2)
                self.fixed[1:] = sinusoid_encoding(np.arange(num_tokens), dim)[:, :embed_dim]
            self.fixed.flags.writeable = False

    def parameters(self):
        if self.mode == "learnable":
            return {"pos.table": self.table}
        if self.mode == "sspe":
            return self.sspe.parameters()
        return {}

    def forward(self, coords, band_profiles=None):
        """Positional rows for tokens at ``coords``.

        ``band_profiles`` is (B, N, S) nonnegative energies, required by the
        sspe mode and ignored elsewhere.
        """
        n = self.num_tokens
        if len(coords) != n:
            raise ValueError(f"expected {n} token coordinates, got {len(coords)}")
        if self.fixed is not None:
            return ad.constant(self.fixed)
        if self.mode == "learnable":
            zero = ad.constant(np.zeros((1, self.embed_dim)))
            return ad.concat([zero, self.table], axis=0)
        return self._forward_sspe(coords, band_profiles)

    def _forward_sspe(self, coords, band_profiles):
        cfg = self.sspe
        if band_profiles is None:
            raise ValueError("sspe mode needs per-token band profiles")
        profiles = np.asarray(band_profiles, dtype=np.float64)
        if profiles.ndim != 3:
            raise ValueError(f"sspe band profiles must be (batch, tokens, bands), got shape {profiles.shape}")
        b, n, _ = profiles.shape
        if n != self.num_tokens:
            raise ValueError(f"expected {self.num_tokens} profiles per sample, got {n}")

        coords = np.asarray(coords)
        spatial = sspe_spatial(coords[:, 0], coords[:, 1], cfg)
        spa = ad.matmul(ad.constant(np.broadcast_to(spatial, (b, n, cfg.spatial_dim)).copy()), cfg.proj_spatial)
        spe = ad.matmul(ad.constant(sspe_spectral(profiles, cfg)), cfg.proj_spectral)
        joint = ad.concat([spa, spe], axis=-1)
        hidden = ad.relu(ad.affine(joint, cfg.fuse_w1, cfg.fuse_b1))
        rows = ad.affine(hidden, cfg.fuse_w2, cfg.fuse_b2)
        zero = ad.constant(np.zeros((b, 1, self.embed_dim)))
        return ad.concat([zero, rows], axis=1)
