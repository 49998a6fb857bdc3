"""Tokenization, patch projection, and positional embedding oracles."""

import numpy as np
import pytest

from memformer import autodiff as ad
from memformer import embedding
from memformer.embedding import (
    PE_MODES,
    PatchProjector,
    PositionalEmbedding,
    sinusoid_encoding,
    sspe_spatial,
    tokenize_batch,
)
from oracles import finite_diff_grad


def _spectral(profiles, embed_dim):
    """The forward's spectral encoding of ``profiles``, with the band table
    an sspe embedding of that width builds for their band count."""
    bands = np.shape(profiles)[-1]
    pe = PositionalEmbedding("sspe", embed_dim, grid=1, bands=bands, rng=np.random.default_rng(0))
    return embedding._band_weights(profiles) @ pe.band_table


# -- tokenize_batch ----------------------------------------------------------


def test_tokenize_counts():
    wins = np.zeros((2, 14, 14, 3))
    tokens = tokenize_batch(wins, 2)
    assert tokens.shape == (2, 49, 2, 2, 3)
    tokens = tokenize_batch(wins, 14)
    assert tokens.shape == (2, 1, 14, 14, 3)


def test_spatial_table_follows_row_major_grid():
    g, k = 3, 8
    pe = PositionalEmbedding("sspe", embed_dim=k, grid=g, bands=3, rng=np.random.default_rng(0))
    assert pe.spatial.shape == (g * g, 8)
    for i in range(g * g):
        np.testing.assert_array_equal(pe.spatial[i], sspe_spatial(i // g, i % g, k))
    assert not pe.spatial.flags.writeable


def test_tokenize_is_a_partition():
    # distinct windows, so a token taken from the wrong window shows up
    rng = np.random.default_rng(0)
    wins = rng.standard_normal((3, 8, 8, 5))
    tokens = tokenize_batch(wins, 2)
    for win, patches in zip(wins, tokens):
        rebuilt = np.zeros_like(win)
        for i, patch in enumerate(patches):
            gx, gy = divmod(i, 4)
            rebuilt[2 * gx : 2 * gx + 2, 2 * gy : 2 * gy + 2] = patch
        np.testing.assert_array_equal(rebuilt, win)


def test_tokenize_rejects_bad_side():
    with pytest.raises(ValueError):
        tokenize_batch(np.zeros((1, 14, 14, 3)), 3)
    with pytest.raises(ValueError):
        tokenize_batch(np.zeros((1, 4, 6, 3)), 2)
    with pytest.raises(ValueError):
        tokenize_batch(np.zeros((14, 14, 3)), 2)


# -- patch projection ----------------------------------------------------------


def test_project_bias_only():
    rng = np.random.default_rng(1)
    proj = PatchProjector(embed_dim=4, patch_side=2, bands=3, rng=rng)
    proj.kernel.data[:] = 0.0
    proj.bias.data[:] = 0.5
    out = proj.forward(np.ones((5, 2, 2, 3)))
    np.testing.assert_array_equal(out.data, np.full((5, 4), 0.5))
    proj.bias.data[:] = -1.0
    out = proj.forward(np.ones((5, 2, 2, 3)))
    np.testing.assert_array_equal(out.data, np.zeros((5, 4)))


def test_project_scalar_case():
    rng = np.random.default_rng(2)
    proj = PatchProjector(embed_dim=1, patch_side=1, bands=1, rng=rng)
    proj.kernel.data[:] = 3.0
    proj.bias.data[:] = -1.0
    out = proj.forward(np.full((1, 1, 1, 1), 2.0))
    np.testing.assert_array_equal(out.data, [[5.0]])


def test_project_nonnegative_and_batched():
    rng = np.random.default_rng(3)
    proj = PatchProjector(embed_dim=8, patch_side=2, bands=4, rng=rng)
    tokens = rng.standard_normal((3, 9, 2, 2, 4))
    out = proj.forward(tokens)
    assert out.shape == (3, 9, 8)
    assert (out.data >= 0).all()


def test_project_shape_mismatch():
    proj = PatchProjector(embed_dim=4, patch_side=2, bands=3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        proj.forward(np.zeros((5, 2, 2, 4)))


def test_project_gradients_match_finite_difference():
    rng = np.random.default_rng(4)
    proj = PatchProjector(embed_dim=4, patch_side=2, bands=2, rng=rng)
    tokens = rng.standard_normal((6, 2, 2, 2))
    v = rng.standard_normal((6, 4))

    def loss():
        return ad.tensor_sum(ad.mul(proj.forward(tokens), ad.constant(v)))

    out = loss()
    out.backward()
    for t in (proj.kernel, proj.bias):
        want = finite_diff_grad(lambda _x: loss(), t).data
        np.testing.assert_allclose(t.grad, want, rtol=1e-4, atol=1e-6)
    assert np.abs(proj.kernel.grad).max() > 0


# -- sinusoid building blocks -----------------------------------------------------


def test_sinusoid_zero_position():
    enc = sinusoid_encoding(0.0, 8)
    np.testing.assert_array_equal(enc[0::2], np.zeros(4))
    np.testing.assert_array_equal(enc[1::2], np.ones(4))


def test_sinusoid_frequency_schedule():
    # pair j sits at angle pos / wavelength^(2j/d)
    enc = sinusoid_encoding(3.0, 4)
    np.testing.assert_allclose(enc[2], np.sin(3.0 / 10000.0 ** 0.5), rtol=1e-15)
    np.testing.assert_allclose(enc[3], np.cos(0.03), rtol=1e-15)
    np.testing.assert_allclose(enc[0], np.sin(3.0), rtol=1e-15)
    # a wider schedule spreads the same pairs over slower frequencies
    enc = sinusoid_encoding(3.0, 4, 8)
    np.testing.assert_allclose(enc[2], np.sin(3.0 / 10000.0 ** 0.25), rtol=1e-15)


def test_sinusoid_broadcasts_over_positions():
    positions = np.array([0.0, 1.0, 2.0])
    table = sinusoid_encoding(positions, 6)
    assert table.shape == (3, 6)
    for p, row in zip(positions, table):
        np.testing.assert_array_equal(row, sinusoid_encoding(float(p), 6))
    grid = sinusoid_encoding(np.arange(12.0).reshape(3, 4), 8, 16)
    assert grid.shape == (3, 4, 8)
    for p in range(12):
        np.testing.assert_array_equal(grid[p // 4, p % 4], sinusoid_encoding(float(p), 8, 16))


def test_spatial_encoding_layout():
    spatial_dim = 8
    vec = sspe_spatial(0, 0, 8)
    assert vec.shape == (spatial_dim,)
    np.testing.assert_array_equal(vec[0::2], np.zeros(spatial_dim // 2))
    np.testing.assert_array_equal(vec[1::2], np.ones(spatial_dim // 2))
    # x occupies the first half, y the second
    vec = sspe_spatial(3, 0, 8)
    half = spatial_dim // 2
    np.testing.assert_allclose(vec[2], np.sin(3.0 / 10000.0 ** 0.25), rtol=1e-15)
    np.testing.assert_array_equal(vec[half + 0 :: 2][: half // 2], np.zeros(half // 2))


def test_spatial_encoding_injective_on_grid():
    rows = np.stack([sspe_spatial(x, y, 16) for x in range(7) for y in range(7)])
    xs, ys = np.meshgrid(np.arange(7), np.arange(7), indexing="ij")
    np.testing.assert_array_equal(sspe_spatial(xs.ravel(), ys.ravel(), 16), rows)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            assert np.linalg.norm(rows[i] - rows[j]) > 1e-9


def test_spectral_encoding_one_hot_and_uniform():
    spectral_dim = 8
    one_hot = np.zeros(5)
    one_hot[0] = 1.0
    enc = _spectral(one_hot, 8)
    np.testing.assert_array_equal(enc[0::2], np.zeros(spectral_dim // 2))
    np.testing.assert_array_equal(enc[1::2], np.ones(spectral_dim // 2))
    # all-zero profile falls back to the uniform mixture
    per_band = np.stack([_spectral(np.eye(5)[j], 8) for j in range(5)])
    np.testing.assert_allclose(_spectral(np.zeros(5), 8), per_band.mean(axis=0), rtol=1e-12)


def test_spectral_encoding_two_band_mixture():
    got = _spectral(np.array([1.0, 1.0]), 8)
    e0 = sinusoid_encoding(0.0, 8, 8)
    e1 = sinusoid_encoding(1.0, 8, 8)
    np.testing.assert_allclose(got, 0.5 * e0 + 0.5 * e1, rtol=1e-12)


def test_spectral_encoding_broadcasts_over_profiles():
    profiles = np.abs(np.random.default_rng(1).standard_normal((2, 3, 5)))
    profiles[1, 2] = 0.0
    got = _spectral(profiles, 6)
    assert got.shape == (2, 3, 6)
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(got[i, j], _spectral(profiles[i, j], 6), rtol=1e-14)


def test_sspe_dims_round_up_for_odd_embed():
    assert sspe_spatial(0, 0, 15).shape == (16,)
    assert _spectral(np.ones(3), 15).shape == (16,)
    pe = PositionalEmbedding("sspe", embed_dim=15, grid=2, bands=3, rng=np.random.default_rng(0))
    assert pe.parameters()["sspe.proj_spatial"].shape == (16, 15)
    assert pe.band_table.shape == (3, 16)


# -- positional embedding modes -----------------------------------------------------


def _fixture(mode, rng=None):
    rng = rng or np.random.default_rng(7)
    win = rng.standard_normal((1, 4, 4, 3))
    tokens = tokenize_batch(win, 2)
    pe = PositionalEmbedding(mode, embed_dim=6, grid=2, bands=3, rng=rng)
    return pe, tokens


def test_mode_none_is_zero():
    pe, tokens = _fixture("none")
    out = pe.forward(tokens)
    assert out.shape == (4, 6)
    np.testing.assert_array_equal(out.data, np.zeros((4, 6)))


def test_mode_learnable_exposes_table():
    pe, tokens = _fixture("learnable")
    table = pe.parameters()["pos.table"]
    out = pe.forward(tokens)
    assert out.shape == (4, 6)
    np.testing.assert_array_equal(out.data, table.data)
    ad.tensor_sum(ad.mul(out, ad.constant(np.ones((4, 6))))).backward()
    np.testing.assert_array_equal(table.grad, np.ones((4, 6)))


def test_mode_sinusoidal1d_index_zero():
    pe, tokens = _fixture("sinusoidal1d")
    out = pe.forward(tokens).data
    assert out.shape == (4, 6)
    np.testing.assert_array_equal(out[0], [0, 1, 0, 1, 0, 1])
    np.testing.assert_allclose(out[1][0], np.sin(1.0), rtol=1e-15)


def test_mode_sspe_zero_mlp_collapses():
    pe, tokens = _fixture("sspe")
    pe.parameters()["sspe.fuse_w2"].data[:] = 0.0
    pe.parameters()["sspe.fuse_b2"].data[:] = 0.0
    out = pe.forward(tokens)
    np.testing.assert_array_equal(out.data, np.zeros((1, 4, 6)))


def test_mode_sspe_rejects_unbatched_tokens():
    pe, tokens = _fixture("sspe")
    with pytest.raises(ValueError, match=r"\(4, 2, 2, 3\)"):
        pe.forward(tokens[0])


def test_every_mode_rejects_a_different_band_count():
    for mode in PE_MODES:
        pe, tokens = _fixture(mode)
        with pytest.raises(ValueError, match=r"\(1, 4, 2, 2, 2\)"):
            pe.forward(tokens[..., :2])


def test_mode_sspe_forward_builds_only_the_band_table(monkeypatch):
    pe, tokens = _fixture("sspe")
    calls = []
    original = embedding.sinusoid_encoding

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(embedding, "sinusoid_encoding", counting)
    pe.forward(tokens)
    # the grid and band-index tables were both built at construction
    assert calls == []
    np.testing.assert_array_equal(pe.band_table, sinusoid_encoding(np.arange(3), 6))
    assert not pe.band_table.flags.writeable


def test_mode_sspe_deterministic_and_data_dependent():
    pe, tokens = _fixture("sspe")
    a = pe.forward(tokens).data
    b = pe.forward(tokens).data
    np.testing.assert_array_equal(a, b)
    other = pe.forward(tokens * np.linspace(1, 2, 3)).data
    assert not np.array_equal(a, other)


def test_mode_sspe_gradients_reach_every_parameter():
    rng = np.random.default_rng(8)
    pe, tokens = _fixture("sspe", rng)
    v = rng.standard_normal((1, 4, 6))

    def loss():
        return ad.tensor_sum(ad.mul(pe.forward(tokens), ad.constant(v)))

    loss().backward()
    for name, p in pe.parameters().items():
        assert p.grad is not None, name
        assert np.abs(p.grad).max() > 0, name

    for name, p in pe.parameters().items():
        p.grad = None
    out = loss()
    out.backward()
    for name, p in pe.parameters().items():
        want = finite_diff_grad(lambda _x: loss(), p).data
        np.testing.assert_allclose(p.grad, want, rtol=1e-4, atol=1e-6, err_msg=name)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown positional mode"):
        PositionalEmbedding("fourier", 6, 4, 3, np.random.default_rng(0))
