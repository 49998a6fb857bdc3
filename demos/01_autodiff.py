"""Walk through the reverse-mode tensor kernel: build a small computation,
backpropagate, confirm every gradient against central finite differences,
then cut the graph with ``detach`` and switch recording off with ``no_grad``.
"""

import numpy as np

from memformer import autodiff as ad

rng = np.random.default_rng(0)

print("== building a computation graph ==")
w = ad.parameter(rng.standard_normal((3, 4)))
b = ad.parameter(np.zeros(4))
x = ad.constant(rng.standard_normal((5, 3)))
y = np.array([0, 1, 2, 3, 0])

hidden = ad.relu(ad.affine(x, w, b))
normed = ad.layer_norm(hidden, ad.parameter(np.ones(4)), ad.parameter(np.zeros(4)))
loss = ad.cross_entropy(normed, y)
print(f"loss = {float(loss.data):.6f}")

print("\n== backward pass ==")
loss.backward()
print(f"dL/dw has shape {w.grad.shape}, dL/db has shape {b.grad.shape}")

print("\n== checking against finite differences ==")


def loss_fn(_):
    h = ad.relu(ad.affine(x, w, b))
    n = ad.layer_norm(h, ad.parameter(np.ones(4)), ad.parameter(np.zeros(4)))
    return ad.cross_entropy(n, y)


fd = ad.finite_diff_grad(loss_fn, w)
err = np.abs(fd.data - w.grad).max()
print(f"max |autodiff - finite difference| over dL/dw = {err:.2e}")
assert err < 1e-8

print("\n== detaching cuts the graph ==")
frozen = hidden.detach()
print(f"detached tensor requires_grad = {frozen.requires_grad}")

print("\n== no_grad records no graph at all ==")
with ad.no_grad():
    read_only = ad.relu(ad.affine(x, w, b))
print(f"inside no_grad: requires_grad = {read_only.requires_grad}, parents = {len(read_only._parents)}")
print(f"same values as the recorded forward: {bool(np.array_equal(read_only.data, hidden.data))}")
print(f"recording resumes after the block: {ad.relu(ad.affine(x, w, b)).requires_grad}")
