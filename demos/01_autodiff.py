"""Walk through the reverse-mode tensor kernel: build a small computation,
backpropagate, confirm every gradient against central finite differences,
then switch recording off with ``no_grad``.
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


def loss_value():
    h = ad.relu(ad.affine(x, w, b))
    n = ad.layer_norm(h, ad.parameter(np.ones(4)), ad.parameter(np.zeros(4)))
    return float(ad.cross_entropy(n, y).data)


# central difference, one coordinate of w at a time: (L(w + h) - L(w - h)) / 2h
step = 1e-5
fd = np.zeros_like(w.data)
for i in np.ndindex(w.shape):
    keep = w.data[i]
    w.data[i] = keep + step
    f_plus = loss_value()
    w.data[i] = keep - step
    f_minus = loss_value()
    w.data[i] = keep
    fd[i] = (f_plus - f_minus) / (2.0 * step)
err = np.abs(fd - w.grad).max()
print(f"max |autodiff - finite difference| over dL/dw = {err:.2e}")
assert err < 1e-8

print("\n== no_grad records no graph at all ==")
with ad.no_grad():
    read_only = ad.relu(ad.affine(x, w, b))
print(f"inside no_grad: requires_grad = {read_only.requires_grad}, parents = {len(read_only._parents)}")
print(f"same values as the recorded forward: {bool(np.array_equal(read_only.data, hidden.data))}")
print(f"recording resumes after the block: {ad.relu(ad.affine(x, w, b)).requires_grad}")
