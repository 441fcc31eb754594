"""A tour of the tensor library: build a graph, differentiate it, check it.

Everything downstream (projectors, losses, the toy net) is built from these
pieces, so if this file makes sense the rest of the package does too.
"""

import numpy as np

from mscontrast import autodiff as ad

# A tiny computation: y = sum(relu(W x + b)^2). Tensors opt into gradient
# tracking; ops recorded while a tracked tensor participates go on a tape.
# W x + b is a 1x1 convolution of a single-pixel (1, 4, 1, 1) input.
rng = np.random.default_rng(0)
W = ad.Tensor(rng.normal(size=(3, 4, 1, 1)), requires_grad=True)
x = ad.Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
b = ad.Tensor(np.zeros(3), requires_grad=True)

h = ad.relu(ad.conv1x1(x, W, b))
y = ad.tsum(ad.mul(h, h))
print(f"forward value: {float(y.data):.6f}")

ad.backward(y)
print(f"|dW| per output row = {np.linalg.norm(W.grad.reshape(3, 4), axis=1).round(3)}"
      "  (a zero row is a dead relu)")
print(f"dx = {x.grad.ravel().round(4)}")

# The same gradients, measured numerically. check_gradients recomputes the
# whole expression inside the closure, perturbs every coordinate in turn,
# and raises if anything disagrees beyond 1e-4 relative.
def f():
    hidden = ad.relu(ad.conv1x1(x, W, b))
    return ad.tsum(ad.mul(hidden, hidden))

worst = ad.check_gradients(f, [W, x, b])
print(f"finite-difference agreement, worst relative error: {worst:.3g}")

# Gradients accumulate until cleared, which is what a training step wants.
for t in (W, x, b):
    t.zero_grad()

# Inference paths wrap themselves in no_grad so nothing is recorded.
with ad.no_grad():
    silent = ad.conv1x1(x, W, b)
print(f"tracked under no_grad: {silent.tape is not None}")
