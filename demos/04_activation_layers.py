#!/usr/bin/env python3
"""The trainable max-min activation and the two fused layer forms.

At initialization both layers equal ReLU6 followed by max-pooling; one
gradient step later the curve has moved.  The activation is sampled on a
grid so the change is visible as numbers, no plotting required.
"""

import numpy as np

from morphnn import autodiff as ad
from morphnn.activations import (MorphoActivationParams, activation_curve,
                                 morpho_act1_forward, morpho_act2_forward,
                                 pl_activation)
from morphnn.autodiff import Tensor, make_rng
from morphnn.morphops import PoolSpec, StructuringFunction, act_pool, relu

grid = np.array([-8.0, -3.0, 0.0, 2.0, 5.0, 6.5, 10.0])
params = MorphoActivationParams.clamp(m_terms=2, n_terms=3)
print("x          :", grid)
print("init curve :", activation_curve(params, grid),
      " (= clip(x, 0, 6))")

# the layer forms: activation-then-pool and pool-then-activation
rng = make_rng(4)
x = Tensor(rng.normal(size=(1, 2, 6, 6)) * 4)
pool = PoolSpec((2, 2), (2, 2))
rows = MorphoActivationParams.clamp(2, 3, "rows", channels=2)
cols = MorphoActivationParams.clamp(2, 3, "cols", channels=2)
flat2 = lambda k: [StructuringFunction.pool_window((2, 2))
                   for _ in range(k)]
out1 = morpho_act1_forward(x, rows, flat2(2), pool, channel_axis=1)
out2 = morpho_act2_forward(x, cols, flat2(3), pool, channel_axis=1)
ref = act_pool(x, pool, cap=6.0)  # relu6 + max-pool, one node
print("\nboth layer forms equal relu6 + max-pool at init:",
      bool(np.array_equal(out1.data, ref.data)),
      bool(np.array_equal(out2.data, ref.data)))

# one gradient step on the affine parameters reshapes the curve
params = MorphoActivationParams.clamp(2, 3)
xb = Tensor(rng.normal(size=(64,)) * 4)
target = relu(xb).data * 0.5
for _ in range(40):
    out = pl_activation(xb, params)
    loss = ad.mul(ad.sub(out, Tensor(target)),
                  ad.sub(out, Tensor(target))).mean()
    params.beta.grad = None
    params.alpha.grad = None
    loss.backward()
    for p in (params.beta, params.alpha):
        p.data = p.data - 0.05 * p.grad
print("\nafter fitting 0.5*relu(x):")
print("learned    :", activation_curve(params, grid))
print("target     :", np.maximum(grid, 0) * 0.5)
