"""Tour of the autodiff core: build a tiny computation, check its gradients
against finite differences, then fit a least-squares line with AdamW under a
warmup-plus-cosine schedule.

Run from the repo root after `pip install -e .`:

    python3 demos/01_autodiff_and_adamw.py
"""

import numpy as np

from fgmae import tensor as T
from fgmae import optim as O

# -- reverse mode in three lines --------------------------------------------

x = T.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True, dtype=np.float64)
y = T.tsum(T.exp(x) * x)
y.backward()
print("d/dx sum(x*exp(x)) =", x.grad)          # analytically (1+x)*exp(x)
print("analytic           =", (1 + x.data) * np.exp(x.data))

# -- the same check, automated with finite differences ----------------------

w = np.random.default_rng(0).standard_normal((3, 4))
x2 = T.Tensor(np.random.default_rng(2).standard_normal((2, 3)),
              requires_grad=True, dtype=np.float64)
rel_err = T.grad_check(lambda t: T.tsum(T.softmax(t @ T.Tensor(w))), x2)
print(f"softmax-matmul grad check: rel err {rel_err:.2e}")

# -- AdamW on a least-squares problem ---------------------------------------

gen = np.random.default_rng(1)
inputs = gen.standard_normal((64, 2))
target = inputs @ np.array([[2.0], [-3.0]]) + 0.5

params = {"w": T.Tensor(np.zeros((2, 1)), requires_grad=True),
          "b": T.Tensor(np.zeros(1), requires_grad=True)}
opt = O.AdamW(params, lr=0.1, weight_decay=0.0)
sched = O.LrSchedule(base_lr=0.1, min_lr=1e-3, warmup_steps=20,
                     total_steps=200)

for step in range(200):
    pred = T.Tensor(inputs) @ params["w"] + params["b"]
    loss = T.tmean((pred - T.Tensor(target)) ** 2)
    loss.backward()
    O.adamw_step(opt, lr=O.lr_at(step, sched))
    for p in params.values():
        p.grad = None
    if step % 50 == 0:
        print(f"step {step:3d}  lr {O.lr_at(step, sched):.4f}  "
              f"loss {float(loss.data):.5f}")

print("fitted w =", params["w"].data.ravel(), " b =", params["b"].data)
print("true   w = [ 2. -3.]  b = [0.5]")
