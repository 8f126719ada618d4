"""Check analytic gradients against finite differences on a tiny model.

Every parameter array of a one-layer model is perturbed coordinate by
coordinate in 64-bit precision; the analytic gradient, from the backward
pass over the loss's kernel chain, must agree with the central
difference to a small relative error.

Run with:  python3 demos/03_gradcheck.py
"""

import numpy as np

from scgpt import autograd as ag
from scgpt.model import LinearizedExample, ModelConfig, init_params, nll_loss


def main() -> None:
    cfg = ModelConfig(vocab_size=19, n_layers=1, n_heads=2, d_model=8,
                      d_ff=16, max_context=12, dropout=0.0)
    params = init_params(cfg, seed=0, dtype=np.float64)
    batch = [
        LinearizedExample(ids=(3, 9, 1, 14, 7, 2, 15), loss_mask=(0, 0, 0, 1, 1, 1, 0)),
        LinearizedExample(ids=(5, 11, 14, 4, 15), loss_mask=(0, 0, 1, 1, 0)),
    ]

    loss, chain = nll_loss(params, batch)
    grads = ag.backward(loss, chain)
    print(f"loss {float(loss):.6f}; checking every coordinate of every tensor\n")

    eps = 1e-5
    worst = 0.0
    for name, w in params.named():
        g = grads[name]
        fd = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            keep = w[i]
            w[i] = keep + eps
            up = float(nll_loss(params, batch)[0])
            w[i] = keep - eps
            down = float(nll_loss(params, batch)[0])
            w[i] = keep
            fd[i] = (up - down) / (2 * eps)
            it.iternext()
        scale = max(1e-8, np.abs(g).max(), np.abs(fd).max())
        rel = np.abs(g - fd).max() / scale
        worst = max(worst, rel)
        print(f"  {name:24s} shape {str(w.shape):12s} max rel err {rel:.3e}")

    print(f"\nworst relative error: {worst:.3e} "
          f"({'OK' if worst < 1e-4 else 'TOO LARGE'})")


if __name__ == "__main__":
    main()
