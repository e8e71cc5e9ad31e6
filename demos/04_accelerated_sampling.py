"""Accelerated (few-step) sampling versus the full reverse chain.

The non-Markovian jump update shares the forward marginals, so a handful of
steps should land close to the full chain's quality.  We sweep the substep
count and print the metric gap; the noise scale multiplier eta interpolates
to the fully deterministic limit.
"""

import time

import numpy as np

from residiff import SynthParams, TrainConfig, mask_point, synth_generate, train_joint
from residiff.cli import keep_freed_memory
from residiff.sampler import accelerated_impute, ancestral_impute

# as the CLI does: keep freed numpy temporaries in the heap, so sampling
# speed does not depend on what ran earlier in the process
keep_freed_memory()

grid, graph = synth_generate(seed=2, n_nodes=12, n_steps=720, params=SynthParams())
grid = mask_point(grid, p=0.25, seed=3)
cfg = TrainConfig(t_steps=30, epochs=15, batch_size=8, n_window=24,
                  strategy="node_mean", predict_x0=True, seed=2)
ckpt = train_joint(grid, graph, cfg).checkpoint

t0 = time.time()
full = ancestral_impute(ckpt, grid, graph, S=6, rng=np.random.default_rng(1))
full_time = time.time() - t0
print(f"full chain (T={cfg.t_steps}): MAE {full.metrics['mae']:.4f}"
      f"  [{full_time:.1f}s]")

print("\nsubsteps  MAE      rel gap   speedup")
for K in (2, 5, 10, 30):
    t0 = time.time()
    out = accelerated_impute(ckpt, grid, graph, K=K, S=6,
                             rng=np.random.default_rng(1))
    dt_k = time.time() - t0
    gap = abs(out.metrics["mae"] - full.metrics["mae"]) / full.metrics["mae"]
    print(f"{K:8d}  {out.metrics['mae']:.4f}   {gap:6.3f}   {full_time / dt_k:5.1f}x")

print("\nnoise scale eta on K=10 jumps:")
for eta in (1.0, 0.5, 0.0):
    out = accelerated_impute(ckpt, grid, graph, K=10, S=6,
                             rng=np.random.default_rng(1), eta=eta)
    print(f"  eta={eta:.1f}: MAE {out.metrics['mae']:.4f}")
