"""End-to-end: synthesize, hide cells, train, impute, score.

Small sizes keep this under a minute; the acceptance suite runs the full
desk-scale version.  The refined imputation should comfortably beat the
rough fill it started from.
"""

import numpy as np

from residiff import SynthParams, TrainConfig, mask_point, metrics, synth_generate, train_joint
from residiff.cli import keep_freed_memory
from residiff.sampler import ancestral_impute, initial_only_impute

# as the CLI does: keep freed numpy temporaries in the heap, so sampling
# speed does not depend on what ran earlier in the process
keep_freed_memory()

# 1. A sensor network: daily-periodic signals on a geometric graph, with
#    graph-correlated autoregressive noise.  25% of cells become evaluation
#    targets (hidden from every model, scored at the end).
grid, graph = synth_generate(seed=0, n_nodes=12, n_steps=720, params=SynthParams())
grid = mask_point(grid, p=0.25, seed=1)
print(f"grid {grid.shape}, eval cells: {int(grid.eval_mask.sum())}")

# 2. Train the two stages jointly: a node-mean rough fill plus a residual
#    diffusion model that predicts the clean residual.
cfg = TrainConfig(t_steps=30, epochs=15, batch_size=8, n_window=24,
                  strategy="node_mean", predict_x0=True, seed=0)
result = train_joint(grid, graph, cfg)
print(f"trained {len(result.log)} steps; "
      f"joint loss {result.log[0][3]:.3f} -> {result.log[-1][3]:.3f}")

# 3. Impute with the full reverse chain, 8 samples per cell.
out = ancestral_impute(result.checkpoint, grid, graph, S=8,
                       rng=np.random.default_rng(7))

# 4. Score against the held-out truth, next to the rough fill alone.
base = initial_only_impute(result.checkpoint, grid, graph)
base_metrics = metrics(base, grid.values, grid.eval_mask)
print("\n                MAE      MSE      MRE")
print(f"rough fill    {base_metrics['mae']:.4f}   {base_metrics['mse']:.4f}"
      f"   {base_metrics['mre']:.4f}")
print(f"refined       {out.metrics['mae']:.4f}   {out.metrics['mse']:.4f}"
      f"   {out.metrics['mre']:.4f}")
print(f"\nMAE ratio refined/rough: {out.metrics['mae'] / base_metrics['mae']:.3f}")
