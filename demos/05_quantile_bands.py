"""Probabilistic imputation: quantile bands and their empirical coverage.

Fifty sampled imputations per cell give a median and a 5th-95th percentile
band; on held-out cells the band should cover roughly nine in ten truths.
Prints a small text panel of one node's series with band edges.
"""

import numpy as np

from residiff import SynthParams, TrainConfig, mask_point, synth_generate, train_joint
from residiff.cli import keep_freed_memory
from residiff.sampler import accelerated_impute

# as the CLI does: keep freed numpy temporaries in the heap, so sampling
# speed does not depend on what ran earlier in the process
keep_freed_memory()

grid, graph = synth_generate(seed=4, n_nodes=12, n_steps=720, params=SynthParams())
grid = mask_point(grid, p=0.25, seed=5)
# band calibration wants the noise-prediction route: clean-target prediction
# funnels every sample to the model's point estimate at this model scale,
# which is great for MAE but leaves the band with no width
cfg = TrainConfig(t_steps=30, beta_min=0.05, beta_max=0.05, epochs=15,
                  batch_size=8, n_window=24, strategy="node_mean", seed=4)
ckpt = train_joint(grid, graph, cfg).checkpoint

out = accelerated_impute(ckpt, grid, graph, K=10, S=50,
                         rng=np.random.default_rng(2))

ev = grid.eval_mask
covered = (grid.values[ev] >= out.q_low[ev]) & (grid.values[ev] <= out.q_high[ev])
print(f"eval cells: {int(ev.sum())}")
print(f"5th-95th band coverage: {covered.mean():.3f} (nominal 0.90)")
width = (out.q_high[ev] - out.q_low[ev]).mean()
print(f"mean band width: {width:.3f} data units")

node = 3
print(f"\nnode {node}, steps 48..72 (*: hidden truth inside band, "
      "X: outside, .: visible)")
print(" step   truth    q05     median  q95")
for i in range(48, 72):
    truth = grid.values[i, node]
    if ev[i, node]:
        inside = out.q_low[i, node] <= truth <= out.q_high[i, node]
        tag = "*" if inside else "X"
        print(f"{i:5d}  {truth:7.3f}  {out.q_low[i, node]:7.3f}"
              f" {out.median[i, node]:7.3f} {out.q_high[i, node]:7.3f}  {tag}")
    else:
        print(f"{i:5d}  {truth:7.3f}      .       .       .")
