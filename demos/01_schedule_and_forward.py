"""Noise schedules and the observation-conditioned forward process.

Builds a small linear variance schedule, inspects the derived sequences,
and shows how the closed-form forward marginal diffuses a residual grid
toward pure noise while the condition keeps riding along.
"""

import numpy as np

from residiff import build_linear_schedule, q_sample
from residiff.forward import posterior_mean_eps, posterior_mean_z0

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# 1. The schedule: beta ramps linearly; alpha_cum is its running product.
sched = build_linear_schedule(T=10, beta_min=1e-4, beta_max=0.2)
print("step  beta      alpha_step  alpha_cum  beta_tilde")
# beta, alpha_step and beta_tilde are indexed by step t via [t-1];
# alpha_cum has the extra alpha_cum[0] = 1 and is indexed by t directly.
for t in range(1, 11):
    print(f"{t:4d}  {sched.beta[t - 1]:.6f}  {sched.alpha_step[t - 1]:.6f}"
          f"   {sched.alpha_cum[t]:.6f}   {sched.beta_tilde[t - 1]:.6f}")

# ---------------------------------------------------------------------------
# 2. Diffusing a residual grid: the signal coefficient decays as
#    sqrt(alpha_cum), the noise grows as sqrt(1 - alpha_cum).
z0m = rng.standard_normal((6, 4))  # residual target
z0c = 0.3 * np.ones((6, 4))        # condition grid
print("\nforward marginal statistics (expected mean scale, noise scale):")
for t in (1, 5, 10):
    draws = np.stack([
        q_sample(z0m, z0c, t, rng.standard_normal((6, 4)), sched)
        for _ in range(2000)
    ])
    acum = sched.alpha_cum[t]
    print(f"  t={t:2d}: signal coef {np.sqrt(acum):.3f}"
          f"  empirical mean[0,0] {draws[:, 0, 0].mean():+.3f}"
          f"  vs exact {np.sqrt(acum) * (z0m[0, 0] + z0c[0, 0]):+.3f}"
          f"  | noise std {draws[:, 0, 0].std():.3f}"
          f" vs {np.sqrt(1 - acum):.3f}")

# ---------------------------------------------------------------------------
# 3. The two posterior-mean forms agree once the forward sample is plugged
#    into the noise-parameterized expression (the reverse process relies on
#    this identity).
t = 6
eps = rng.standard_normal((6, 4))
z_t = q_sample(z0m, z0c, t, eps, sched)
a = posterior_mean_z0(z_t, z0m, z0c, t, sched)
b = posterior_mean_eps(z_t, z0c, eps, t, sched)
print(f"\nposterior mean forms agree to {np.max(np.abs(a - b)):.2e}")

# At the first step the posterior collapses onto residual + condition
# regardless of the state: alpha_cum[0] = 1 wipes the z_t coefficient.
first = posterior_mean_z0(100.0 * rng.standard_normal((6, 4)), z0m, z0c, 1, sched)
print(f"t=1 posterior equals z0m + z0c exactly: "
      f"{np.max(np.abs(first - (z0m + z0c))):.2e}")
