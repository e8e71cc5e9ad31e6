"""Run the exact linear-Gaussian audits and inspect the forward-definition gap.

Every closed-form expression in the library is checked against an
independent oracle: a compounding recursion, generic one-dimensional
Gaussian conditioning, exact push-forwards of the sampler updates, and
central finite differences for the denoiser gradients.

The most interesting audit quantifies a real discrepancy: compounding the
single-step forward transition does NOT reproduce the closed-form marginal's
condition coefficient (the residual coefficient and the variance do match).
The library standardizes on the closed-form marginal; the single-step form
is kept for exactly this comparison.
"""

import json

from residiff.audit import run_audits

report = run_audits(seed=0)
for audit in report["audits"]:
    flag = "ok " if audit["pass"] else "FAIL"
    print(f"[{flag}] {audit['name']:42s} residual {audit['residual']:.2e}"
          f"  (tol {audit['tolerance']:.0e})")
print("all audits pass:", report["all_pass"])

print("\ncondition-coefficient gap, single-step chain vs closed-form marginal:")
(gap_audit,) = (a for a in report["audits"]
                if a["name"] == "compound_marginal_residual_and_variance")
print("  t   compounded   closed-form   gap")
for row in gap_audit["condition_coefficient_table"]:
    print(f"  {row['t']}   {row['compound_condition_coef']:.6f}     "
          f"{row['marginal_condition_coef']:.6f}      {row['gap']:+.6f}")

print("\nfull JSON report structure:",
      json.dumps({k: type(v).__name__ for k, v in report.items()}, indent=2))
