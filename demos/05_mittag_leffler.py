"""The Mittag-Leffler workhorse E_alpha(z) and its evaluation.

On the negative axis the function interpolates between a stretched
exponential at short arguments and the inverse-power tail x^-1/Gamma(1-alpha)
far out.  The evaluator takes every negative argument through one rational
form, the trapezoidal rule on a fixed parabolic Bromwich contour; the
defining series and the asymptotic expansion remain as standalone routines,
each accurate only on its own side of an old seam.
"""

import math

import numpy as np

from fracspec import MlParams, ml_asymptotic, ml_eval, ml_series

alpha = 0.75
p = MlParams(alpha=alpha)

print(f"E_{alpha}(-x) across twelve decades:")
for x in np.geomspace(1e-4, 1e8, 13):
    val = ml_eval(-x, p)
    stretched = math.exp(-x / math.gamma(1 + alpha))   # matches E to first order in x
    tail = ml_asymptotic(x, alpha, 1) if x > 0 else float("nan")
    print(f"   x={x:9.2e}  E={val:.6e}  stretched={stretched:.2e}  tail={tail:.2e}")

print("\nidentities:")
print(f"   E_1(-2)   = {ml_eval(-2.0, MlParams(alpha=1.0)):.15f}"
      f"  (exp(-2) = {math.exp(-2):.15f})")
half = ml_eval(-3.0, MlParams(alpha=0.5))
from scipy.special import erfcx
print(f"   E_1/2(-3) = {half:.15f}  (e^9 erfc(3) = {erfcx(3.0):.15f})")

print("\nold seams, one argument each (contour | standalone routine):")
cutoff = p.series_neg_cutoff
for name, x, other in [
        ("series", cutoff, ml_series(-cutoff, p)),
        ("asymptotic", p.asymptote_switch, ml_asymptotic(p.asymptote_switch, alpha))]:
    val = ml_eval(-x, p)
    print(f"   {name:10s} at |z| = {x:6.3f}: {val:.12e} vs {other:.12e}"
          f"  (rel. diff {abs(other - val) / val:.1e})")
