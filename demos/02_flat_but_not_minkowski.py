"""A rotational Randers metric on the disc with S = 0 and K = 0 everywhere.

The one-form length equals the radius, so this metric is *not* preserved by
any parallel translation (the 'generalized Berwald' test fails), yet both the
S-curvature and the flag curvature vanish — flatness without being locally
Minkowskian.
"""

import numpy as np

from finsler import get_metric
from finsler.geometry_core import beta_derivatives
from finsler.spray_curvature import (ln_sigma_gradient, riemann_flag,
                                     s_curvature_def)

entry = get_metric("fish_tank")
m, phi = entry.metric, entry.phi

print("point (x, y)      |beta|    radius     S-curvature   flag K")
for x in ([0.2, 0.1], [0.4, -0.3], [-0.1, 0.5], [0.45, 0.45]):
    bc = beta_derivatives(m, x)
    grad = ln_sigma_gradient(m, phi, x, bc)
    y = [0.8, 0.6]
    S = s_curvature_def(m, phi, x, y, grad, bc=bc)
    _, K = riemann_flag(m, phi, x, y)
    r = float(np.hypot(*x))
    print(f"{str(x):16s}  {bc.b:.6f}  {r:.6f}   {S:+.2e}     {K:+.2e}")

print()
print("|beta| tracks the radius exactly, so the length is not constant and")
print("the metric cannot be generalized Berwald; S and K still vanish.")
