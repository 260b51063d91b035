"""The almost-regular phi family and recovery of its defining constants.

phi is defined through the integral of a logarithmic derivative g(t) and is
singular at s = +-b0.  Its associated function Q = phi'/(phi - s phi') is
exactly k*s + q*sqrt(b0^2 - s^2); we verify that numerically and then recover
(k, q) from samples by linear least squares.
"""

import numpy as np

from finsler.classify import unicorn_fit
from finsler.phi_families import UnicornPhi, _q_series, ode_residual

b0, k, q = 1.0, 0.3, 0.7
phi = UnicornPhi(b0, k, q, c=1.0)

s_grid = np.linspace(-0.9, 0.9, 7)
print(" s        Q(s)       k*s + q*sqrt(b0^2-s^2)   ODE residual")
for s in s_grid:
    Q = _q_series(phi, s, 0).value
    closed = k * s + q * np.sqrt(b0 * b0 - s * s)
    print(f"{s:+.2f}   {Q:+.6f}   {closed:+.6f}              {ode_residual(phi, b0, s):+.1e}")

fit = unicorn_fit(phi, b0)
print()
print(f"least-squares recovery: k = {fit.k:.12f}, q = {fit.q:.12f}, "
      f"rms = {fit.rms:.2e}")
print(f"true constants:         k = {k}, q = {q}")
