"""Case B: rotated coherent pairs and the small-overlap closed form.

When both atomic levels shift the field (in opposite directions), the
prepared superposition is alpha exp(+i phi) against alpha exp(-i phi).
While these branches stay nearly orthogonal, the correlation signal has a
compact closed form driven by the bath excitation B(t) = sum_k |beta_k|^2:

    |Gamma_b| = exp(-2 B sin^2 phi),  theta = B sin(2 phi),
    eta ~ cos(theta) |Gamma_b| / 2.

Note eta(0) = 1/2, not 1: the case-B detection operators are not diagonal
in the eigenbasis of the prepared superposition, so even a fresh state is
only 75/25 correlated with the first detection.
"""

import math

import numpy as np

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case

gamma = 1.0
bath = mc.discretize_flat_band(gamma, modes=201, half_bandwidth=50.0)
alpha0, phi = 3.0, math.pi / 4
params = mc.ProtocolParams(Case.CASE_B, alpha0 + 0j, phi)
st_e = mc.prepare(params, Out.E)
st_g = mc.prepare(params, Out.G)

print(f"alpha0 = {alpha0}, phi = pi/4: branch overlap at t=0 is "
      f"{abs(mc.overlap(*st_e[1])):.2e}")
print()
print("     t/tc   branch overlap   eta (exact)   eta (closed form)   theta")
times = np.linspace(0.0, 0.25, 11)
g, depletion = mc.response(bath, times)
rho = mc.damped_density([st_e, st_g], g, depletion)  # axes (time, outcome)
eta = mc.conditional_probabilities(rho, params).eta
for i, t in enumerate(times):
    excitation = alpha0**2 * depletion[i]  # sum_k |beta_k(t)|^2 = |alpha0|^2 B(t)
    eta_approx, gb_mag, theta = mc.small_overlap_case_b(excitation, phi)
    ov = abs(mc.overlap(*rho.labels[i, 0]))
    print(f"    {t:5.3f}     {ov:9.2e}      {eta[i]:+9.6f}      {eta_approx:+9.6f}      {theta:6.3f}")

print()
print("The phase theta rotates eta through zero and slightly negative before")
print("the coherence dies: dephasing and decoherence compete in case B.")

print()
print("== phi = pi/2 is special ==")
params_half = mc.ProtocolParams(Case.CASE_B, 1.5 + 0j, math.pi / 2)
mp_e = mc.measurement_product(params_half, Out.E)  # (weights, phases)
print("measurement operator values on number states:",
      [round(float(np.sum(mp_e[0] * np.exp(1j * mp_e[1] * n)).real), 6) for n in range(4)])
st_half = mc.prepare(params_half, Out.E)
rho = mc.damped_density(st_half, *mc.response(bath, [0.8]))
print(f"P_ee at any time: {mc.expectation(mp_e, rho)[0].real:.12f}")
print("cos((2n+1) pi/2) vanishes for every n, so the product is the identity")
print("over 2 and the second atom carries no information at all.")
