"""The zero-temperature master equation route, solved in closed form.

Instead of tracking bath modes, damping can be modeled by the Lindblad
generator with decay rate gamma = 1/t_c.  Coherent amplitudes then damp as
alpha exp(-gamma t / 2) and every coherent dyad picks up an explicit
factor, so the whole time series costs nothing to evaluate.  The rate is
the route's only parameter: ``mc.me_response(gamma, t)`` takes it as a plain
float and returns the response (g, B) that damps every density.
"""

import math

import numpy as np

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case

gamma = 1.0

print("== Dyad damping factors ==")
a = 1.5 + 0.0j
pair = mc.normalize([[1.0, 1.0], [a, -a]])  # weights over labels
for t in (0.1, 0.5, 2.0):
    # coefficient factors exp(K) of |a><a| and |-a><a| in the damped density
    factors = np.exp(mc.damped_density(pair, *mc.me_response(gamma, t)).expo)
    same, cross = factors[0, 0], factors[1, 0]
    print(f"  t = {t:4.1f} t_c: diagonal dyad {same.real:.6f}, "
          f"opposite-amplitude dyad {cross.real:.6f}")
print("diagonal dyads keep weight 1 (trace preservation); the cross dyad")
print("damps as exp(-2 |alpha|^2 (1 - e^{-t/tc})).")

print()
print("== Correlation signal and the decoherence time ==")
alpha2 = 3.3
params = mc.ProtocolParams(Case.CASE_A, math.sqrt(alpha2) + 0j, phi=math.pi)
st_e, st_g = mc.prepare(params, Out.E), mc.prepare(params, Out.G)

ts = np.linspace(0.0, 0.5, 11)
etas = []
print("     t/tc      eta      exp(-2|a|^2(1-e^-t))")
for t in ts:
    rec = mc.conditional_probabilities(mc.damped_density([st_e, st_g], *mc.me_response(gamma, t)), params)
    closed = math.exp(-2.0 * alpha2 * (1.0 - math.exp(-t)))
    etas.append(rec.eta)
    print(f"    {t:5.2f}   {rec.eta:8.5f}        {closed:8.5f}")

fit_ts = np.linspace(1e-3, 0.02, 10)
fit_etas = []
for t in fit_ts:
    rec = mc.conditional_probabilities(mc.damped_density([st_e, st_g], *mc.me_response(gamma, t)), params)
    fit_etas.append(rec.eta)
slope = np.polyfit(fit_ts, np.log(fit_etas), 1)[0]
print()
print(f"early-time exponential fit: t_d = {-1 / slope:.4f} t_c")
print(f"prediction t_c / (2 |alpha0|^2) = {1 / (2 * alpha2):.4f} t_c")
print()
print("The bigger the superposition, the faster the coherence dies --")
print("while the field energy itself still takes t_c to leak out.")
