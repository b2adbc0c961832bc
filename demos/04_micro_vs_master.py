"""Where the exact bath model and the master equation disagree.

The Lindblad description is Markovian: coherence loss starts linearly in
time.  The exact model starts quadratically (nothing has leaked into the
bath yet at first order), and in the damped region it keeps a small
bandwidth-dependent offset.  Both effects are visible at desk scale.  Each
route reaches the field only through its response (g, B): ``mc.response`` of
the discretized band, ``mc.me_response`` at the same rate gamma.
"""

import math

import numpy as np

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case

gamma = 1.0
bath = mc.discretize_flat_band(gamma, modes=201, half_bandwidth=50.0)
alpha2 = 3.3
params = mc.ProtocolParams(Case.CASE_A, math.sqrt(alpha2) + 0j, phi=math.pi)
st_e = mc.prepare(params, Out.E)
st_g = mc.prepare(params, Out.G)

print("== Short times: quadratic vs linear onset of mixedness ==")
ts = np.logspace(-3, -2, 7)
print("      t/tc     defect (exact)   defect (master)")
micro = mc.idempotency_defect(mc.damped_density(st_e, *mc.response(bath, ts)))
master = mc.idempotency_defect(mc.damped_density(st_e, *mc.me_response(gamma, ts)))
for t, d_micro, d_master in zip(ts, micro, master):
    print(f"    {t:7.4f}     {d_micro:11.3e}     {d_master:11.3e}")
slope_micro = np.polyfit(np.log(ts), np.log(micro), 1)[0]
slope_master = np.polyfit(np.log(ts), np.log(master), 1)[0]
print(f"log-log slopes: exact {slope_micro:.2f} (quadratic), "
      f"master {slope_master:.2f} (linear)")

print()
print("== Damped region: the correlation signals almost agree ==")
print("     t/tc    eta (exact)   eta (master)      gap")
worst = (0.0, 0.0)
times = np.linspace(0.1, 2.0, 11)
etas = []
for response in (mc.response(bath, times), mc.me_response(gamma, times)):
    etas.append(mc.conditional_probabilities(mc.damped_density([st_e, st_g], *response), params).eta)
for t, eta_micro, eta_me in zip(times, *etas):
    gap = abs(eta_micro - eta_me)
    if gap > worst[1]:
        worst = (t, gap)
    print(f"    {t:5.2f}    {eta_micro:9.5f}     {eta_me:9.5f}    {gap:8.5f}")

print()
print(f"largest gap {worst[1]:.4f} at t = {worst[0]:.2f} t_c.  The flat band's")
print("finite width (50/t_c) leaves a ~1% offset in |g|^2 relative to pure")
print("exponential decay; the exponent 2|alpha0|^2 amplifies it into this")
print("percent-level eta gap.  Widening the band shrinks it like 1/width.")
