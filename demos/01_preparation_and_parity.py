"""Preparing field superpositions with a dispersive atom and reading them back.

A two-level atom crosses two Ramsey zones with a dispersive cavity between
them.  Detecting the atom afterwards projects the cavity field onto a
superposition of two coherent states; a second atom then probes that
superposition.  This script walks through the operator algebra at t = 0,
before any decoherence happens.
"""

import math

import numpy as np

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case

alpha0 = math.sqrt(2.0)
params = mc.ProtocolParams(Case.CASE_A, alpha0 + 0j, phi=math.pi)

print("== The two detection branches (case A, phi = pi) ==")
for outcome in (Out.E, Out.G):
    prob = mc.preparation_probability(params, outcome)
    state = mc.prepare(params, outcome)
    kind = "odd" if outcome is Out.E else "even"
    print(f"first atom in {outcome.value}: probability {prob:.6f}, "
          f"prepares the {kind} superposition")
    for weight, label in zip(*state):  # a state is the array (weights, labels)
        print(f"    weight {weight.real:+.6f}  amplitude {label.real:+.3f}")

print()
print("The two branch weights differ only by a sign: these are the")
print("odd/even combinations of |alpha> and |-alpha>.")

print()
print("== What the second atom measures ==")
weights, phases = mc.measurement_product(params, Out.E)  # U+U = sum_m w_m exp(i phase_m n)
print("detection operator for outcome e, evaluated on number states:")
for n in range(6):
    print(f"    <n={n}| U+U |n={n}> = {np.sum(weights * np.exp(1j * phases * n)).real:.3f}")
print("at phi = pi this is the odd-photon-number projector.")

print()
print("== Perfect correlation at t = 0 ==")
# the field densities before any damping: response g = 1, depletion B = 0
rho = mc.damped_density([mc.prepare(params, Out.E), mc.prepare(params, Out.G)], 1.0, 0.0)
rec = mc.conditional_probabilities(rho, params)
print(f"P_ee = {rec.p_ee:.6f}   P_eg = {rec.p_eg:.6f}")
print(f"P_ge = {rec.p_ge:.6f}   P_gg = {rec.p_gg:.6f}")
print(f"correlation signal eta = P_ee - P_ge = {rec.eta:.6f}")
print()
print("The odd superposition only holds odd photon numbers, so the second")
print("atom reproduces the first detection with certainty: eta(0) = 1.")

print()
print("== Case B prepares a rotated pair instead ==")
params_b = mc.ProtocolParams(Case.CASE_B, alpha0 + 0j, phi=0.6)
state_b = mc.prepare(params_b, Out.G)
for weight, label in zip(*state_b):
    print(f"    weight {weight:.4f}  amplitude {label:.4f}")
print("the two amplitudes are alpha exp(+i phi) and alpha exp(-i phi).")
