"""Validating the analytic engines against brute-force Fock-space evolution.

Every closed form in this package can be recomputed the slow way: expand
states over number levels, build the coupling Hamiltonian as a sparse
matrix (or apply the exact Kraus map of the damping flow at the master
equation's response), and evolve.  At desk scale the two routes agree to a
few parts in 1e-7, which is the whole point of keeping the slow one around.
"""

import math

import numpy as np

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat import fock

print("== One resonant bath mode: exact flow vs sparse matrix exponential ==")
spec = mc.BathSpec(np.array([0.0]), np.array([0.7]), target_gamma=1.0)
params = mc.ProtocolParams(Case.CASE_A, 1.0 + 0j, math.pi)
state = mc.prepare(params, Out.E)
n_max = fock.required_n_max(params.alpha0)
vec = fock.superposition_vector(state, n_max)

print("     t    eigenvalues (labels)      eigenvalues (Fock)        |diff|")
for t in (0.4, 1.2, 2.0):
    exact = mc.eigenvalues(mc.reduce(mc.evolve(state, spec, t))).eigenvalues
    oracle = np.linalg.eigvalsh(
        fock.hamiltonian_evolve(vec, spec, t, n_max_per_mode=n_max).reduced_field_density().matrix
    )[::-1][:2]
    diff = max(abs(a - b) for a, b in zip(exact, oracle))
    print(f"   {t:4.1f}   ({exact[0]:.6f}, {exact[1]:.6f})   "
          f"({oracle[0]:.6f}, {oracle[1]:.6f})   {diff:.1e}")

print()
print("== Damping: closed-form dyad factor vs the Lindblad Kraus map ==")
gamma, t = 1.0, 0.35
mp = mc.MasterParams(gamma)
a, b = 1.1 + 0.3j, -0.9 + 0.5j
n_big = 30
dyad0 = np.outer(
    fock.coherent_to_fock(a, n_big).amplitudes,
    fock.coherent_to_fock(b, n_big).amplitudes.conj(),
)
g, depletion = mc.me_response(mp, t)
dyad_t = fock.damp(dyad0, g, depletion)
# the factor of |a><b| is the coherence exp(K_10) of the damped pair |b> + |a>
pair = mc.normalize(mc.FieldBathSuperposition((mc.Branch(1.0, b), mc.Branch(1.0, a))))
factor = np.exp(mc.damped_density(pair, g, depletion).expo[1, 0])
target = factor * np.outer(
    fock.coherent_to_fock(a * complex(g), n_big).amplitudes,
    fock.coherent_to_fock(b * complex(g), n_big).amplitudes.conj(),
)
print(f"dyad |{a}><{b}| evolved for t = {t} t_c:")
print(f"largest entry difference vs closed form: {np.max(np.abs(dyad_t - target)):.2e}")

print()
print("== Rank stays two ==")
rho = fock.hamiltonian_evolve(vec, spec, 1.0, n_max_per_mode=n_max).reduced_field_density()
lams = np.linalg.eigvalsh(rho.matrix)[::-1]
print(f"top eigenvalues: {lams[0]:.6f}, {lams[1]:.6f}; third largest: {lams[2]:.2e}")
print("the reduced field density lives in the two-dimensional span of the")
print("branch amplitudes at every time, however many levels the oracle keeps.")
