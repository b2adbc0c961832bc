"""Validating the analytic engines against brute-force Fock-space damping.

Every closed form in this package can be recomputed the slow way: expand
states over number levels, as plain amplitude vectors and density matrices
whose last axis has n_max + 1 levels, and apply the exact Kraus map of the
damping flow, sum_l K_l rho K_l^dag with <m-l|K_l|m> = sqrt(C(m, l))
g^(m-l) B^(l/2), at the same response (g, B) -- of a discrete bath or of the
master equation.  `fock.damp(a, b, g, B)` applies it to a dyad |a><b| as
sum_l (K_l a)(K_l b)^dag; a mixed density damps as the sum of its dyads.  At desk scale the two routes agree to rounding, which is
the whole point of keeping the slow one around.  (The tests also check both
against a sparse field+bath Hamiltonian evolved with a Krylov exponential.)
"""

import math

import numpy as np

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case
from mesocat import fock

print("== One resonant bath mode: coherent algebra vs Kraus map at its response ==")
bath = np.array([[0.0], [0.7]])  # one resonant mode: detuning over coupling
params = mc.ProtocolParams(Case.CASE_A, 1.0 + 0j, math.pi)
state = mc.prepare(params, Out.E)
n_max = fock.required_n_max(params.alpha0)
vec0 = fock.superposition_vector(state, n_max)

times = np.array([0.4, 1.2, 2.0])
g, depletion = mc.response(bath, times)
exact = mc.eigenvalues(mc.damped_density(state, g, depletion))
oracle = np.linalg.eigvalsh(fock.damp(vec0, vec0, g, depletion))[:, ::-1][:, :2]
print("     t    eigenvalues (labels)      eigenvalues (Fock)        |diff|")
for t, lam, lam_fock in zip(times, exact, oracle):
    diff = np.max(np.abs(lam - lam_fock))
    print(f"   {t:4.1f}   ({lam[0]:.6f}, {lam[1]:.6f})   "
          f"({lam_fock[0]:.6f}, {lam_fock[1]:.6f})   {diff:.1e}")

print()
print("== Damping: closed-form dyad factor vs the Lindblad Kraus map ==")
gamma, t = 1.0, 0.35
a, b = 1.1 + 0.3j, -0.9 + 0.5j
n_big = 30
g, depletion = mc.me_response(gamma, t)
dyad_t = fock.damp(fock.coherent_to_fock(a, n_big), fock.coherent_to_fock(b, n_big), g, depletion)
# the factor of |a><b| is the coherence exp(K_10) of the damped pair |b> + |a>
pair = mc.normalize([[1.0, 1.0], [b, a]])  # weights over labels
factor = np.exp(mc.damped_density(pair, g, depletion).expo[1, 0])
target = factor * np.outer(
    fock.coherent_to_fock(a * complex(g), n_big),
    fock.coherent_to_fock(b * complex(g), n_big).conj(),
)
print(f"dyad |{a}><{b}| evolved for t = {t} t_c:")
print(f"largest entry difference vs closed form: {np.max(np.abs(dyad_t - target)):.2e}")

print()
print("== Rank stays two ==")
g, depletion = mc.response(bath, [1.0])
lams = np.linalg.eigvalsh(fock.damp(vec0, vec0, g[0], depletion[0]))[::-1]
print(f"top eigenvalues: {lams[0]:.6f}, {lams[1]:.6f}; third largest: {lams[2]:.2e}")
print("the reduced field density lives in the two-dimensional span of the")
print("branch amplitudes at every time, however many levels the oracle keeps.")
