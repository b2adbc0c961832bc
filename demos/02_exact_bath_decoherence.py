"""Exact decoherence of a field superposition coupled to a discretized bath.

The cavity mode exchanges excitations with a flat band of bath oscillators.
Because the coupling is bilinear and excitation-conserving, coherent
amplitudes follow a closed linear flow and the full field+bath state stays
a two-branch product-coherent superposition forever.  The field sees the
bath only through its response g(t) and the depletion B(t) = sum_k |f_k|^2,
which `mc.response` gives over the whole time grid: everything here is
exact, no truncation and no Markov approximation.
"""

import math

import numpy as np

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case

gamma = 1.0  # intensity decay rate, so t_c = 1
bath = mc.discretize_flat_band(gamma, modes=201, half_bandwidth=50.0)
detunings, couplings = bath  # one real array (2, modes)
print(f"flat band: {detunings.size} modes, coupling {couplings[0]:.6f}, "
      f"recurrence at t = {mc.recurrence_time(bath):.2f} t_c")

alpha0 = math.sqrt(3.3)
params = mc.ProtocolParams(Case.CASE_A, alpha0 + 0j, phi=math.pi)
state_e = mc.prepare(params, Out.E)
state_g = mc.prepare(params, Out.G)

times = np.linspace(0.0, 2.0, 11)
g, depletion = mc.response(bath, times)
rho = mc.damped_density([state_e, state_g], g, depletion)  # axes (time, outcome)
rec = mc.conditional_probabilities(rho, params)
gamma_b = np.exp(-2.0 * alpha0**2 * depletion)  # |<-alpha f|alpha f>| over the modes
lam_p, lam_m = mc.eigenvalues_case_a(alpha0, g, depletion, Out.E)
n_f, n_b = mc.damped_occupations(state_e, g, depletion)
defect = mc.idempotency_defect(rho)[:, 0]

print()
print("     t/tc   |g(t)|^2     Gamma_b      eta    lam_e(+)  lam_e(-)   defect_e   n_field+n_bath")
for i, t in enumerate(times):
    print(f"    {t:5.2f}   {abs(g[i])**2:8.4f}   {gamma_b[i]:8.5f}  "
          f"{rec.eta[i]:7.4f}   {lam_p[i]:7.4f}   {lam_m[i]:7.4f}   {defect[i]:8.5f}   {n_f[i] + n_b[i]:10.6f}")

print()
print("Reading the table:")
print(" * |g|^2 tracks exp(-t/tc): the band reproduces golden-rule damping;")
print(" * Gamma_b is the coherence between the two branches; eta follows it;")
print(" * the eigenvalue pair starts at (0, 1) (pure odd superposition) and")
print("   relaxes to (1, 0) (vacuum) -- eta = lam_e(-) - lam_g(-) throughout;")
print(" * the total excitation number is conserved exactly.")

print()
print("The correlation signal decays on the decoherence time scale")
print(f"t_d = t_c / (2 |alpha0|^2) = {1 / (2 * alpha0**2):.4f} t_c,")
print("much faster than the energy damping time t_c itself: that separation")
print("is the hallmark of mesoscopic superposition decoherence.")
