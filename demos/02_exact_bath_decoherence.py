"""Exact decoherence of a field superposition coupled to a discretized bath.

The cavity mode exchanges excitations with a flat band of bath oscillators.
Because the coupling is bilinear and excitation-conserving, coherent
amplitudes follow a closed linear flow and the full field+bath state stays
a two-branch product-coherent superposition forever: everything here is
exact, no truncation and no Markov approximation.
"""

import math

import numpy as np

import mesocat as mc
from mesocat import DetectionOutcome as Out
from mesocat import ProtocolCase as Case

gamma = 1.0  # intensity decay rate, so t_c = 1
bath = mc.discretize_flat_band(gamma, modes=201, half_bandwidth=50.0)
print(f"flat band: {bath.n_modes} modes, coupling {bath.couplings[0]:.6f}, "
      f"recurrence at t = {bath.recurrence_time:.2f} t_c")

alpha0 = math.sqrt(3.3)
params = mc.ProtocolParams(Case.CASE_A, alpha0 + 0j, phi=math.pi)
state_e = mc.prepare(params, Out.E)
state_g = mc.prepare(params, Out.G)
ga_0 = math.exp(-2.0 * alpha0**2)

print()
print("     t/tc   |g(t)|^2     Gamma_b      eta    lam_e(+)  lam_e(-)   defect_e   n_field+n_bath")
for t in np.linspace(0.0, 2.0, 11):
    se = mc.evolve(state_e, bath, t)
    sg = mc.evolve(state_g, bath, t)
    rho_e, rho_g = mc.reduce(se), mc.reduce(sg)
    rec = mc.conditional_probabilities(rho_e, rho_g, params)
    g, _ = mc.propagate(bath, t)
    lam_p, lam_m = mc.eigenvalues_case_a(
        mc.gamma_a(se), abs(mc.gamma_b(se)), ga_0, Out.E
    )
    n_f, n_b = mc.occupations(se)
    print(f"    {t:5.2f}   {abs(g)**2:8.4f}   {abs(mc.gamma_b(se)):8.5f}  "
          f"{rec.eta:7.4f}   {lam_p:7.4f}   {lam_m:7.4f}   {mc.idempotency_defect(rho_e):8.5f}   {n_f + n_b:10.6f}")

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
