"""Decoherence of mesoscopic cavity-field superpositions, exactly and at desk scale.

The package follows one experiment end to end: a dispersive atom-field
interaction prepares a superposition of two coherent states conditioned on
the detection of a first atom; the field then decoheres through an
excitation-conserving coupling to a zero-temperature bath (solved exactly)
or through the equivalent Lindblad master equation (solved in closed form);
a second atom finally probes the field, and the two-atom conditional
probabilities yield the correlation signal eta = P_ee - P_ge, which
measures the eigenvalues of the field's reduced density.

Modules
-------
coherent   exact coherent-state algebra: overlaps, reduced densities in a
           non-orthogonal basis, spectra, purity, phase-diagonal operators
protocol   Ramsey/dispersive measurement operators, state preparation,
           conditional probabilities, closed-form eigenvalues
bath       discretized bath, exact linear amplitude flow, damping factors
lindblad   closed-form zero-temperature master-equation response
fock       brute-force truncated-Fock-space reference implementations
runner     scenario engines producing observable time series
config     scenario configuration schema
cli        `mesocat run|compare|sweep` command-line entry points
"""

from .bath import (
    BathSpec,
    discretize_flat_band,
    evolve,
    excitation_sum,
    gamma_a,
    gamma_b,
    propagate,
    response,
)
from .coherent import (
    Branch,
    FieldBathSuperposition,
    PhaseOpSum,
    ReducedDensity,
    Spectrum,
    damped_density,
    damped_occupations,
    eigenvalues,
    expectation,
    idempotency_defect,
    mean_photon,
    normalize,
    occupations,
    overlap,
    purity,
    reduce,
)
from .errors import (
    AuditError,
    CapacityError,
    ConfigError,
    InvalidArgumentError,
    MesocatError,
    PositivityError,
    TruncationError,
    UnsupportedInputError,
    ZeroStateError,
)
from .lindblad import MasterParams, me_response
from .protocol import (
    CorrelationRecord,
    DetectionOutcome,
    ProtocolCase,
    ProtocolParams,
    conditional_probabilities,
    eigenvalues_case_a,
    measurement_product,
    prepare,
    preparation_probability,
    reduced_op,
    small_overlap_case_b,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
