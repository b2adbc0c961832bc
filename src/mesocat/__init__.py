"""Decoherence of mesoscopic cavity-field superpositions, exactly and at desk scale.

The package follows one experiment end to end: a dispersive atom-field
interaction prepares a superposition of two coherent states conditioned on
the detection of a first atom; the field then decoheres through an
excitation-conserving coupling to a zero-temperature bath (solved exactly)
or through the equivalent Lindblad master equation (solved in closed form);
either reaches the field only through its response g(t) and depletion B(t);
a second atom finally probes the field, and the two-atom conditional
probabilities yield the correlation signal eta = P_ee - P_ge, which
measures the eigenvalues of the field's reduced density.

Modules
-------
coherent   exact coherent-state algebra: overlaps, the field density damped
           at (g, B), its eigenvalues and purity, (weights, phases) operators
protocol   Ramsey/dispersive measurement operators, state preparation,
           conditional probabilities, closed-form eigenvalues
bath       discretized bath, a real array (2, M) of detunings over couplings, and its exact
           response (g, B) from its secular spectrum
lindblad   closed-form zero-temperature master-equation response (g, B) at a rate gamma
fock       brute-force truncated-Fock oracle on plain arrays, the damping map at (g, B)
runner     scenario engines producing observable time series
config     scenario configuration schema
cli        `mesocat run|compare|sweep` command-line entry points
"""

from .bath import discretize_flat_band, recurrence_time, response
from .coherent import (
    ReducedDensity,
    damped_density,
    damped_occupations,
    eigenvalues,
    expectation,
    idempotency_defect,
    normalize,
    overlap,
    purity,
)
from .errors import (
    AuditError,
    ConfigError,
    InvalidArgumentError,
    MesocatError,
    PositivityError,
    TruncationError,
    UnsupportedInputError,
    ZeroStateError,
)
from .lindblad import me_response
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
