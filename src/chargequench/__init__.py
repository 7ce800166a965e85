"""chargequench: entanglement dynamics of free-fermion chains under
projective measurements of the subsystem particle number.

The library computes, in the ballistic quasiparticle regime, the
entanglement entropy of an interval after one or several charge
measurements, for charge-eigenstate and squeezed-pair initial states,
together with outcome statistics, the exact half-filled closed forms, full
counting statistics, alternate measurement geometries, and an exact
small-chain many-body oracle for structural verification.
"""

__version__ = "0.1.0"

from .counting import (
    ConfigurationClass,
    MeasurementProtocol,
    counting_measure,
)
from .entropy import (
    EntropyReport,
    averaged_correction,
    entropy_squeezed_double,
    entropy_squeezed_single,
    entropy_symmetric_multi,
    entropy_symmetric_single,
    log_n_correction,
    unmeasured_entropy,
)
from .errors import (
    ChargeQuenchError,
    FeasibilityError,
    ForbiddenOutcomeError,
    QuadratureError,
    RegimeError,
)
from .extensions import GeometrySpec, fcs_generating_function, geometry_entropy
from .fluctuations import (
    ASYMMETRY_REGIME_EXCEEDED,
    asymmetry,
    drude_weight,
    number_entropy,
    variance_squeezed,
    variance_symmetric,
)
from .neel_exact import (
    NeelExactResult,
    neel_charged_moment,
    neel_entropy_exact,
    stirling_expansion,
)
from .probability import (
    OutcomeDistribution,
    monte_carlo_average,
    neel_exact_distribution,
    outcome_pdf,
    sample_outcomes,
)
from .saddle import (
    SaddleSolution,
    feasibility,
    modified_occupation,
    solve_saddle_squeezed,
    solve_saddle_symmetric_multi,
    solve_saddle_symmetric_single,
)
from .states import (
    OccupationFunction,
    Pairing,
    QuenchState,
    get_state,
    occupation_dimer,
    occupation_neel,
    occupation_tilted,
    pair_entropy,
)
