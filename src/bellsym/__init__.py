"""Two-qubit dephasing channels, Kraus decompositions, and the exchange
symmetry of Bell states under decoherence."""

from .channel import (
    ChannelParams,
    NoiseTrajectoryConfig,
    apply_dephasing,
    dephase_with_factors,
    gamma_factor,
    monte_carlo_dephasing,
)
from .kraus import (
    CompletePositivityError,
    KrausFactors,
    KrausSet,
    apply_kraus,
    canonical_kraus,
    choi_of_kraus,
    kraus_from_choi,
    mix_kraus,
)
from .spinbath import (
    BathSpec,
    decoherence_factor,
    identical_bath,
    random_bath,
    reduced_density,
)
from .symmetry import (
    BellState,
    ConstraintPattern,
    OutcomeReport,
    SymmetryClass,
    brute_force_symmetry_scan,
    haar_unitary,
    maximize_symmetric_probability,
    outcome_analysis,
    symmetric_probability,
)

__version__ = "0.1.0"
