"""torns: stochastic 2D Navier-Stokes on the periodic torus, pseudospectrally.

Subpackages: spectral (fields, Leray projection, Sobolev norms, dealiased
advection), noise (Wiener/OU paths), dynamics (ETD/EM steppers for the
deterministic, Ito and OU-conjugated systems), experiments (pullback,
absorbing-radius, smoothing and convergence measurements), io (configs,
checkpoints, CSV artifacts), cli (the torns command).
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    WaveGrid,
    SpectralField,
    PhysicalField,
    make_grid,
    leray_project,
    divergence,
    sobolev_norm,
    inner,
    apply_stokes_power,
    nonlinear_term,
    grad_linf,
    to_physical,
    to_spectral,
    random_divfree_field,
)
from .noise import (  # noqa: F401
    WienerPath,
    OUPath,
    sample_wiener,
    pullback_wiener,
    refine_wiener,
    ou_from_wiener,
    ou_stationary_moment,
    empirical_moment,
)
from .dynamics import (  # noqa: F401
    SimConfig,
    AssumptionReport,
    State,
    NormSeries,
    BlowupError,
    check_assumption,
    conjugate,
    integrate,
    taylor_green,
    manufactured_forcing,
)
