"""Quantized linear transceiver analysis: closed-form spectrum/rate/capacity
predictions with Monte-Carlo and waveform validation harnesses."""

from .analysis import (
    RateReport,
    SpectrumReport,
    SubbandPlan,
    awgn_linear_rate,
    awgn_rate_at_transmit_snr,
    awgn_rates_at_transmit_snr,
    feasible_fractions,
    kl_divergence,
    linear_rate,
    noise_free_rate,
    noise_free_rates,
    powers_from_fractions,
    predict_spectrum,
    share_floor,
)
from .bounds import (
    UpperBoundReport,
    cumulant,
    max_entropy,
    rate_function,
    rate_upper_bound,
    tilted_mean_energy,
    upper_bound_rates,
)
from .errors import (
    BoundaryEnergyError,
    ConfigError,
    ContractError,
    FeasibilityError,
    InfeasibleEnergyError,
    InfiniteRateError,
    NumericalFailureError,
    QltError,
    UnboundedConstellationError,
)
from .moments import (
    AgnMoments,
    MonteCarlo,
    chain_moments,
    tx_moments,
)
from .montecarlo import (
    HaarFrames,
    SimConfig,
    SimReport,
    run_chain_trials,
    run_tx_trials,
    subband_assignment,
)
from .quantizer import (
    QuantizerSpec,
    clip_for_power,
    constellation_of,
    quantize,
)
from .waveform import (
    AclrReport,
    WaveformConfig,
    apply_dac_and_measure,
    design_interp_filter,
    measure_aclr,
    synthesize_baseband,
)

__version__ = "0.1.0"
