"""Two-way coherent phase stabilization of a free-space optical link.

Simulator and spectral toolkit: power-law noise models and synthesis,
the time-domain stabilization chain with doppler and group-delay
actuators, closed-form measurement transfer functions, and the
reference experiment scenarios (three paired modes, 19-channel WDM
sweep, 10 Hz spot extraction).
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    InvalidModelError,
    OutOfRangeError,
    SegmentationError,
    TooShortError,
)
from .noise import (
    PhaseSeries,
    PsdModel,
    PsdSegment,
    SpectrumEstimate,
    estimate_psd,
    ssb_phase_noise,
    synthesize_phase_noise,
)
from .spectral import (
    DelayedCombination,
    combination_factor,
    atm_variant_report,
    meas_transfer_atm,
    meas_transfer_primary,
    meas_transfer_secondary,
    predicted_mode_psd,
)
from .link import (
    LinkConfig,
    LinkState,
    LinkTrace,
    NoiseInputs,
    ServoConfig,
    atmosphere_from_psd,
    fractional_delay,
    make_link,
    run_link,
    servo_update,
)
from .experiment import (
    CHANNEL_GRID_THZ,
    ChannelResult,
    ScenarioResult,
    SummaryStats,
    calibrate_default_models,
    channel_sweep,
    emit_outputs,
    run_three_modes,
    spot_phase_noise,
    zero_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
