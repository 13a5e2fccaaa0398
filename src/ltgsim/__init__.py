"""Two dephasing qubits under random telegraph noise.

Analytic coherence factors, exact-jump Monte Carlo, the pixel-mask
kernel-sum channel with both local-to-global transition strategies, the
down-conversion spatial-correlation model, and coincidence/visibility
measurement including the correlated-pixel calibration.
"""
from .analytic import entanglement, exponential_moment, global_coherence, local_coherence
from .measurement import (
    CalibrationResult,
    CountRecord,
    TwoQubitState,
    build_state,
    calibrate_wcp,
    concurrence,
    detection_probabilities,
    simulate_counts,
    visibility,
)
from .optics import (
    PdcSetup,
    WcpTable,
    calibrate_theta0,
    combined_wcp,
    estimate_wcp_tilde,
    estimate_wp,
    joint_profile,
    pump_floor_px,
    wcp_curve,
)
from .rtn import (
    RtnParams,
    SeedSpec,
    mc_exponential_moment,
    sample_trajectory,
)
from .series import CoherenceSeries
from .slm import (
    CorrelationKernel,
    KernelParams,
    MaskGeometry,
    PhaseField,
    build_kernel,
    build_phase_field,
    kernel_coherence,
    transition_sweep_delta,
    transition_sweep_spectral,
)

__all__ = [
    "CalibrationResult",
    "CoherenceSeries",
    "CorrelationKernel",
    "CountRecord",
    "KernelParams",
    "MaskGeometry",
    "PdcSetup",
    "PhaseField",
    "RtnParams",
    "SeedSpec",
    "TwoQubitState",
    "WcpTable",
    "build_kernel",
    "build_phase_field",
    "build_state",
    "calibrate_theta0",
    "calibrate_wcp",
    "combined_wcp",
    "concurrence",
    "detection_probabilities",
    "entanglement",
    "estimate_wcp_tilde",
    "estimate_wp",
    "exponential_moment",
    "global_coherence",
    "joint_profile",
    "kernel_coherence",
    "local_coherence",
    "mc_exponential_moment",
    "pump_floor_px",
    "sample_trajectory",
    "simulate_counts",
    "transition_sweep_delta",
    "transition_sweep_spectral",
    "visibility",
    "wcp_curve",
]
