"""Amplitude-level simulator for nested-interferometer bit transmission.

The package propagates single-excitation amplitudes through small
linear-optical networks, runs the blockable nested-interferometer protocol
and its chained generalization, analyzes the induced binary channel
(success probabilities, mutual information, capacity, balanced coupling
angles), and implements two classical relay analogs with per-leg carrier
auditing.
"""

from .analysis import (
    ChannelModel,
    InputPrior,
    OptimizationResult,
    balance_root_solve,
    balanced_theta2,
    capacity,
    channel_from_protocol,
    mutual_information,
    optimize_angles,
    success_probabilities,
)
from .classical import (
    BilliardRun,
    CarrierLog,
    LegRecord,
    PulseRelayRun,
    PulseSymbol,
    Token,
    carrier_span_audit,
    decode_billiard,
    run_billiard,
    run_pulse_relay,
)
from .core import (
    BeamSplitter,
    Blocker,
    Checkpoint,
    Discard,
    ModeState,
    Network,
    apply_beam_splitter,
    apply_blocker,
    propagate,
    total_probability,
)
from .errors import (
    AuditError,
    BracketError,
    CfOpticsError,
    DomainError,
    InvalidNetworkError,
    MalformedOutcomeError,
    UndecidableDecodingError,
)
from .protocols import (
    LEG_NAMES,
    BrightPulseReading,
    ChainConfig,
    ChainOutcome,
    NestedConfig,
    ProtocolOutcome,
    build_chain_network,
    build_nested_network,
    counterfactual_witness,
    run_bright_pulse,
    run_chain,
    run_protocol,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the propagation kernel, always ``"python"``.

    There is a single pure-Python kernel; the function is kept for callers
    that record the backend alongside their results.
    """
    return "python"


__all__ = [
    "__version__", "kernel_backend",
    # core
    "BeamSplitter", "Blocker", "Checkpoint", "Discard", "ModeState", "Network",
    "apply_beam_splitter", "apply_blocker", "propagate", "total_probability",
    # protocols
    "LEG_NAMES", "BrightPulseReading", "ChainConfig", "ChainOutcome", "NestedConfig",
    "ProtocolOutcome", "build_chain_network", "build_nested_network",
    "counterfactual_witness", "run_bright_pulse", "run_chain", "run_protocol",
    # analysis
    "ChannelModel", "InputPrior", "OptimizationResult", "balance_root_solve",
    "balanced_theta2", "capacity", "channel_from_protocol", "mutual_information",
    "optimize_angles", "success_probabilities",
    # classical analogs
    "BilliardRun", "CarrierLog", "LegRecord", "PulseRelayRun", "PulseSymbol", "Token",
    "carrier_span_audit", "decode_billiard", "run_billiard", "run_pulse_relay",
    # errors
    "AuditError", "BracketError", "CfOpticsError", "DomainError", "InvalidNetworkError",
    "MalformedOutcomeError", "UndecidableDecodingError",
]
