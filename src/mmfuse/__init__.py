"""mmfuse: priority-based fusion of simulated gesture and speech channels.

A deterministic bench for a two-modality command pipeline driving a
five-servo arm: an eight-channel band model for hand gestures, a stochastic
speech recognizer, a gesture-first fusion machine with a speech fallback
window, and the experiment harness that reproduces the reference error
tables.
"""

from .arm import (
    ArmState,
    GripperState,
    ServoState,
    TimeOrderError,
    UnmappedPinError,
    apply_action,
    apply_pin_high,
    log_to_csv,
    new_arm,
)
from .config import AppConfig, ConfigError, default_config, load_config
from .emg import (
    CalibrationError,
    EmgWindow,
    GestureOutcome,
    GestureOutcomeModel,
    NoiseCalibration,
    OutcomeKind,
    WarmupState,
    calibrate_noise,
    classify_window,
    default_gesture_model,
    gesture_templates,
    sample_gesture_outcome,
    synth_emg_window,
    warmup_factor,
    window_features,
)
from .fusion import (
    CalibrationStatus,
    ClockTick,
    CommandSource,
    DetectionCalibration,
    EventSource,
    FusedCommand,
    FusionConfig,
    FusionError,
    FusionErrorKind,
    FusionState,
    FusionTrials,
    InfeasibleTargetError,
    ModalityEvent,
    ModalityModels,
    begin_episode,
    calibrate_detection,
    closed_form_fused_error,
    default_models,
    run_episode,
    simulate_fused_operation,
    step,
)
from .harness import (
    BlockStats,
    ExperimentResults,
    ItemStats,
    Modality,
    ModalityTable,
    default_fusion_config,
    fused_error_summary,
    mean_accuracy,
    run_fusion_experiment,
    run_modality_experiment,
    run_reference_experiments,
)
from .protocol import DEFAULT_PORT, PROTOCOL_VERSION, ParseError, UnknownVerb, decode, encode
from .report import emit_chart, emit_report
from .seeding import derive_seed, make_rng
from .server import FusionServer, Session, run_session
from .speech import (
    CaptureKind,
    NormalizationMap,
    RawUtterance,
    RecognitionModel,
    classify_capture_error,
    default_normalization_map,
    default_recognition_model,
    normalize_utterance,
    sample_recognition,
)
from .vocab import (
    ArmAction,
    FUSION_OPERATIONS,
    FusionOperation,
    GESTURES,
    Gesture,
    PIN_ASSIGNMENTS,
    SpeechCommand,
    action_for_command,
    action_for_gesture,
    gesture_to_pin,
    operation_for_command,
    operation_for_gesture,
)

__version__ = "0.1.0"
