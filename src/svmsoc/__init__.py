"""Bit-exact simulator and synthesis cost models for a streaming
linear-SVM FPGA accelerator."""

from .accel import (
    accumulate_weight_vector,
    decide,
    dot_distance,
    f32_bits,
    run_accelerator,
)
from .driver import (
    ClockPair,
    batch_classify,
    cosim,
    run_oracle,
    run_software_reference,
)
from .errors import (
    CalibrationError,
    DimensionError,
    FlMismatch,
    FrameLengthError,
    MalformedDataset,
    MalformedInstance,
    MalformedModel,
    SvmSocError,
    UnknownCalibration,
    UnknownDesign,
    UnsupportedKernel,
)
from .model_io import (
    LabeledDataset,
    StreamFrame,
    TestInstance,
    TrainedModel,
    emit_dataset,
    emit_native_model,
    emit_stream,
    emit_test_instance,
    format_real,
    load_dataset,
    make_synthetic,
    parse_native_model,
    parse_stream,
    parse_svmlight_model,
    parse_test_instance,
)
from .synth import (
    ANCHOR_EXACT,
    EXTRAPOLATED,
    INTERPOLATED,
    AnchorRow,
    DirectiveConfig,
    default_calibration,
    estimate_arm_cycles,
    estimate_design,
    estimate_latency,
    estimate_power,
    explore,
    fit_calibration,
    load_calibration,
    parse_anchor_csv,
    save_calibration,
)

__version__ = "0.1.0"
