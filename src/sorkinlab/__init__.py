"""Third-order interference and two-slit-filtering tomography for
finite-dimensional operational probabilistic models."""

from .gpt import (
    ConeDescriptor,
    DimensionMismatch,
    Effect,
    Filter,
    ModelSpace,
    NotAProjection,
    State,
    ValidationReport,
    apply,
    face_of,
    probability,
    random_effect,
    random_state,
    validate_filter,
    validate_measurement,
)
from .models import (
    build_classical_model,
    build_quantum_model,
    build_real_quantum_model,
    classical_subset_filters,
    conjugation_superoperator,
    spin1_feynman_setup,
    spin1_operator,
    subset_filters,
)
from .interference import (
    ProbabilityTable,
    Prop1Report,
    SlitSystem,
    defect_operator,
    i2_from_table,
    i3_from_table,
    i3_operator,
    ik_from_table,
    p3_operator,
    prop1_verify,
    slit_system,
    span_condition_check,
    table_from_system,
)
from .tomography import (
    FaceMeasurementPlan,
    TomographyResult,
    build_face_measurement,
    estimate_filtered_state,
    reconstruct,
    tomography_roundtrip,
)
from .experiment import (
    ExperimentPlan,
    ExperimentRecord,
    I3Estimate,
    estimate_i3,
    record_from_table,
    run_experiment,
    simulate_setting,
)

__version__ = "0.1.0"
