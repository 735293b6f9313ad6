"""Cheating-probability analysis for quantum weak oblivious transfer."""

from .attacks import (
    CheatReport,
    alice_bound,
    alice_helstrom_attack,
    bob_bound,
    bob_purified_attack,
    cheat_report,
    delta_quantity,
    f_quantity,
)
from .catalog import (
    TradeoffPoint,
    WCFPrimitive,
    build_cks,
    build_leaky,
    build_mixture,
    build_trivial,
    combined_bounds,
    dyadic_round,
    random_complete_protocol,
)
from .errors import (
    CompletenessError,
    ConsistencyError,
    LayoutError,
    NotPSDError,
    RangeError,
    ShapeError,
    SpecError,
    WotsimError,
)
from .oracle import (
    cks_alice_oracle,
    cks_alice_success,
    grid_tolerance,
    helstrom_oracle,
    uhlmann_oracle,
)
from .protocol import (
    CompletenessReport,
    FinalStates,
    ProtocolSpec,
    ReducedFamily,
    Round,
    all_final_states,
    reduce_alice,
    run_honest,
    run_purified,
    spec_from_dict,
    spec_to_dict,
    validate_completeness,
)
from .qcore import (
    ALICE,
    BOB,
    BOB_INPUT,
    MESSAGE,
    TOL_EXACT,
    TOL_SPECTRAL,
    CMat,
    DensityOp,
    Factor,
    RegisterLayout,
    StateVector,
    TwoOutcomeMeasurement,
    fidelity,
    guess_prob,
    haar_unitary,
    helstrom,
    herm_sqrt,
    partial_trace,
    trace_norm,
    uhlmann_unitary,
)
from .tradeoff import (
    RobustnessPoint,
    curve,
    delta_star,
    prop3_bound,
    prop3_tight,
    tune_lambda,
)

__version__ = "0.1.0"
