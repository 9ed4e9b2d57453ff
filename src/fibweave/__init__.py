"""Braid-sequence compiler and verification simulator for the Fibonacci
anyon model."""

from .numerics import BigComplex, Mat2
from .model import FibConstants, make_constants, fuse
from .converge import (
    amplify,
    converge_pi3,
    general_sequence,
    iconverge,
    xconverge,
)
from .words import (
    SEED_S,
    SEED_WEAVE,
    dagger,
    evaluate,
    generator_word,
    m_word,
    n_word,
    word_metrics,
    word_permutation,
)
from .weave import (
    WeaveProgram,
    compile_weave,
    gadget_exchanges,
    program_from_text,
    program_to_text,
    weave_semantics,
)
from .chain import Chain, paths_for
from .distill import (
    DistillReport,
    PlanningError,
    braid_cost,
    exact_success,
    hierarchical_success,
    merge_success,
    monte_carlo,
    one_mobile_floor,
    plan_one_mobile,
    run_end_to_end,
)

__version__ = "0.1.0"
