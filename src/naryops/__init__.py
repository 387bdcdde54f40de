"""naryops: build, falsify, extend, and invert n-ary semigroup operations
on real intervals.

The library covers both directions of the representation theory for
continuous, symmetric, cancellative, associative operations: the forward
construction from an additive generator, and the numeric reconstruction
of the generator from a black-box operation.
"""

from .axioms import (
    ALL_SAMPLED_IDEMPOTENT,
    AllSampledIdempotent,
    AxiomReport,
    Witness,
    check_associativity,
    check_cancellativity,
    check_symmetry,
    find_idempotents,
)
from .core import (
    ArityClass,
    Interval,
    NaryOp,
    arity_member,
    builtin_lookup,
    interval_contains,
)
from .errors import (
    AllIdempotentError,
    ArityClassError,
    BracketNotFoundError,
    CodomainError,
    DomainEscapeError,
    InversionError,
    MonotonicityViolationError,
    NaryError,
    PrecisionExhaustedError,
    RegistryError,
)
from .exprlang import ParseError, eval_expr, parse
from .extension import (
    ExtendedOp,
    check_nested_identity,
    check_split_identity,
    extend_eval,
)
from .extraction import (
    BranchDirection,
    ExtractedGenerator,
    ExtractionConfig,
    MembershipOutcome,
    RationalIndex,
    compare_scales,
    detect_open_end,
    extract_generator,
    phi_at,
    rational_grid,
    select_base_point,
    sx_membership,
    verify_additivity,
)
from .generator import (
    CodomainForm,
    GeneratorSpec,
    build_aczelian,
    invert_monotone,
    tabulated_generator,
    validate_codomain,
)
from .reducibility import (
    ADJOINED_NEUTRAL,
    AdjoinedNeutral,
    AdjoinedStructure,
    adjoin_neutral,
    derive_binary,
    verify_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Interval",
    "NaryOp",
    "ArityClass",
    "arity_member",
    "interval_contains",
    "builtin_lookup",
    # axioms
    "AxiomReport",
    "Witness",
    "AllSampledIdempotent",
    "ALL_SAMPLED_IDEMPOTENT",
    "check_associativity",
    "check_symmetry",
    "check_cancellativity",
    "find_idempotents",
    # extension
    "ExtendedOp",
    "extend_eval",
    "check_nested_identity",
    "check_split_identity",
    # generator
    "GeneratorSpec",
    "CodomainForm",
    "validate_codomain",
    "build_aczelian",
    "invert_monotone",
    "tabulated_generator",
    # extraction
    "RationalIndex",
    "BranchDirection",
    "MembershipOutcome",
    "ExtractionConfig",
    "ExtractedGenerator",
    "select_base_point",
    "detect_open_end",
    "sx_membership",
    "rational_grid",
    "phi_at",
    "extract_generator",
    "verify_additivity",
    "compare_scales",
    # reducibility
    "AdjoinedNeutral",
    "ADJOINED_NEUTRAL",
    "AdjoinedStructure",
    "derive_binary",
    "verify_reduction",
    "adjoin_neutral",
    # exprlang
    "parse",
    "eval_expr",
    "ParseError",
    # errors
    "NaryError",
    "ArityClassError",
    "DomainEscapeError",
    "CodomainError",
    "InversionError",
    "RegistryError",
    "AllIdempotentError",
    "PrecisionExhaustedError",
    "BracketNotFoundError",
    "MonotonicityViolationError",
]
