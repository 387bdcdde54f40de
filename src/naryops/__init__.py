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
from .core import ArityClass, Interval, NaryOp, builtin_lookup
from .errors import (
    AllIdempotentError,
    ArityClassError,
    BracketNotFoundError,
    CodomainError,
    DomainEscapeError,
    InversionError,
    MonotonicityViolationError,
    NaryError,
    RegistryError,
)
from .exprlang import ParseError, parse
from .extension import ExtendedOp
from .extraction import (
    BranchDirection,
    ExtractedGenerator,
    ExtractionConfig,
    extract_generator,
    select_base_point,
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
    # generator
    "GeneratorSpec",
    "CodomainForm",
    "validate_codomain",
    "build_aczelian",
    "invert_monotone",
    "tabulated_generator",
    # extraction
    "BranchDirection",
    "ExtractionConfig",
    "ExtractedGenerator",
    "select_base_point",
    "extract_generator",
    "verify_additivity",
    # reducibility
    "AdjoinedNeutral",
    "ADJOINED_NEUTRAL",
    "AdjoinedStructure",
    "derive_binary",
    "verify_reduction",
    "adjoin_neutral",
    # exprlang
    "parse",
    "ParseError",
    # errors
    "NaryError",
    "ArityClassError",
    "DomainEscapeError",
    "CodomainError",
    "InversionError",
    "RegistryError",
    "AllIdempotentError",
    "BracketNotFoundError",
    "MonotonicityViolationError",
]
