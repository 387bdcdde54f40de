"""The public surface of the package: the names ``naryops`` exports, and
the ``__all__`` of every module. Nothing in the package imports with
``*``, so a stale ``__all__`` entry would otherwise go unnoticed."""

import importlib
import pkgutil

import pytest

import naryops

PACKAGE_API = [
    "ADJOINED_NEUTRAL",
    "ALL_SAMPLED_IDEMPOTENT",
    "AdjoinedNeutral",
    "AdjoinedStructure",
    "AllIdempotentError",
    "AllSampledIdempotent",
    "ArityClass",
    "ArityClassError",
    "AxiomReport",
    "BracketNotFoundError",
    "BranchDirection",
    "CodomainError",
    "CodomainForm",
    "DomainEscapeError",
    "ExtendedOp",
    "ExtractedGenerator",
    "ExtractionConfig",
    "GeneratorSpec",
    "Interval",
    "InversionError",
    "MonotonicityViolationError",
    "NaryError",
    "NaryOp",
    "ParseError",
    "RegistryError",
    "Witness",
    "__version__",
    "adjoin_neutral",
    "build_aczelian",
    "builtin_lookup",
    "check_associativity",
    "check_cancellativity",
    "check_symmetry",
    "derive_binary",
    "extract_generator",
    "find_idempotents",
    "invert_monotone",
    "parse",
    "select_base_point",
    "tabulated_generator",
    "validate_codomain",
    "verify_additivity",
    "verify_reduction",
]

MODULES = ["naryops"] + [
    f"naryops.{m.name}" for m in pkgutil.iter_modules(naryops.__path__)
]


def test_package_api_is_pinned():
    assert sorted(naryops.__all__) == PACKAGE_API


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [e for e in exported if not hasattr(module, e)] == []
