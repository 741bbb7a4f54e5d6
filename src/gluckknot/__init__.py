"""gluckknot: ribbon 2-knots, Gluck twists, and Alexander invariants.

The public names load lazily (PEP 562): `import gluckknot` runs no
submodule, and the first access to a name imports the module defining it,
so a CLI subcommand pays at start-up only for the modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "coset": ("EnumerationOutcome", "coset_index", "enumerate_cosets"),
    "fox": (
        "AlexanderResult",
        "OrientationError",
        "alexander_polynomial",
        "solve_orientation_weights",
    ),
    "groupring": (
        "GroupRingElement",
        "abelianize",
        "fox_derivative",
        "fundamental_identity_check",
    ),
    "intmatrix": (
        "AbelianGroup",
        "IntMatrix",
        "SmithForm",
        "cokernel",
        "smith_normal_form",
    ),
    "laurent": (
        "LaurentPolynomial",
        "divide_exact",
        "divides",
        "laurent_gcd",
        "unit_equivalent",
    ),
    "minors": ("AlexanderMatrix", "alexander_matrix"),
    "twoknot": (
        "FamilyClassification",
        "GluckVariant",
        "HandleCounts",
        "InvalidRibbonError",
        "ParityClass",
        "RibbonTwoKnot",
        "SpunObstruction",
        "classify",
        "complement_handle_counts",
        "complement_presentation",
        "delta_classes",
        "delta_equivalent",
        "distinct",
        "family_knot",
        "family_presentation",
        "family_record",
        "family_relator",
        "gluck_handle_counts",
        "gluck_quotient",
        "spun_obstruction",
    ),
    "words": (
        "Presentation",
        "PresentationError",
        "TrivialityCertificate",
        "Word",
        "WordSyntaxError",
        "certify_trivial",
        "parse_word",
        "word_to_str",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
