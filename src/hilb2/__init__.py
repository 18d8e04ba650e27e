"""Betti tables for squares of complex manifolds from mod-2 cohomology input.

A descriptor names a basis of H*(X; F_2) for a complex n-fold X together
with the Steenrod square action (and, optionally, cup products and integral
torsion flags).  From that finite input the package computes Betti tables
of the exceptional divisor, the symmetric square, the configuration
complement, and the Hilbert square, plus the kernel of the pushforward
from the exceptional divisor and, for torsion-free inputs, the integral
homology of the symmetric square.

`_EXPORTS` is the one list of exports. Importing the package loads none of
its modules: each loads on the first use of its name or of a name it
exports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "betti": ("GroupProfile", "NegativeRank", "TorsionFlagRequired",
              "betti_config", "betti_hilb2_closed", "betti_hilb2_exact",
              "betti_sym2_f2", "integral_sym2"),
    "catalog": ("UnknownCatalogName", "catalog_get", "catalog_names",
                "catalog_text"),
    "exdiv": ("betti_exceptional", "coefficient", "format_exclass",
              "hilb_restriction", "ladder"),
    "gf2": ("span_dims_by_degree",),
    "kernel": ("KernelGenerator", "corollary_check", "kernel_dimensions",
               "kernel_generators", "redundant_degrees"),
    "report": ("Report",),
    "spaces": ("BettiTable", "DescriptorError", "IntegralFlags",
               "InvalidDescriptor", "ManifoldDescriptor", "betti_of_x",
               "descriptor_to_json", "descriptor_violations",
               "load_descriptor", "parse_descriptor"),
    "steenrod": ("Sq1NotZero", "UnknownClass", "UnstableModule",
                 "adem_expand", "is_sq1_zero", "sq", "validate_module"),
    "verify": ("check_duality", "check_euler", "known_answers", "run_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    # read from its module on every access, never stored here, so a name
    # rebound in its module is rebound here too; a loaded module is a global
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals().get(_MODULE_OF[name]) or __getattr__(_MODULE_OF[name])
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
