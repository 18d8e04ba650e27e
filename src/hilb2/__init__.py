"""Betti tables for squares of complex manifolds from mod-2 cohomology input.

A descriptor names a basis of H*(X; F_2) for a complex n-fold X together
with the Steenrod square action (and, optionally, cup products and integral
torsion flags).  From that finite input the package computes Betti tables
of the exceptional divisor, the symmetric square, the configuration
complement, and the Hilbert square, plus the kernel of the pushforward
from the exceptional divisor and, for torsion-free inputs, the integral
homology of the symmetric square.
"""

from types import ModuleType as _ModuleType

from .betti import (
    GroupProfile,
    NegativeRank,
    TorsionFlagRequired,
    betti_config,
    betti_hilb2_closed,
    betti_hilb2_exact,
    betti_sym2_f2,
    integral_sym2,
)
from .catalog import UnknownCatalogName, catalog_get, catalog_names, catalog_text
from .exdiv import (
    betti_exceptional,
    boundary_no_b,
    boundary_with_b,
    coefficient,
    format_exclass,
    hilb_restriction,
)
from .gf2 import span_dims_by_degree
from .kernel import (
    KernelGenerator,
    corollary_check,
    kernel_dimensions,
    kernel_generators,
    redundant_degrees,
)
from .report import Report
from .spaces import (
    BettiTable,
    DescriptorError,
    IntegralFlags,
    InvalidDescriptor,
    ManifoldDescriptor,
    betti_of_x,
    descriptor_to_json,
    descriptor_violations,
    load_descriptor,
    parse_descriptor,
)
from .steenrod import Sq1NotZero, UnknownClass, UnstableModule, adem_expand, is_sq1_zero, sq
from .steenrod import validate as validate_module
from .verify import check_duality, check_euler, known_answers, run_suite

__version__ = "0.1.0"

# the imports above are the list of exports: every public name they bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
__all__.append("__version__")
