"""Exact-arithmetic verification toolkit for mod-p representations of
SL2/GL2 over F_p, coefficient-system homology on truncated half-trees,
and the finite Hecke algebra machinery built on top of them."""

__version__ = "0.1.0"

from .exactalg import (  # noqa: F401
    CanonicalBasis,
    RingSpec,
    RowSolver,
    VerificationBug,
    howell_array,
    kernel_array,
    split_test,
)
from .grouprep import (  # noqa: F401
    GModule,
    build_group,
    decompose_jbar,
    generated_submodule,
    h1_procyclic,
    invariants,
    is_irreducible,
    jbar,
)
from .catalog import builtin_catalog, emit_catalog, get_module, load_catalog  # noqa: F401
from .halftree import build_complex, check_corrpro, reduce_chain, tree_reports  # noqa: F401
from .hecke import build_hecke, check_flatness, check_vytastra, tensor_K  # noqa: F401
