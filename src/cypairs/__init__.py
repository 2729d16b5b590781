"""Exact verification engine for a family of Calabi-Yau pairs cut out on
the two Grassmannians G(n, 2n+1) and G(n+1, 2n+1) by one section of the
twisted dual quotient bundle.

The modules compute, with integer or rational arithmetic throughout:

- partitions: partition combinatorics, Weyl dimensions, product rules;
- symfunc: plethysms of wedge powers and the determinant witness search;
- bwb: cohomology of irreducible homogeneous bundles on G(n, 2n+1);
- koszul: Koszul pages, restriction to the zero locus, the family count;
- bundles: bundle tensor calculus and the vanishing claims table;
- motivic: classes as coefficient lists in L, the L-equivalence certificate;
- hodge: the middle-degree comparison deciding Hodge-isometry parity;
- minors: the exact integer kernel, Bareiss determinants and compounds;
- pluecker: exact Pluecker coordinates and the section symmetry probe;
- cli: the `cypairs` command line front end.
"""

import importlib.util
import sys

# No module of the package uses numpy.  perfbench/worker.py reads
# sys.modules["numpy"].__version__ after importing cypairs, so numpy gets a
# lazy entry there: its code runs on the first attribute access, never on
# import, and a later `import numpy` returns the real module.  Without numpy
# nothing is registered.
_spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
if _spec is not None:
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["numpy"])
del _spec

from .bundles import (
    Bundle,
    cohomology_table,
    rank,
    tensor,
    verify_vanishing_claims,
    wedge_q,
)
from .bwb import CohomologyGroup, canonicalize, cohomology, serre_dual
from .hodge import middle_decomposition, poincare_grassmannian
from .koszul import (
    RestrictedCohomology,
    deformation_sweep,
    family_dimension,
    koszul_page,
    restricted_cohomology,
)
from .motivic import class_flag, gaussian_binomial, l_equivalence_certificate
from .partitions import littlewood_richardson, partitions_of, weyl_dimension
from .pluecker import (
    compound,
    pluecker_embed,
    section_eval,
    symmetry_obstruction_probe,
    transposition_action,
)
from .symfunc import (
    BudgetExceeded,
    determinant_multiplicity,
    dimension_gap,
    find_witness,
    plethysm_wedge,
)

__version__ = "0.1.0"

__all__ = [
    "Bundle",
    "BudgetExceeded",
    "CohomologyGroup",
    "RestrictedCohomology",
    "canonicalize",
    "class_flag",
    "cohomology",
    "cohomology_table",
    "compound",
    "deformation_sweep",
    "determinant_multiplicity",
    "dimension_gap",
    "family_dimension",
    "find_witness",
    "gaussian_binomial",
    "koszul_page",
    "l_equivalence_certificate",
    "littlewood_richardson",
    "middle_decomposition",
    "partitions_of",
    "plethysm_wedge",
    "pluecker_embed",
    "poincare_grassmannian",
    "rank",
    "restricted_cohomology",
    "section_eval",
    "serre_dual",
    "symmetry_obstruction_probe",
    "tensor",
    "transposition_action",
    "verify_vanishing_claims",
    "wedge_q",
    "weyl_dimension",
]
