"""gkcert: exact-arithmetic certificates for the Gross-Kuz'min and Gross
order-of-vanishing conjectures.

Everything in this package is exact: arbitrary-precision integers and
rationals, character values as integer coordinates in the power basis of
Z[zeta_e], character tables verified by orthogonality, and
Dedekind-certified prime splitting.  No floating point anywhere.
"""

from .certificates import Certificate, CertificateStore, Conclusion, Hypothesis, Status
from .characters import Character, character_table, fixed_dim, odd_rows
from .cyclotomic import cyclotomic_poly
from .extensions import (
    BUILTIN_PIECES,
    Compositum,
    ExtensionDescriptor,
    PrimeRecord,
    QuadraticComponent,
    RadicalCMPiece,
    build_compositum_over_Q,
    check_tower_disjointness,
    classify_primes,
    ingest_extension,
    to_document,
)
from .groups import (
    FiniteGroup,
    abelian_group,
    build_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    subgroup_embedding,
)
from .harness import (
    EXAMPLE_ROWS,
    RunConfig,
    check_example_table,
    run,
    scan_split_primes,
    search_theoremB,
)
from .intpoly import IntPoly, count_real_roots, from_vector, poly_discriminant
from .modpoly import ModPFactorization, factor_mod_p
from .numberfield import (
    NumberField,
    SplittingType,
    make_field,
    splitting_type,
)
from .rules import certify, klingen_criterion
from .towers import (
    ChevalleyResult,
    Stability,
    TowerData,
    TowerLayer,
    chevalley_eval,
    gkc_minus_stabilization,
)
from .vanishing import tate_order

__version__ = "0.1.0"
