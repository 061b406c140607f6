"""gkcert: exact-arithmetic certificates for the Gross-Kuz'min and Gross
order-of-vanishing conjectures.

Everything in this package is exact: arbitrary-precision integers and
rationals, cyclotomic numbers in the power basis, character tables verified
by orthogonality, and Dedekind-certified prime splitting.  No floating
point anywhere.
"""

from .certificates import Certificate, CertificateStore, Conclusion, Hypothesis, Status
from .characters import (
    Character,
    ClassFunction,
    Parity,
    character_table,
    fixed_dim,
    inner_product,
    odd_characters,
    parity,
)
from .cyclotomic import CycNumber, cyclotomic_poly
from .extensions import (
    BUILTIN_PIECES,
    Compositum,
    CyclotomicComponent,
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
    cyclotomic_field,
    is_totally_split,
    make_field,
    splitting_type,
)
from .rules import certify, klingen_criterion, rank_bound
from .towers import (
    ChevalleyResult,
    Stability,
    TowerData,
    TowerLayer,
    chevalley_eval,
    gkc_minus_stabilization,
)
from .vanishing import (
    GKC_ASSUMED,
    BvComponent,
    VanishingReport,
    bv_component,
    lifted_order,
    t_order_ledger,
    tate_order,
)

__version__ = "0.1.0"
