"""pmkit: exact computation with integer polymatroids on small ground sets.

Rank tables, minors, duality; the clone-expansion matroid through its count
grid; compressions; corner decompositions; excluded-minor catalogs for
forbidden-uniform classes; base/independence polytope lattice geometry; and a
CLI (`pmkit`) over flat JSON/CSV files.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    MaxSepMatroid,
    RankTable,
    add,
    canonical_form,
    canonical_key,
    contract,
    delete,
    direct_sum,
    doubleton,
    is_isomorphic,
    iter_rank_tables,
    k_dual,
    nullity,
    random_rank_table,
    scalar_multiply,
    simplify,
    singleton,
    uniform,
    validate,
)
from .natural import (  # noqa: F401
    MultisetRankGrid,
    clone_check,
    minor_multiset_rank,
    multiset_rank,
    multiset_rank_oracle,
    natural_rank,
    partition_map,
)
from .compression import (  # noqa: F401
    CompressionStep,
    compress,
    compression_chain,
    is_in_gamma,
)
from .decomposition import (  # noqa: F401
    CornerDecomposition,
    compression_collapse,
    corner_confinement,
    corner_decompose,
    corner_decompose_exhaustive,
    decompose_via_minors,
    doubleton_canonical_tau,
    essential_bound,
    glue_decomposition,
)
from .minors import (  # noqa: F401
    ClassSpec,
    ExcludedMinorRecord,
    MinorWitness,
    check_witness,
    class_membership,
    count_formula,
    doubleton_table_row,
    dual_closure_check,
    enumerate_doubleton_excluded,
    enumerate_singleton_excluded,
    gamma_size_check,
    has_uniform_minor,
    in_class,
    is_excluded_minor,
    nullity_prune,
    search_excluded,
)
from .polytope import (  # noqa: F401
    MinorFace,
    base_vertices,
    in_base_polytope,
    in_independence_polytope,
    lattice_points,
    minor_face,
)
from .errors import PmkitError  # noqa: F401
