"""pgblock: exact workbench for mixed point/hyperplane blocking sets in PG(n, q).

Builds the small construction families, evaluates every relevant counting
bound exactly, verifies the blocking property by enumeration, and finds
all minimum blocking sets at desk scale by exhaustive or branch-and-bound
search.
"""

from .blocking import (BlockingSet, dual_set, is_blocking, is_minimal,
                       lemma_checks, pinned_hyperplanes, skew_space_profile,
                       tangent_closure, unblocked_count)
from .constructions import (PencilPartitionParams, bose_burton,
                            canonical_pencil_partition, pencil,
                            pencil_partition, q2_even_mixed_set,
                            recognize_pencil_partition)
from .counting import (gaussian, heger_nagy_upper_bound, metsch_dual_lower_bound,
                       metsch_lower_bound, minimum_size_bound, theta)
from .gf import Field, field_for_order
from .pgkernel import GeometryContext, Point, Subspace
from .search import (ClassificationVerdict, SearchReport, classify_minimum,
                     min_blocking_search, refute_below)

__version__ = "0.1.0"

__all__ = [
    "BlockingSet", "ClassificationVerdict", "Field", "GeometryContext",
    "PencilPartitionParams", "Point", "SearchReport", "Subspace",
    "bose_burton", "canonical_pencil_partition", "classify_minimum",
    "dual_set", "field_for_order", "gaussian", "heger_nagy_upper_bound",
    "is_blocking", "is_minimal", "lemma_checks",
    "metsch_dual_lower_bound", "metsch_lower_bound", "min_blocking_search",
    "minimum_size_bound",
    "pencil", "pencil_partition", "pinned_hyperplanes",
    "q2_even_mixed_set", "recognize_pencil_partition", "refute_below",
    "skew_space_profile", "tangent_closure", "theta", "unblocked_count",
]
