"""Exact finite-group toolkit: conjugacy-class predicates and verification.

The core question the package answers: in a given finite group, are every two
(abelian / cyclic / nilpotent / supersolvable / arbitrary) subgroups of equal
(prime-power) order conjugate?  On top of the predicates sit structural
invariants, a corpus of constructed groups and a registry of consistency
checks with re-verifiable witnesses.
"""

from .caps import Caps, CapExceeded, default_caps
from .groups import (
    Group,
    Subgroup,
    center,
    centralizer,
    direct_product,
    is_normal,
    normalizer,
    quotient,
    semidirect_product,
)
from .perms import ParseError, Permutation, parse_permutation
from .predicates import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    ClassId,
    ClassReport,
    Witness,
    decide,
    hierarchy_report,
    verify_witness,
)
from .structure import (
    StructuralFingerprint,
    SylowShape,
    core_p,
    derived_series,
    derived_subgroup,
    fitting_subgroup,
    is_isomorphic_small,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    normal_subgroups,
    o_pprime,
    structural_fingerprint,
    sylow_shape,
    sylow_subgroup,
)
from .subgroups import (
    SubgroupClass,
    all_subgroup_classes,
    are_conjugate,
    p_subgroup_classes,
)
from .zoo import (
    build_semidirect_dataset,
    construct,
    format_group_file,
    ingest,
    parse_group_file,
)

__version__ = "0.1.0"


def __getattr__(name):
    # DEFAULT_CAPS is read from the environment on first use (caps.default_caps)
    if name == "DEFAULT_CAPS":
        return default_caps()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
