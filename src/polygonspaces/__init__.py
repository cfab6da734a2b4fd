"""Moduli spaces of planar polygons as explicit cell complexes."""

__version__ = "0.1.0"

from .coxeter import (  # noqa: F401
    Cell,
    RegularCellComplex,
    coxeter_complex,
    projective_quotient,
)
from .errors import (  # noqa: F401
    AuditError,
    ChainInterferenceError,
    GroundSetTooLargeError,
    InvalidCodeError,
    Not2DError,
    NotApplicableError,
    NonGenericError,
    PolygonSpacesError,
    SphereRelocationFailedError,
    TooLargeError,
)
from .genetics import (  # noqa: F401
    GeneticCode,
    LengthVector,
    SaturatedChain,
    enumerate_codes,
    format_code,
    genetic_code,
    minimal_code,
    minimal_long_sets,
    parse_code,
    realize,
    saturated_chain,
    surgery_signature,
    up_covers,
)
from .homology import (  # noqa: F401
    HomologyReport,
    SimplicialComplex,
    betti_oracle,
    homology,
    identify_small,
)
from .posets import (  # noqa: F401
    Barred,
    FinitePoset,
    Interval,
    canonical_partition,
    comb_surgery,
    intersection_poset,
    partition_str,
    poset_isomorphic,
)
from .surgery import (  # noqa: F401
    ChainStep,
    ModelResult,
    ModelStep,
    locate_sphere,
    run_chain,
    run_model,
    sphere_cells,
    step_locus,
    surgery_2d,
)
