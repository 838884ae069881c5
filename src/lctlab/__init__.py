"""lctlab: exact singularity invariants of monomial ideals and polynomial germs."""

__version__ = "0.1.0"

from .exactgeom import (  # noqa: F401
    MonomialIdeal,
    NewtonPolyhedron,
    build_polyhedron,
    covolume,
    diagonal_intercept,
    maximal_ideal,
    minkowski_sum,
    polyhedron_of,
)
from .invariants import (  # noqa: F401
    LelongVector,
    lct_monomial,
    lelong_numbers,
    loja_monomial,
    mixed_multiplicity,
)
from .germs import (  # noqa: F401
    IdealPresentation,
    Polynomial,
    check_isolated,
    jacobian_ideal,
    lct_nondegenerate,
    monomialize,
    parse_polynomial,
    product_with_maximal,
)
from .sections import (  # noqa: F401
    LojaEstimate,
    LojaParams,
    PlaneRestriction,
    loja_line,
    loja_numeric,
    polar_invariant,
    restrict,
    sample_plane,
)
from .verify import (  # noqa: F401
    CorpusConfig,
    Report,
    Verdict,
    corpus_run,
    emit_report,
    probe_pham,
    random_ideal,
    verify_chain,
    verify_lct_dominates,
    verify_main,
)
