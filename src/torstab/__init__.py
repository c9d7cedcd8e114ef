"""Exact stability analysis for split-torus actions on projective-over-affine
models: numerical stability verdicts with destabilizing witnesses, invariant
rings with quotient presentations, and the expanded-degeneration case study
for Hilbert schemes of points on a degenerating conic.

All decision arithmetic is exact (arbitrary-precision integers and
rationals); no floating point enters any verdict.

The package attributes `classify` and `mu` are the exported functions, not
the submodules of the same names, which they replace on the package; so
`import torstab.classify as m` binds the function too.  Reach the modules
through `importlib.import_module("torstab.classify")` or
`sys.modules["torstab.classify"]`, for instance to monkeypatch a name they
use.
"""

__version__ = "0.1.0"

from .builtin import (
    builtin_problem,
    conic_bundle_problem,
    degenerating_conic_problem,
    king_theta1_problem,
)
from .classify import (
    PatternTable,
    StabilityStatus,
    Verdict,
    classify,
    classify_pattern,
    classify_patterns,
    stabilizer_order,
)
from .cones import (
    ConeProblem,
    FeasibilityResult,
    cone_has_nonzero,
    solve_cone,
)
from .degeneration import (
    ChainConfiguration,
    HilbertComponent,
    HilbertIncidence,
    Stratum,
    SweepReport,
    WeightTable,
    admissible,
    admissible_configs,
    build_weight_table,
    classify_config,
    compositions,
    config_stabilizer,
    hilbert_components,
    in_component_closure,
    mu_config,
    strata,
    sweep_equivalence,
)
from .errors import (
    DimensionMismatchError,
    InputError,
    InternalInvariantError,
    TorstabError,
    ZeroSectionError,
)
from .invariants import (
    MonomialInvariant,
    QuotientPresentation,
    invariant_monomials,
    minimal_generators,
    quotient_presentation,
    relations,
    semistable_via_sections,
)
from .model import (
    GitProblem,
    PointSample,
    Polynomial,
    SupportPattern,
    check_on_ideal,
    format_rational,
    parse_point,
    parse_problem,
    parse_rational,
    serialize_problem,
    support,
)
from .mu import limit_point, mu, mu_from_pattern
from .snf import IntegerLattice, lattice_rank_and_index
