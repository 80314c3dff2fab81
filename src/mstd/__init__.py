"""More-sums-than-differences toolkit.

Exact sumset/difference-set arithmetic and MSTD classification on
finite integer sets, growth certificates ruling MSTD subsets out of
fast-growing sequences, exhaustive and Monte Carlo subset searches,
and the prime-constellation pipeline that produces MSTD sets of
primes.  The ``mstd`` console script exposes everything as
subcommands with JSON reports.
"""

from .errors import CapacityError, DomainError
from .primes import (
    AdmissibilityResult,
    MatchReport,
    PrimeSieve,
    PrimeTuple,
    SingularSeries,
    dilated_conway,
    find_prime_ap,
    is_admissible,
    match_tuple,
    mstd_in_ap,
    singular_series,
)
from .reproduce import CLAIM_IDS, MANIFEST, run_claim
from .search import (
    SearchConfig,
    SearchReport,
    exhaustive_search,
    min_mstd_diameter,
    minimal_mstd_in,
    monte_carlo_density,
    special_search,
)
from .sequences import (
    DifferenceBoundReport,
    FinitenessCertificate,
    GrowthCertificate,
    NoMstdCertificate,
    SequenceSpec,
    certify_finitely_many,
    certify_no_mstd,
    check_growth,
    materialize,
    verify_difference_bound,
)
from .sets import (
    CONWAY,
    DEFAULT_DIAMETER_CAP,
    AppendAnalysis,
    Classification,
    IntSet,
    append_analysis,
    base_expansion,
    classify,
    diffset,
    sum_diff_counts,
    sumset,
)

__version__ = "0.1.0"

__all__ = [
    "AppendAnalysis",
    "AdmissibilityResult",
    "CapacityError",
    "CLAIM_IDS",
    "CONWAY",
    "Classification",
    "DEFAULT_DIAMETER_CAP",
    "DifferenceBoundReport",
    "DomainError",
    "FinitenessCertificate",
    "GrowthCertificate",
    "IntSet",
    "MANIFEST",
    "MatchReport",
    "NoMstdCertificate",
    "PrimeSieve",
    "PrimeTuple",
    "SearchConfig",
    "SearchReport",
    "SequenceSpec",
    "SingularSeries",
    "append_analysis",
    "base_expansion",
    "certify_finitely_many",
    "certify_no_mstd",
    "check_growth",
    "classify",
    "diffset",
    "dilated_conway",
    "exhaustive_search",
    "find_prime_ap",
    "is_admissible",
    "match_tuple",
    "materialize",
    "min_mstd_diameter",
    "minimal_mstd_in",
    "monte_carlo_density",
    "mstd_in_ap",
    "run_claim",
    "singular_series",
    "special_search",
    "sum_diff_counts",
    "sumset",
    "verify_difference_bound",
]
