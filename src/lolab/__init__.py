"""lolab: an exact-arithmetic laboratory for weighted sums of random signs.

Computes exact atom probabilities of S = sum_i eps_i v_i (and of
progression-uniform relatives), evaluates the optimal closed-form bounds
with their extremal configurations, certifies the subset-family structure
behind scalar atoms, runs randomized verification campaigns, and searches
for counterexamples to two conjectured extensions. All claims are made in
rational arithmetic; floats appear only in the search scorer and the
exponential comparison bound.
"""

from .antichain import (
    FAMILY_CAP,
    SubsetFamily,
    build_family,
    is_antichain,
    is_k_intersecting,
    milner_report,
)
from .bounds import (
    BoundReport,
    TheoremTag,
    ap_uniform_bound,
    bound_dispatch,
    erdos_kleitman_bound,
    extremal_config,
    hoeffding_bound,
    milner_bound,
    nonuniform_bound,
    parity_correction,
    zero_odd_bound,
    zero_weights_extremal,
    zero_weights_sup,
)
from .engine import (
    ATOM_QUERY_CAP,
    FULL_LAW_CAP,
    LAW_ATOM_CAP,
    APUniformSpec,
    AtomDistribution,
    CapExceeded,
    WeightConfig,
    ap_uniform_sum_distribution,
    atom_probability,
    full_distribution,
    rademacher_atom,
)
from .oracle import (
    CAMPAIGN_CHECKS,
    CampaignReport,
    ConfigGenerator,
    EqualityRecord,
    ViolationRecord,
    derived_seed,
    run_campaign,
    verify_zero_weights_sup,
)
from .rational import (
    Vec,
    make_vec,
    norm_sq,
    rat,
    rat_str,
)
from .search import (
    AnnealResult,
    AnnealSettings,
    Candidate,
    CounterexampleCertificate,
    MarginRow,
    NormSpec,
    Refutation,
    SearchProblem,
    anneal,
    append_ledger,
    certify,
    margin_rows,
)

__version__ = "0.1.0"
