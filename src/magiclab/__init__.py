"""Distance magic indices of partite graphs.

Closed-form index computations with certified witness labelings, the
Kotzig-array and quasimagic-rectangle constructions behind them, and an
independent brute-force oracle for desk-scale cross-checking.
"""

from .arrays import MagicArray, kotzig_array, qmr, verify_kotzig, verify_qmr
from .bipartite import label_bipartite, split_equal_sums, theta_bipartite
from .errors import (
    BudgetExceededError,
    DomainError,
    GraphSpecError,
    InternalInconsistencyError,
    MagiclabError,
    SizeLimitError,
)
from .families import (
    DECISION_TABLES,
    label_by_qmr_columns,
    theta_K_ab,
    theta_lex_regular,
    theta_mC_lex,
    theta_mK_ab,
)
from .graphs import (
    Graph,
    build_complete_multipartite,
    build_cycle,
    disjoint_union,
    lex_blowup,
    parse_graph_spec,
    read_adjacency_file,
)
from .labelings import (
    Labeling,
    ThetaResult,
    VerifyReport,
    verify_s_magic,
)
from .oracle import oracle_theta_general, oracle_theta_multipartite
from .tripartite import (
    classify_tripartite,
    label_tripartite,
    theta_tripartite,
    zeta,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
