"""cayleyforge: length-reducing string rewriting, confluence checking,
Cayley-graph balls, and digraph isomorphism verification."""

from .cayley import (
    CayleyBall,
    Fingerprint,
    UnlabelledDigraph,
    build_ball,
    export_dot,
    export_json,
    graph_invariants,
    strip_labels,
)
from .confluence import (
    DEFAULT_SCHEMA_BOUND,
    ConfluenceReport,
    CriticalPair,
    NotConfluentError,
    certify,
    check_local_confluence,
    critical_pairs,
    instantiated_rules,
    words_equal,
)
from .isomorphism import (
    IsoCertificate,
    IsoReport,
    SearchResult,
    SeparationReport,
    find_isomorphism,
    separate_left_graphs,
    validate_certificate,
    verify_explicit_iso,
)
from .normal_forms import ab_to_cd, enumerate_normal_forms
from .presentations import (
    BUILTIN_SYSTEMS,
    PresentationError,
    load_presentation,
    parse_presentation,
    system_m,
    system_n,
    truncated_system_m,
)
from .rewriting import (
    IncompleteSystemError,
    Match,
    ReductionStep,
    RewriteRule,
    RewritingSystem,
    RuleSchema,
    Word,
    describe_match,
    first_match,
    is_irreducible,
    normal_form,
    reduction_steps,
)

__version__ = "0.1.0"
