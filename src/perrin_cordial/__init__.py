"""Perrin cordial labelings: generators, constructors, verifier, oracle, claims sweep."""

from .claims import (
    Claim,
    ClaimCheckRow,
    builtin_claims,
    claim_for,
    default_grid,
    rows_to_csv,
    rows_to_markdown,
    sweep,
    sweep_all,
)
from .construct import (
    CONSTRUCTORS,
    Constructed,
    Infeasible,
    SchemeExhaustedError,
    construct,
)
from .graph_io import (
    FormatError,
    export_dot,
    read_graph,
    read_labeling,
    write_graph,
    write_labeling,
)
from .graphs import (
    FAMILY_NAMES,
    FamilyParameterError,
    FamilySpec,
    Graph,
    generate,
)
from .labeling import (
    EdgeTally,
    InvalidLabelingError,
    LabelSupplyError,
    ParityPattern,
    PatternLengthError,
    PerrinLabeling,
    feasible_even_counts,
    is_cordial,
    is_valid,
    realize,
    tally,
    to_parity,
)
from .oracle import (
    GraphTooLargeError,
    SearchConfig,
    Verdict,
    decide_exhaustive,
    decide_parity,
)
from .perrin import (
    Parity,
    even_count,
    even_indices,
    odd_indices,
    perrin_parity,
    perrin_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
