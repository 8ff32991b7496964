"""Exact solver for valued CSPs whose operation structure mixes a
commutative conservative pair with majority/minority behaviour on the
remaining label pairs."""

from .costs import INF, is_finite
from .errors import (
    CapExceeded,
    FormatError,
    StageError,
    ValidationError,
    VcspError,
)
from .model import (
    DEFAULT_CAP,
    CostTable,
    DomainSpec,
    Instance,
    Term,
)
from .operations import (
    BinaryPair,
    MjnTriple,
    OperationSystem,
    PairSet,
    TernaryOp,
    build_majority,
    check_binary_multimorphism,
    check_ternary_multimorphism,
    is_mjn_on,
    is_stp_on,
)
from .solvers import (
    SolveResult,
    extract_tournament_order,
    solve_bruteforce,
    solve_pipeline,
    solve_stp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
