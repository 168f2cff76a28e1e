"""Exact solvers for cooperative bike-sharing schedules on the unit interval.

m agents walk at speed 1; b <= m bikes boost a rider to speed v_k > 1 and can
be dropped for someone behind to pick up.  This package constructs provably
optimal schedules -- either delivering every bike to the end (``solve_bs``) or
allowing one bike to be abandoned (``solve_rbs``) -- together with the exact
lower bound each makespan attains, plus the machinery around them: exact
completion-time algebra, feasibility checking, a rational-arithmetic LP for
the best partition of a fixed ride matrix, schedule standardization and size
reduction, waiting-time elimination, and a brute-force oracle for
certification on small instances.
"""

from .model import (
    BoundCertificate,
    CompletionProfile,
    ContractError,
    FeasibilityReport,
    ProblemInstance,
    Schedule,
    ScheduleMatrix,
    Violation,
    TIGHT_AVERAGE,
    TIGHT_ONE_ABANDONED,
    TIGHT_SECOND_SLOWEST,
    TIGHT_SLOWEST,
    abandonment_vector,
    average_bound,
    check_feasible,
    completion_profile,
    one_abandonment_bound,
)
from .lp import PartitionLP, build_lp, solve_partition
from .normalize import StandardFormReport, is_standard_form, reduce_schedule, standardize
from .bs import relay_reference, relay_schedule, solve_bs
from .rbs import RbsSolution, UnsupportedAbandonmentError, abandon_slowest, solve_rbs
from .waiting import remove_all_waits
from .oracle import (
    BudgetExceededError,
    EnumerationBudget,
    brute_force_bs,
    brute_force_rbs,
)
from .rational import format_fraction, to_fraction

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "BudgetExceededError",
    "CompletionProfile",
    "ContractError",
    "EnumerationBudget",
    "FeasibilityReport",
    "PartitionLP",
    "ProblemInstance",
    "RbsSolution",
    "Schedule",
    "ScheduleMatrix",
    "StandardFormReport",
    "UnsupportedAbandonmentError",
    "Violation",
    "TIGHT_AVERAGE",
    "TIGHT_ONE_ABANDONED",
    "TIGHT_SECOND_SLOWEST",
    "TIGHT_SLOWEST",
    "abandon_slowest",
    "abandonment_vector",
    "average_bound",
    "brute_force_bs",
    "brute_force_rbs",
    "build_lp",
    "check_feasible",
    "completion_profile",
    "format_fraction",
    "is_standard_form",
    "one_abandonment_bound",
    "reduce_schedule",
    "relay_reference",
    "relay_schedule",
    "remove_all_waits",
    "solve_bs",
    "solve_partition",
    "solve_rbs",
    "standardize",
    "to_fraction",
]
