"""Approximate-capacity toolkit for Gaussian half-duplex diamond relay
networks.

The network model: a source talks to a destination only through ``n``
relays; relay ``i`` hears the source over a link of point-to-point
capacity ``uplinks[i-1]`` and talks to the destination over a link of
capacity ``downlinks[i-1]``.  Relays cannot listen and talk at the same
time, so the schedule — a probability distribution over the ``2**n``
listen/transmit configurations — is part of the code design.

The constant-gap capacity approximation is the value of a two-player
zero-sum matrix game between the schedule (maximizer) and network cuts
(minimizer); :func:`hd_capacity` computes it with a self-contained
simplex core, :func:`fd_capacity` the full-duplex counterpart, and the
``selection`` module picks relay subsets with proven fraction
guarantees.  :func:`sparsify_schedule` returns an optimal schedule on at
most ``n + 1`` states; a rational :func:`hd_capacity` schedule always is one.
``verify`` re-checks every structural claim the package relies on, on
both pinned and randomized instances.
"""

from .capacity import (
    CapacityResult,
    RateValue,
    cut_state_value,
    fd_capacity,
    fd_capacity_fast,
    fixed_schedule_rate,
    hd_capacity,
    single_relay_capacity,
    sparsify_schedule,
    subnetwork_seeds,
)
from .errors import BoundViolation, GuardExceeded, NetworkFormatError, SolverFailure
from .network import (
    UNBOUNDED,
    DiamondNetwork,
    LinkValue,
    Schedule,
    derive_natural_schedule,
    full_mask,
    gen_half_tight,
    gen_random,
    gen_two_phase_schedule,
    gen_worst_case,
    invert_mask,
    is_unbounded,
    links_from_gains,
    load_network,
    mask_from_relays,
    network_from_dict,
    network_to_dict,
    parse_mask,
    parse_network,
    relays_from_mask,
    render_mask,
    render_network,
    restrict_mask,
    save_network,
    schedule_from_dict,
    schedule_to_dict,
    value_from_json,
    value_to_json,
)
from .selection import (
    STRATEGIES,
    SelectionReport,
    drop_worst,
    guarantee_bound,
    select_drop_one_schedule_reuse,
    select_k,
    select_k_exhaustive,
    select_k_iterative,
    worst_relay_index,
)
from .simplex import LPResult, solve_lp
from .submodular import (
    CutCompletionCheck,
    InequalityCheck,
    SubmodularityCheck,
    check_complement_duality,
    check_cut_completion_bound,
    check_kwise_intersection_inequality,
    check_threshold_sum_inequality,
    complete_cut_family,
    is_submodular,
    max_weight_function,
    threshold_sets,
)
from .verify import SUITES, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundViolation",
    "CapacityResult",
    "CutCompletionCheck",
    "DiamondNetwork",
    "GuardExceeded",
    "InequalityCheck",
    "LPResult",
    "LinkValue",
    "NetworkFormatError",
    "RateValue",
    "STRATEGIES",
    "Schedule",
    "SelectionReport",
    "SolverFailure",
    "SubmodularityCheck",
    "SUITES",
    "SuiteReport",
    "UNBOUNDED",
    "check_complement_duality",
    "check_cut_completion_bound",
    "check_kwise_intersection_inequality",
    "check_threshold_sum_inequality",
    "complete_cut_family",
    "cut_state_value",
    "derive_natural_schedule",
    "drop_worst",
    "fd_capacity",
    "fd_capacity_fast",
    "fixed_schedule_rate",
    "full_mask",
    "gen_half_tight",
    "gen_random",
    "gen_two_phase_schedule",
    "gen_worst_case",
    "guarantee_bound",
    "hd_capacity",
    "invert_mask",
    "is_submodular",
    "is_unbounded",
    "links_from_gains",
    "load_network",
    "mask_from_relays",
    "max_weight_function",
    "network_from_dict",
    "network_to_dict",
    "parse_mask",
    "parse_network",
    "relays_from_mask",
    "render_mask",
    "render_network",
    "restrict_mask",
    "run_suite",
    "save_network",
    "schedule_from_dict",
    "schedule_to_dict",
    "select_drop_one_schedule_reuse",
    "select_k",
    "select_k_exhaustive",
    "select_k_iterative",
    "single_relay_capacity",
    "solve_lp",
    "sparsify_schedule",
    "subnetwork_seeds",
    "threshold_sets",
    "value_from_json",
    "value_to_json",
    "worst_relay_index",
]
