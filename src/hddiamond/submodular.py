"""Submodular set-function machinery behind the relay-selection guarantees.

The combinatorial heart of "dropping a relay can't hurt too much" arguments:
max-of-weights functions are submodular, and any family of n sets can be
replaced by its *threshold sets* (the elements appearing in at least j of
the family, for j = 1..n) without increasing the total f-value.  Applied to
the best cuts of the n leave-one-out subnetworks of a diamond network, that
rearrangement manufactures n-1 cuts of the *full* network whose total value
is no larger — which is exactly what pins the sum of subnetwork capacities
against the full capacity.

Set functions here are plain callables ``f(frozenset) -> number``; elements
are arbitrary hashables (relay indices in practice).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Iterable, Sequence

from ._tolerance import AGREE, below
from .capacity import cut_state_value
from .errors import GuardExceeded
from .network import UNBOUNDED, DiamondNetwork, LinkValue, is_unbounded

__all__ = [
    "InequalityCheck",
    "SubmodularityCheck",
    "CutCompletionCheck",
    "threshold_sets",
    "check_threshold_sum_inequality",
    "check_kwise_intersection_inequality",
    "is_submodular",
    "complete_cut_family",
    "check_cut_completion_bound",
    "check_complement_duality",
    "max_weight_function",
]

SetFunction = Callable[[frozenset], LinkValue]

#: Largest ground set is_submodular enumerates (about 3/8 * n^2 * 2^n calls of f).
_GROUND_GUARD = 12


@dataclass(frozen=True)
class InequalityCheck:
    """Both sides of an inequality ``lhs >= rhs`` and whether it holds:
    exactly when both sides are exact, else within ``AGREE``."""

    lhs: LinkValue
    rhs: LinkValue
    holds: bool


@dataclass(frozen=True)
class SubmodularityCheck:
    holds: bool
    #: (base set, x, y) with f(S+x) + f(S+y) < f(S+x+y) + f(S), if any
    witness: tuple[frozenset, Hashable, Hashable] | None


@dataclass(frozen=True)
class CutCompletionCheck:
    lhs: LinkValue
    rhs: LinkValue
    holds: bool
    full_cuts: tuple[frozenset, ...]


def _as_family(sets: Iterable[Iterable[Hashable]]) -> tuple[frozenset, ...]:
    fam = tuple(frozenset(s) for s in sets)
    if not fam:
        raise ValueError("need at least one set")
    return fam


def threshold_sets(sets: Iterable[Iterable[Hashable]]) -> list[frozenset]:
    """Threshold family of n sets: entry j-1 is the set of elements lying in
    at least j of them.  Always decreasing: each entry contains the next."""
    fam = _as_family(sets)
    counts = Counter(x for s in fam for x in s)
    return [
        frozenset(x for x, c in counts.items() if c >= j)
        for j in range(1, len(fam) + 1)
    ]


def check_threshold_sum_inequality(
    f: SetFunction, sets: Iterable[Iterable[Hashable]]
) -> InequalityCheck:
    """For submodular f: sum of f over a family >= sum of f over its
    threshold sets.  Evaluates both sides and compares them: exactly for
    exact-valued f, else within ``AGREE``."""
    fam = _as_family(sets)
    lhs = sum(f(s) for s in fam)
    rhs = sum(f(e) for e in threshold_sets(fam))
    return InequalityCheck(lhs, rhs, not below(lhs, rhs, AGREE))


def _union_of_intersections(
    family: Sequence[frozenset],
    k: int,
    ambient: frozenset,
    extra: frozenset | None = None,
) -> frozenset:
    """Union over all k-subsets I of the family of (extra ∩) ⋂_{i in I} A_i.

    The empty intersection (k = 0) reads as the ambient set, so with
    ``extra`` given the k = 0 term is just ``extra``.
    """
    out: set = set()
    for pick in combinations(family, k):
        cur = set(ambient if extra is None else extra)
        for s in pick:
            cur &= s
        out |= cur
    return frozenset(out)


def check_kwise_intersection_inequality(
    f: SetFunction,
    sets: Iterable[Iterable[Hashable]],
    extra: Iterable[Hashable],
    k: int,
) -> InequalityCheck:
    """The exchange step that powers the threshold-sum inequality.

    With U_k(fam; g) := union over k-subsets I of fam of (g ∩ ⋂_{i∈I} A_i),
    a submodular f satisfies, for 0 <= k < n and any extra set B:

        f(U_k(fam; B)) + f(U_{k+1}(fam))
            >= f(U_{k+1}(fam + [B])) + f(U_{k+1}(fam; B)).

    Evaluates both sides for the given family/extra/k and compares them:
    exactly for exact-valued f, else within ``AGREE``.  The empty
    intersection (k = 0) reads as the union of the family and B.
    """
    fam = _as_family(sets)
    n = len(fam)
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < {n}, got k={k}")
    b = frozenset(extra)
    omega = frozenset().union(*fam, b)
    lhs = f(_union_of_intersections(fam, k, omega, extra=b)) + f(
        _union_of_intersections(fam, k + 1, omega)
    )
    rhs = f(_union_of_intersections(tuple(fam) + (b,), k + 1, omega)) + f(
        _union_of_intersections(fam, k + 1, omega, extra=b)
    )
    return InequalityCheck(lhs, rhs, not below(lhs, rhs, AGREE))


def is_submodular(
    f: SetFunction,
    ground: Iterable[Hashable],
) -> SubmodularityCheck:
    """Exhaustively test the diminishing-returns characterization
    f(S+x) + f(S+y) >= f(S+x+y) + f(S) for all S and distinct x, y outside
    S (equivalent to submodularity on a finite ground set): exactly for
    exact-valued f, else within ``AGREE``.  Exponential in the ground size,
    hence the guard."""
    elems = sorted(set(ground), key=repr)
    n = len(elems)
    if n > _GROUND_GUARD:
        raise GuardExceeded(f"is_submodular over {n} elements exceeds guard {_GROUND_GUARD}")
    for mask in range(1 << n):
        s = frozenset(elems[i] for i in range(n) if mask >> i & 1)
        rest = [e for i, e in enumerate(elems) if not mask >> i & 1]
        base = f(s)
        for x, y in combinations(rest, 2):
            if below(f(s | {x}) + f(s | {y}), f(s | {x, y}) + base, AGREE):
                return SubmodularityCheck(False, (s, x, y))
    return SubmodularityCheck(True, None)


def complete_cut_family(
    subnet_cuts: Sequence[Iterable[int]], n: int
) -> list[frozenset]:
    """Turn one cut per leave-one-out subnetwork into n-1 full-network cuts.

    ``subnet_cuts[i-1]`` must be a cut of the subnetwork missing relay i,
    i.e. a subset of {1..n}\\{i}.  The returned cuts are the first n-1
    threshold sets of the family (the n-th is provably empty, since relay i
    never appears in its own cut), they do not depend on any link values,
    and their total full-network cut value never exceeds the total
    subnetwork cut value (see :func:`check_cut_completion_bound`).
    """
    if len(subnet_cuts) != n:
        raise ValueError(f"need exactly {n} cuts, got {len(subnet_cuts)}")
    fam = []
    for i, cut in enumerate(subnet_cuts, start=1):
        cs = frozenset(cut)
        if not all(isinstance(x, int) and 1 <= x <= n for x in cs) or i in cs:
            raise ValueError(
                f"cut {i} must be a subset of 1..{n} excluding {i}, got {sorted(cs)}"
            )
        fam.append(cs)
    thresh = threshold_sets(fam)
    assert thresh[-1] == frozenset(), "threshold set n should be empty"
    return thresh[: n - 1]


def _total(terms: Iterable[LinkValue]) -> LinkValue:
    """Sum of cut values, unbounded when any term is: adding ``math.inf``
    to an exact int past the float range would overflow."""
    terms = list(terms)
    return UNBOUNDED if any(map(is_unbounded, terms)) else sum(terms)


def check_cut_completion_bound(
    net: DiamondNetwork,
    subnet_cuts: Sequence[Iterable[int]],
) -> CutCompletionCheck:
    """Evaluate both sides of the cut-completion guarantee on a network.

    Left side: total value of the given per-subnetwork cuts (for cut A_i of
    the subnetwork missing relay i: best uplink inside A_i plus best
    downlink among the subnetwork's relays outside it, the payoff of cut
    A_i against the state transmitting on those relays).  Right side: total
    full-network cut value of :func:`complete_cut_family` (cut A against
    the state ~A).  Any unbounded term makes its side unbounded.  The two
    compare exactly for exact links, else within ``AGREE``.
    """
    n = net.n
    full_cuts = complete_cut_family(subnet_cuts, n)
    relays = frozenset(range(1, n + 1))
    lhs = _total(
        cut_state_value(net, a, relays - {i} - a)
        for i, a in enumerate(map(frozenset, subnet_cuts), start=1)
    )
    rhs = _total(cut_state_value(net, a, relays - a) for a in full_cuts)
    return CutCompletionCheck(lhs, rhs, not below(lhs, rhs, AGREE), tuple(full_cuts))


def check_complement_duality(
    subnet_cuts: Sequence[Iterable[int]], n: int
) -> bool:
    """Structural identity behind the cut completion: complementing the
    j-th threshold set of the cuts within {1..n} gives the (n-j)-th
    threshold set of the complementary (destination-side) family, for
    j = 1..n-1."""
    fam = [frozenset(c) for c in subnet_cuts]
    if len(fam) != n:
        raise ValueError(f"need exactly {n} cuts, got {len(fam)}")
    dest_side = [
        frozenset(range(1, n + 1)) - {i} - a for i, a in enumerate(fam, start=1)
    ]
    source_thresh = threshold_sets(fam)
    dest_thresh = threshold_sets(dest_side)
    ground = frozenset(range(1, n + 1))
    return all(
        ground - source_thresh[j - 1] == dest_thresh[n - j - 1]
        for j in range(1, n)
    )


def max_weight_function(weights: dict) -> SetFunction:
    """The canonical submodular example: f(S) = max weight over S (0 on the
    empty set).  Useful for tests and demos."""

    def f(s: frozenset) -> LinkValue:
        return max((weights[x] for x in s), default=0)

    return f
