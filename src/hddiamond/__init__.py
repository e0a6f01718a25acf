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

from . import capacity, errors, network, selection, simplex, submodular, verify
from .capacity import *
from .errors import *
from .network import *
from .selection import *
from .simplex import *
from .submodular import *
from .verify import *

__version__ = "0.1.0"

#: The public names: each module's own ``__all__``, and nothing else.
__all__ = sorted(
    name
    for module in (capacity, errors, network, selection, simplex, submodular, verify)
    for name in module.__all__
)
