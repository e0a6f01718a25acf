"""The float slacks that result checks read, by what each one bounds.

Exact arithmetic compares exactly and reads none of these.  Each use site
keeps its own form: absolute, or scaled by ``max(1, |v|)``.  The LP
engine's own thresholds (``simplex._TOL``, ``simplex._EPS_ZERO_RHS`` and
``capacity._solve``'s growth ``eps``) are each read by one function and
live next to it.
"""

#: Rounding of a handful of float additions: ties between two sums of the
#: same terms, probabilities that are zero in all but rounding, and
#: comparisons of fractions that were computed the same way.
ROUNDOFF = 1e-12

#: Agreement of a float result with an exact fact: a closed-form value, a
#: proven floor, a probability sum of 1, or a cut that ties the minimum.
AGREE = 1e-9

#: How far apart two separately computed float solves may settle: the
#: floor-to-ceiling gap a float solve returns without escalating, and any
#: comparison between the outputs of two solves.
SETTLED = 1e-8
