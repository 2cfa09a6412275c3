"""Degree-sequence sufficient conditions for spanning structures.

All checkers index sorted degree sequences 1-based (d_1 is the smallest)
and evaluate real thresholds exactly: a degree satisfies ">= gamma*n" iff
it is >= ceil(gamma*n), computed in exact rational arithmetic.  A
slack margin gamma outside (0, 1) raises BadParameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digraph import Digraph, degree_profile
from .errors import NotOriented, TooSmall
from .ratio import Real, as_density, as_fraction, ceil_frac


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a degree condition check.

    failing_index / failing_clause are set only when satisfied is False:
    the 1-based index i at which the condition first fails, and a tag for
    which of the paired inequalities failed ("out", "in", or the odd-order
    variants "odd-out" / "odd-in").
    """

    satisfied: bool
    failing_index: int | None = None
    failing_clause: str | None = None

    def __bool__(self) -> bool:
        return self.satisfied


_OK = ConditionReport(True)


def nash_williams(D: Digraph) -> ConditionReport:
    """Paired first/last-segment degree condition.

    For every 1 <= i < n/2 both of the following must hold:
      d_i+ >= i+1  or  d_{n-i}- >= n-i        (tag "out")
      d_i- >= i+1  or  d_{n-i}+ >= n-i        (tag "in")
    """
    n = D.n
    if n < 3:
        raise TooSmall(f"need at least 3 vertices, got {n}")
    prof = degree_profile(D)
    dout, din = prof.out_sorted, prof.in_sorted
    for i in range(1, (n + 1) // 2):  # all i with i < n/2
        if not (dout[i - 1] >= i + 1 or din[n - i - 1] >= n - i):
            return ConditionReport(False, i, "out")
        if not (din[i - 1] >= i + 1 or dout[n - i - 1] >= n - i):
            return ConditionReport(False, i, "in")
    return _OK


def asymptotic_nash_williams(D: Digraph, gamma: Real) -> ConditionReport:
    """Slack variant of the paired condition.

    For every 1 <= i < n/2:
      d_i+ >= i + ceil(gamma*n)  or  d_{n-i-ceil(gamma*n)}- >= n-i
    and the in/out mirror.  When the second clause's index falls below 1
    the clause is treated as unsatisfiable, forcing the partner clause.
    """
    n = D.n
    if n < 1:
        raise TooSmall("empty digraph")
    g = ceil_frac(as_density(gamma, "gamma") * n)
    prof = degree_profile(D)
    dout, din = prof.out_sorted, prof.in_sorted

    def partner(seq: tuple[int, ...], i: int) -> bool:
        j = n - i - g
        return j >= 1 and seq[j - 1] >= n - i

    for i in range(1, (n + 1) // 2):
        if not (dout[i - 1] >= i + g or partner(din, i)):
            return ConditionReport(False, i, "out")
        if not (din[i - 1] >= i + g or partner(dout, i)):
            return ConditionReport(False, i, "in")
    return _OK


def posa_type(D: Digraph, gamma: Real) -> ConditionReport:
    """Sorted-degree growth condition with margin gamma*n.

    Requires d_i+, d_i- >= i + gamma*n for all 1 <= i < (n-1)/2, and for
    odd n additionally d+_{ceil(n/2)}, d-_{ceil(n/2)} >= (1/2+gamma)*n.
    """
    n = D.n
    if n < 3:
        raise TooSmall(f"need at least 3 vertices, got {n}")
    frac_g = as_density(gamma, "gamma")
    g = ceil_frac(frac_g * n)
    prof = degree_profile(D)
    dout, din = prof.out_sorted, prof.in_sorted
    i = 1
    while 2 * i < n - 1:  # i < (n-1)/2
        if dout[i - 1] < i + g:
            return ConditionReport(False, i, "out")
        if din[i - 1] < i + g:
            return ConditionReport(False, i, "in")
        i += 1
    if n % 2 == 1:
        mid = (n + 1) // 2
        need = ceil_frac((Fraction(1, 2) + frac_g) * n)
        if dout[mid - 1] < need:
            return ConditionReport(False, mid, "odd-out")
        if din[mid - 1] < need:
            return ConditionReport(False, mid, "odd-in")
    return _OK


@dataclass(frozen=True)
class OrientedReport:
    """Two independent flags for oriented digraphs: the minimum-semidegree
    bound and the combined degree-sum bound."""

    semidegree_ok: bool
    degree_sum_ok: bool

    @property
    def satisfied(self) -> bool:
        return self.semidegree_ok and self.degree_sum_ok

    def __bool__(self) -> bool:
        return self.satisfied


def oriented_semidegree(D: Digraph, epsilon: Real) -> OrientedReport:
    """Check (a) min semidegree >= (3/8 + eps) n and (b)
    delta+ + delta- + delta >= 3n/2 + eps n, on an oriented digraph."""
    eps = as_fraction(epsilon)
    M = D.bool_matrix()
    digons = np.argwhere(M & M.T)
    if len(digons):
        u, v = digons[0].tolist()
        raise NotOriented(f"digon between {u} and {v}")
    n = D.n
    prof = degree_profile(D)
    semi_ok = prof.delta_zero >= ceil_frac((Fraction(3, 8) + eps) * n)
    total = prof.delta_plus + prof.delta_minus + prof.delta_min_total
    sum_ok = total >= ceil_frac(Fraction(3, 2) * n + eps * n)
    return OrientedReport(semi_ok, sum_ok)
