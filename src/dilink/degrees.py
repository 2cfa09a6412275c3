"""Degree-sequence sufficient conditions for spanning structures.

All checkers index sorted degree sequences 1-based (d_1 is the smallest)
and evaluate real thresholds exactly: a degree satisfies ">= gamma*n" iff
it is >= ceil(gamma*n), computed in exact rational arithmetic.  A
slack margin gamma outside (0, 1), or an oriented margin epsilon outside
[0, 1), raises BadParameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digraph import Digraph
from .errors import BadParameter, NotOriented
from .ratio import Real, as_density, as_fraction


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


def _sorted_degrees(D: Digraph) -> tuple[np.ndarray, np.ndarray]:
    """D's out-degrees and in-degrees, each sorted nondecreasing."""
    M = D.bool_matrix()
    return np.sort(M.sum(axis=1)), np.sort(M.sum(axis=0))


def _paired(dout, din, margin: int, lag: int, stop: int) -> ConditionReport:
    """The paired rule on the sorted degree arrays dout and din for
    every 1 <= i < stop, the first failure (least i, "out" before "in")
    reported:
      d_i+ >= i + margin  or  d_{n-i-lag}- >= n-i     (tag "out")
      d_i- >= i + margin  or  d_{n-i-lag}+ >= n-i     (tag "in")
    where a partner index n-i-lag below 1 makes its clause unsatisfiable."""
    n = len(dout)
    i = np.arange(1, stop)
    j = n - i - lag  # the partner index, 1-based
    fails = np.empty((len(i), 2), dtype=bool)  # per i, the "out" then the "in" clause
    for col, (first, partner) in enumerate(((dout, din), (din, dout))):
        fails[:, col] = (first[i - 1] < i + margin) & ((j < 1) | (partner[np.maximum(j, 1) - 1] < n - i))
    if not fails.any():
        return _OK
    at = int(fails.argmax())
    return ConditionReport(False, at // 2 + 1, ("out", "in")[at % 2])


def nash_williams(D: Digraph) -> ConditionReport:
    """Paired first/last-segment degree condition.

    For every 1 <= i < n/2 both of the following must hold:
      d_i+ >= i+1  or  d_{n-i}- >= n-i        (tag "out")
      d_i- >= i+1  or  d_{n-i}+ >= n-i        (tag "in")
    """
    n = D.n
    if n < 3:
        raise BadParameter(f"need at least 3 vertices, got {n}")
    return _paired(*_sorted_degrees(D), 1, 0, (n + 1) // 2)  # all i with i < n/2


def asymptotic_nash_williams(D: Digraph, gamma: Real) -> ConditionReport:
    """Slack variant of the paired condition.

    For every 1 <= i < n/2:
      d_i+ >= i + ceil(gamma*n)  or  d_{n-i-ceil(gamma*n)}- >= n-i
    and the in/out mirror.  When the second clause's index falls below 1
    the clause is treated as unsatisfiable, forcing the partner clause.
    """
    n = D.n
    if n < 1:
        raise BadParameter("empty digraph")
    g = math.ceil(as_density(gamma, "gamma") * n)
    return _paired(*_sorted_degrees(D), g, g, (n + 1) // 2)


def posa_type(D: Digraph, gamma: Real) -> ConditionReport:
    """Sorted-degree growth condition with margin gamma*n.

    Requires d_i+, d_i- >= i + gamma*n for all 1 <= i < (n-1)/2, and for
    odd n additionally d+_{ceil(n/2)}, d-_{ceil(n/2)} >= (1/2+gamma)*n.
    """
    n = D.n
    if n < 3:
        raise BadParameter(f"need at least 3 vertices, got {n}")
    frac_g = as_density(gamma, "gamma")
    dout, din = _sorted_degrees(D)
    # lag n puts every partner index below 1, so only d_i >= i + margin counts
    if not (report := _paired(dout, din, math.ceil(frac_g * n), n, n // 2)):  # all i < (n-1)/2
        return report
    if n % 2 == 1:
        mid = (n + 1) // 2
        need = math.ceil((Fraction(1, 2) + frac_g) * n)
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
    delta+ + delta- + delta >= 3n/2 + eps n, on an oriented digraph.
    An epsilon outside [0, 1) raises BadParameter, before the digon check."""
    eps = as_fraction(epsilon)
    if not 0 <= eps < 1:
        raise BadParameter(f"epsilon must lie in [0, 1), got {epsilon}")
    M = D.bool_matrix()
    digons = np.argwhere(M & M.T)
    if len(digons):
        u, v = digons[0].tolist()
        raise NotOriented(f"digon between {u} and {v}")
    n = D.n
    outs, ins = M.sum(axis=1), M.sum(axis=0)
    # initial=2n lies above every degree sum, and makes each minimum 0 at n = 0
    dplus, dminus, dtotal = (int(x.min(initial=2 * n)) for x in (outs, ins, outs + ins))
    semi_ok = min(dplus, dminus) >= math.ceil((Fraction(3, 8) + eps) * n)
    sum_ok = dplus + dminus + dtotal >= math.ceil(Fraction(3, 2) * n + eps * n)
    return OrientedReport(semi_ok, sum_ok)
