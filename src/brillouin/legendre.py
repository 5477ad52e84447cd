"""Legendre polynomials, their large-order oscillatory form, and Gauss rules.

Everything here is real arithmetic on [-1, 1].  Only the order-zero
(zonal) polynomials are needed by the coefficient integrals, so there are
no associated functions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BrillouinError

__all__ = [
    "QuadratureRule",
    "NoConvergence",
    "DomainMargin",
    "legendre_eval",
    "legendre_pair",
    "legendre_asym",
    "gauss_nodes",
]

#: evaluation below this sin(theta) is refused by the asymptotic form
ASYM_MARGIN_DEFAULT = 0.05


class NoConvergence(BrillouinError):
    """Newton iteration for quadrature nodes failed to converge."""


class DomainMargin(BrillouinError):
    """Asymptotic evaluation requested too close to the poles."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]: increasing nodes, positive weights."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def map_to(self, a, b):
        """Nodes and weights transplanted to the interval [a, b]."""
        half = 0.5 * (b - a)
        return a + half * (self.nodes + 1.0), half * self.weights


def legendre_eval(n, x):
    """P_n(x) by the upward three-term recurrence.

    Scalar or array ``x``; stable on [-1, 1] for all orders used here
    (bounded by 1 in magnitude).
    """
    return legendre_pair(n, x)[0]


def legendre_pair(n, x):
    """Return (P_n(x), P_{n-1}(x)); P_{-1} is reported as 0."""
    x = np.asarray(x, dtype=float)
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    for m in range(n):
        p, p_prev = ((2 * m + 1) * x * p - m * p_prev) / (m + 1), p
    if np.ndim(x) == 0:
        return float(p), float(p_prev)
    return p, p_prev


def legendre_asym(n, theta):
    """Leading oscillatory form of P_n(cos theta) away from the poles.

    Evaluates ``2/sqrt(2 pi n sin(theta)) * cos((n + 1/2) theta - pi/4)``;
    the neglected remainder is O(n^{-3/2}).  Raises :class:`DomainMargin`
    when ``sin(theta) < ASYM_MARGIN_DEFAULT``: callers near the poles must use
    :func:`legendre_eval`.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.sin(theta)
    if np.any(s < ASYM_MARGIN_DEFAULT):
        raise DomainMargin(
            f"sin(theta) below margin {ASYM_MARGIN_DEFAULT}; use exact evaluation near the poles"
        )
    val = 2.0 / np.sqrt(2.0 * np.pi * n * s) * np.cos((n + 0.5) * theta - np.pi / 4.0)
    if np.ndim(theta) == 0:
        return float(val)
    return val


def gauss_nodes(m, max_iter=100):
    """Gauss-Legendre rule of order ``m`` via Newton iteration.

    Initial guesses are the Chebyshev-like angles; each root is refined
    until the Newton correction P_m / P_m' (the root residual in the node
    variable) drops below 1e-15.  Weights come from the derivative
    identity w = 2 / ((1 - x^2) P_m'(x)^2).
    """
    if m < 1:
        raise ValueError("quadrature order must be >= 1")
    if m == 1:
        return QuadratureRule(np.array([0.0]), np.array([2.0]), 1)

    k = np.arange(1, m + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * m + 2))
    converged = False
    for _ in range(max_iter):
        p, p_prev = legendre_pair(m, x)
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            converged = True
            break
    if not converged:
        raise NoConvergence(f"Gauss nodes (m={m}) not converged after {max_iter} iterations")
    p, p_prev = legendre_pair(m, x)
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    idx = np.argsort(x)
    return QuadratureRule(x[idx], w[idx], m)
