"""Reference computations that only the tests use.

Each function here is an independent route to a quantity the package
computes another way, kept beside the tests that compare the two:

- ``j_to_coeff`` assembles a scaled coefficient from
  ``asymptotics.oscillatory_J``, against ``coeff_scaled``;
- ``inner_watson`` and ``exact_inner`` give the radial column integral at
  one colatitude, the leading term and the quadrature;
- ``potential_partial_sum`` sums a coefficient series into a potential,
  against ``potential_direct`` and the closed-form point mass;
- ``green_sphere`` is the unit ball's Green's function, whose normal
  derivative checks ``balayage.swept_density_point``.

``exact_inner`` grades its radial panels with the sweep's own ``_U_EDGES``,
so it shares the sweep's blind spot at a density edge inside [r_m, r_M].
"""

import math

import numpy as np

from brillouin._panels import breakpoints_on, composite_nodes
from brillouin.coeffs import RADIAL_EXPONENT_CAP, _U_EDGES


def j_to_coeff(J, n, asymptotic=True):
    """Scaled coefficient implied by the oscillatory integral J at order n.

    ``asymptotic=True`` applies the large-n closed form
    n^{-3/2} sqrt(2/pi) Re(e^{-i pi/4} J); ``asymptotic=False`` keeps the
    finite-order factors 2 / ((n+3) sqrt(2 pi n)) from the column weight
    and the oscillatory Legendre form, which tracks the quadrature roughly
    an order of magnitude closer at moderate n (the two differ by 3/n).
    """
    re = float(np.real(np.exp(-1j * math.pi / 4.0) * J))
    if asymptotic:
        return n**-1.5 * math.sqrt(2.0 / math.pi) * re
    return 2.0 / ((n + 3.0) * math.sqrt(2.0 * math.pi * n)) * re


def inner_watson(profile, theta, n):
    """Leading term g(theta) / (n + 3) of the radial column integral."""
    return float(profile.eval_g(theta)) / (n + 3.0)


def exact_inner(profile, theta, n, variable="s"):
    """The sqrt(sin)-weighted radial column integral at one colatitude.

    ``variable="s"`` integrates e^{-(n+3)s} v(r_M e^{-s}) over the
    log-depth s in [0, log(r_M/r_m)]; ``variable="r"`` integrates
    (r/r_M)^{n+2} v(r) / r_M directly over r in [r_m, r_M], scaled the
    same way.  The two routes are algebraically identical and serve as
    each other's cross-check; their ratio to :func:`inner_watson` tends
    to 1 for large n."""
    theta = float(theta)
    L = float(profile.eval_L(theta))
    rM = float(profile.eval_rM(theta))
    s_edges = _U_EDGES / RADIAL_EXPONENT_CAP * min(L, RADIAL_EXPONENT_CAP / (n + 3.0))
    if variable == "s":
        s, w = composite_nodes(s_edges)
        total = float(np.sum(w * np.exp(-(n + 3.0) * s)
                             * profile.eval_v(rM * np.exp(-s), np.full_like(s, theta))))
    elif variable == "r":
        # same exponent grading expressed through r = r_M e^{-s}
        r, w = composite_nodes(breakpoints_on(rM * math.exp(-L), rM, rM * np.exp(-s_edges)))
        total = float(np.sum(w * (r / rM) ** (n + 2)
                             * profile.eval_v(r, np.full_like(r, theta)))) / rM
    else:
        raise ValueError("variable must be 's' or 'r'")
    return math.sqrt(math.sin(theta)) * total


def potential_partial_sum(series, z, N):
    """Partial sum of the expansion through order N, evaluated in scaled
    form (R/z)^n so no intermediate overflows.  Returns (value, last_term).
    Raises ValueError unless n_min <= N <= n_max of the series."""
    if not series.n_min <= N <= series.n_max:
        raise ValueError(f"N = {N} outside the computed range "
                         f"[{series.n_min}, {series.n_max}]")
    m = series.n <= N
    ns = series.n[m]
    ratio = series.R / z
    terms = series.values[m] * ratio**ns * series.R**3 / z
    return float(np.sum(terms)), float(abs(terms[-1]))


def green_sphere(x, y):
    """Green's function of the unit ball at interior x and point y (interior
    or on the sphere), by the method of images:

        G(x, y) = Phi(y - x) - Phi(|x| (y - x*)),   x* = x / |x|^2,

    with Phi(w) = 1 / (4 pi |w|).  The image norm |x| |y - x*| equals
    sqrt(|x|^2 |y|^2 - 2 x.y + 1), a symmetric expression that stays finite
    as x -> 0, where G tends to (1/4 pi)(1/|y| - 1).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    direct = np.linalg.norm(y - x)
    if direct == 0.0:
        raise ValueError("Green's function is singular at x = y")
    image = math.sqrt(max(float(x @ x) * float(y @ y) - 2.0 * float(x @ y) + 1.0, 0.0))
    return (1.0 / direct - 1.0 / image) / (4.0 * math.pi)
