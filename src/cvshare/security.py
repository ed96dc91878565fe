"""Statistics of attainable MSEs, access thresholds and mutual information.

The empirical summed MSE over N probes per quadrature follows a scaled
chi-squared law with 2N degrees of freedom: mean mu, variance mu^2/N.
Access control compares that statistic to a threshold v_T; the breach
probability delta (a lone party under the threshold) and the success
probability P_s (a coalition under the threshold) are both tail values
of the same distribution family.

Convention: a distribution's mu always refers to the summed
two-quadrature MSE with N probes per quadrature. Mutual-information
conversions use the per-quadrature value mu/2 under the symmetric
assumption that both quadratures are estimated equally well.

The tails are values of the regularised incomplete gamma function
P(n, x) at the integer shape n = n_probes, computed with numpy and
``math`` alone. Each branch gives the smaller tail, P below x = n and
Q = 1 - P from x = n on, which is below e^-E, where
E = x - n - n ln(x/n) >= 0 is the saddle-point exponent; the
prefactor x^n e^-x / n! is e^-E e^-s(n) / sqrt(2 pi n), s(n) being
Stirling's error term. E is formed from x - n and x + n with their
rounding errors carried, to about two units in the last place; the
plain exponent n ln x - x - ln n!, near 1e6 at n = 1e5, loses six
digits to cancellation. The branches:

* n >= 20 and E <= n/8, which is |eta| <= 1/2 for Temme's variable eta
  (eta^2 / 2 = x/n - 1 - ln(x/n), eta of the sign of x - n): Temme's
  uniform expansion, Q = erfc(eta sqrt(n/2)) / 2 + R and
  P = erfc(-eta sqrt(n/2)) / 2 - R, with
  R = e^-E e^-s(n) / sqrt(2 pi n) * sum_k g_k(eta) n^-k; the smaller
  tail's erfc is erfc(sqrt(E)), from ``math.erfc``. Each g_k is a
  Taylor polynomial in eta, built once from the power series of x/n in
  eta. The branch sums no series to convergence, so x near n, where the
  sums below would need about 9 sqrt(n) terms, costs the same at every n.
* otherwise the Poisson sums of an integer shape: below x = n the power
  series P = x^n e^-x / n! * sum_k x^k / ((n+1)...(n+k)); from x = n
  the finite sum Q = x^(n-1) e^-x / (n-1)! * sum_(j<n) (n-1)...(n-j) / x^j,
  which takes the place of Legendre's continued fraction. Every term is
  positive and the terms fall, so a sum stops once its last term is
  below machine epsilon of its total: within 46 terms for n < 20, and
  within 65 outside the Temme region, where each term ratio is below
  0.64. No sum runs past _MAX_TERMS.

Over n in [1, 1e5] and x/n in [0.3, 3], the smaller tail keeps a
relative error below 2e-13 where it is a normal double, and is 0.0
where it rounds below the subnormal range. Each value depends on its
own n and x alone, so a sweep gives the same bits in chunks of any size.

N. M. Temme, The asymptotic expansion of the incomplete gamma
functions, SIAM J. Math. Anal. 10 (1979) 757-766; A. R. DiDonato and
A. H. Morris, Computation of the incomplete gamma function ratios and
their inverse, ACM Trans. Math. Softw. 12 (1986) 377-393. Cephes, and
so scipy, uses the same uniform expansion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidArgumentError, check_array, check_scalar

#: largest probe count of a distribution, the scale of ``protocol.MAX_ROUNDS``
MAX_PROBES = 10**9


@dataclass(frozen=True, slots=True)
class MseDistribution:
    """Scaled chi-squared law of the summed two-quadrature MSE.

    :param mu: mean summed MSE, > 0 (shot-noise units squared).
    :param n_probes: probes per quadrature, in [1, MAX_PROBES]; the
        statistic has 2 * n_probes degrees of freedom.
    """

    mu: float
    n_probes: int

    def __post_init__(self):
        object.__setattr__(self, "mu", check_scalar(
            "mu", self.mu, "finite and > 0", 0.0, ends="()"))
        object.__setattr__(self, "n_probes", check_scalar(
            "n_probes", self.n_probes, f"an integer in [1, MAX_PROBES = {MAX_PROBES}]", 1,
            MAX_PROBES, integer=True))


@dataclass(frozen=True, slots=True)
class SecurityReport:
    """Threshold comparison for one coalition against the lone party."""

    v_t: float
    delta: float
    p_success: float
    coalition: str
    n_probes: int

    def to_json_dict(self) -> dict:
        return asdict(self)


_EPS = np.finfo(float).eps
#: the Poisson sums take their terms in blocks of this many: they end within
#: 46 terms for n < 20 (n = 19 just below x = n) and within 65 outside the
#: Temme region (x near 0.58 n); a sum still running after _MAX_TERMS,
#: which only NaN can make, is cut there
_TERM_BLOCK = 48
_MAX_TERMS = 2 * _TERM_BLOCK
#: Temme's expansion serves n >= _TEMME_MIN_N where E <= n/8, which is
#: |eta| <= 1/2, to _TEMME_ORDERS powers of 1/n and _TEMME_DEGREE Taylor
#: terms in eta
_TEMME_MIN_N = 20
_TEMME_ORDERS = 12
_TEMME_DEGREE = 16
#: a tail is below e^-E, so beyond this E it rounds to 0.0
_E_UNDERFLOW = 750.0
#: the live elements are worked in slices of this many, which bounds the
#: temporaries, the largest of them _TERM_BLOCK rows of a slice
_SLICE = 4096
#: S(w) = sum_k w^k / (2k + 3) = (atanh(y) - y) / y^3 with w = y^2, on
#: 0 <= w <= 0.36 (|y| <= 0.6): the coefficients, lowest power first, of its
#: Chebyshev fit of degree 17 by ``mpmath.chebyfit`` at 50 digits, which Horner's
#: rule in floats keeps within 1.3 units in the last place; the Taylor series
#: takes 36 terms for the same
_ATANH_FIT = (
    0.3333333333333333, 0.2000000000000005, 0.14285714285699233, 0.1111111111288648,
    0.09090908980749011, 0.07692311840199657, 0.0666656359022909, 0.05884136360342769,
    0.05240904144504063, 0.04966803509985331, 0.029368253702942815, 0.113068239274456,
    -0.24675427514580375, 0.8511623141064332, -1.6650901356092915, 2.4578795262755597,
    -2.1408402035836565, 0.9760148002874439)
#: Stirling's error term s(n) = ln n! - (n ln n - n + ln(2 pi n) / 2) rounded
#: from 40 digits for n = 1..9, since forming it in floats loses about 4 bits
#: there; from n = 10 on, the series in 1/n^2 below is exact to 3e-17
_STIRLING_SMALL = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733])
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _horner(v, coeffs):
    """sum_k coeffs[k] v^k by Horner's rule, each coeffs[k] broadcasting against
    v. It works elementwise, so no value depends on the array around it, as the
    last bits of a BLAS product can."""
    out = coeffs[-1] * np.ones_like(v)
    for c in coeffs[-2::-1]:
        out *= v
        out += c
    return out


def _two_sum(a, b):
    """a + b and its rounding error, exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    """a * b and its rounding error, exactly (Dekker's split product)."""
    p = a * b
    ah = 134217729.0 * a
    ah = ah - (ah - a)
    bh = 134217729.0 * b
    bh = bh - (bh - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _saddle_exponent(n, x):
    """E = x - n - n ln(x/n) = n (lam - 1 - ln lam) with lam = x / n, for x > 0.

    Near lam = 1 it is (x - n)^2 / (x + n) - 2 n y^3 S(y^2) with
    y = (x - n) / (x + n), from the atanh series of ln lam, S being
    _ATANH_FIT; the first term, most of E, is carried in two parts until
    its last rounding.
    """
    e = np.empty_like(x)
    a, a_err = _two_sum(x, -n)
    b, b_err = _two_sum(x, n)
    y = a / b
    near = np.abs(y) <= 0.6
    if near.any():
        a, a_err, b, b_err, nn, y = a[near], a_err[near], b[near], b_err[near], n[near], y[near]
        y2 = y * y
        series = _horner(y2, _ATANH_FIT)
        p, p_err = _two_prod(a, a)
        q = p / b
        qb, qb_err = _two_prod(q, b)
        low = (((p - qb) - qb_err) + p_err + 2.0 * a * a_err - q * b_err) / b
        e[near] = q + (low - 2.0 * nn * y * y2 * series)
    far = ~near
    if far.any():
        lam = x[far] / n[far]
        # lam = 0, from x/n below the subnormals, and n lam beyond the largest
        # float give E = inf, and so a tail of 0
        with np.errstate(divide="ignore", over="ignore"):
            e[far] = n[far] * ((lam - 1.0) - np.log(lam))
    return e


def _stirling_error(n):
    """s(n) = ln n! - (n ln n - n + ln(2 pi n) / 2) for integers n >= 1."""
    s = _horner(1.0 / (n * n), _STIRLING_SERIES) / n
    small = n < 10
    if small.any():
        s[small] = _STIRLING_SMALL[n[small].astype(int) - 1]
    return s


@functools.cache
def _temme_table() -> np.ndarray:
    """Taylor coefficients in eta of Temme's g_k: row j holds the eta^j
    coefficient of each order k, as a column.

    With u = x/n - 1 and eta^2 / 2 = u - ln(1 + u), u(eta) solves
    u u' = eta (1 + u), which gives its power series term by term. Then
    f = eta / u has Taylor coefficients f_i, and k integrations by parts
    of the integral of e^(-n zeta^2 / 2) f(zeta) give
    g_k(eta) = sum_j f_(j+2k+1) (j+2)(j+4)...(j+2k) eta^j.
    """
    m = _TEMME_DEGREE + 2 * _TEMME_ORDERS
    u = [0.0, 1.0]
    for k in range(2, m + 2):
        cross = sum((k + 1 - i) * u[i] * u[k + 1 - i] for i in range(2, k))
        u.append((u[k - 1] - cross) / (k + 1))
    f = [1.0]
    for k in range(1, m + 1):
        f.append(-sum(u[i + 1] * f[k - i] for i in range(1, k + 1)))
    f = np.array(f)
    j = np.arange(_TEMME_DEGREE)
    weight = np.ones(_TEMME_DEGREE)
    columns = []
    for k in range(_TEMME_ORDERS):
        columns.append(f[j + 2 * k + 1] * weight)
        weight = weight * (j + 2 * k + 2)
    return np.array(columns).T[:, :, None]


def _temme_sum(n, e, sign):
    """sum_k g_k(eta) n^-k, with eta = sign sqrt(2 E / n): all g_k at once by
    Horner's rule in eta, then Horner's rule in 1/n."""
    return _horner(1.0 / n, _horner(sign * np.sqrt(2.0 * e / n), _temme_table()))


def _poisson_sum(n, x, upper):
    """1 + the running products of the term ratios, x / (n + j) where not
    ``upper`` and (n - j) / x where it is. Each total takes blocks of
    _TERM_BLOCK terms up to the first that ends on a term below machine
    epsilon of it, whatever the blocks its neighbours need."""
    total = np.ones_like(x)
    last = np.ones_like(x)
    running = np.ones(x.shape, dtype=bool)
    for start in range(1, _MAX_TERMS, _TERM_BLOCK):
        j = np.arange(start, start + _TERM_BLOCK)[:, None]
        terms = np.cumprod(np.where(upper, n - j, x) / np.where(upper, x, n + j), axis=0) * last
        total = np.where(running, total + np.cumsum(terms, axis=0)[-1], total)
        last = terms[-1]
        running &= last > _EPS * total
        if not running.any():
            break
    return total


def _gamma_tail(n, x):
    """The smaller tail of the regularised incomplete gamma function at integer
    shapes n >= 1 and x >= 0, and whether it is the upper one: P(n, x) and False
    below x = n, Q(n, x) = 1 - P(n, x) and True from x = n on.

    n and x broadcast against each other; a NaN x gives a NaN tail. Each value
    depends on its own n and x alone, never on the array around it. See the
    module docstring for the method.
    """
    n, x = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(x, dtype=float))
    upper = x >= n
    tail = np.where(np.isnan(x), np.nan, 0.0)
    idx = np.flatnonzero((x > 0.0) & (x < np.inf))
    n, x = n.ravel()[idx], x.ravel()[idx]
    for lo in range(0, idx.size, _SLICE):
        part = slice(lo, lo + _SLICE)
        tail.reshape(-1)[idx[part]] = _live_tail(n[part], x[part])
    return tail, upper


def _lead(n, e):
    """x^n e^-x / n! = e^-E e^-s(n) / sqrt(2 pi n), E being the saddle exponent."""
    return np.exp(-e) * np.exp(-_stirling_error(n)) / np.sqrt(2.0 * math.pi * n)


def _live_tail(n, x):
    """_gamma_tail's value at 1-D n and x with 0 < x < inf."""
    e = _saddle_exponent(n, x)
    lead = _lead(n, e)
    tail = np.zeros_like(x)
    live = e <= _E_UNDERFLOW
    temme = live & (n >= _TEMME_MIN_N) & (e <= 0.125 * n)
    if temme.any():
        nt, et = n[temme], e[temme]
        sign = np.where(x[temme] >= nt, 1.0, -1.0)
        erfc = np.fromiter(map(math.erfc, np.sqrt(et).tolist()), float, et.size)
        tail[temme] = 0.5 * erfc + sign * _temme_sum(nt, et, sign) * lead[temme]
    rest = live & ~temme
    if rest.any():
        nr, xr = n[rest], x[rest]
        # the upper sum's prefactor is x^(n-1) e^-x / (n-1)! = x^n e^-x / n! * n / x
        tail[rest] = _poisson_sum(nr, xr, xr >= nr) * (nr / np.maximum(xr, nr)) * lead[rest]
    return tail


def mse_pdf(x, dist: MseDistribution):
    """Density of the summed-MSE law at x (vectorized; 0 for x < 0).

    It is n / mu times the Gamma(n, 1) density at y = x n / mu,
    y^(n-1) e^-y / (n-1)! = x^n e^-x / n! * n / y, whose first factor the
    tails take from the saddle exponent, so no large exponent cancels.
    """
    arr = check_array("MSE values", x, "finite", ends="()")
    n, mu = dist.n_probes, dist.mu
    # a y beyond the largest float is inf, where the density is 0, and so is a density
    with np.errstate(over="ignore"):
        y = np.atleast_1d(arr) * n / mu
        out = np.where(y == 0.0, 1.0 / mu if n == 1 else 0.0, 0.0)
        live = (y > 0.0) & (y < np.inf)
        y = y[live]
        shape = np.full_like(y, n)
        out[live] = _lead(shape, _saddle_exponent(shape, y)) / y * n * n / mu
    return float(out[0]) if arr.ndim == 0 else out


def mse_cdf_over_n(x, mu, n_probes):
    """Probability that the summed MSE at mean mu and n_probes probes per
    quadrature is at most x; broadcasts over all three, so one call covers a
    sweep over N. The arguments are taken as checked."""
    with np.errstate(over="ignore"):  # x n / mu beyond the largest float is inf: P = 1
        y = np.clip(x, 0.0, None) * n_probes / mu
    tail, upper = _gamma_tail(n_probes, y)
    return np.where(upper, 1.0 - tail, tail)[()]


def mse_cdf(x, dist: MseDistribution):
    """Probability that the summed MSE is at most x (vectorized)."""
    arr = check_array("MSE values", x, "finite", ends="()")
    val = mse_cdf_over_n(arr, dist.mu, dist.n_probes)
    return float(val) if arr.ndim == 0 else val


def crossing_threshold(mu_a: float, mu_b: float) -> float:
    """Threshold where the two same-N density curves cross.

    v* = mu_a * mu_b * ln(mu_b / mu_a) / (mu_b - mu_a); the power and
    exponential factors of the two densities balance at the same point
    for every N, so the crossing is N-independent.
    """
    mu_a, mu_b = (check_scalar(name, mu, "finite and > 0", 0.0, ends="()")
                  for name, mu in (("mu_a", mu_a), ("mu_b", mu_b)))
    if mu_a == mu_b:
        raise InvalidArgumentError("equal means have no crossing")
    return mu_a * mu_b * math.log(mu_b / mu_a) / (mu_b - mu_a)


def security_probabilities(
    v_t: float,
    single: MseDistribution,
    coalition: MseDistribution,
    coalition_name: str = "abc",
) -> SecurityReport:
    """Breach probability of the lone party and success probability of the coalition.

    delta = Pr(single MSE <= v_t), p_success = Pr(coalition MSE <= v_t),
    both at the shared probe count.
    """
    v_t = check_scalar("v_t", v_t, "finite and >= 0", 0.0, ends="[)")
    if single.n_probes != coalition.n_probes:
        raise InvalidArgumentError("distributions must share the probe count")
    delta, p_success = mse_cdf_over_n(v_t, np.array([single.mu, coalition.mu]),
                                      single.n_probes).tolist()
    return SecurityReport(
        v_t=v_t,
        delta=delta,
        p_success=p_success,
        coalition=coalition_name,
        n_probes=single.n_probes,
    )


def mutual_information(v_dist: float, v_alpha):
    """Bits shared per use for modulation variance v_dist and per-quadrature MSE v_alpha.

    v_alpha may be an array, such as one MSE per probe count of a sweep.
    ``math.log2`` is applied per value: numpy's log2 differs from it in
    the last bit on some inputs.
    """
    v_dist = check_scalar("v_dist", v_dist, "finite and > 0", 0.0, ends="()")
    alphas = check_array("v_alpha", v_alpha, "finite and > 0", 0.0, ends="()")
    bits = [math.log2(v_dist + a) - math.log2(a) for a in alphas.ravel().tolist()]
    return bits[0] if alphas.ndim == 0 else np.reshape(bits, alphas.shape)


def required_mse(c_bits: float, v_dist: float) -> float:
    """Per-quadrature MSE needed for at least c bits: v_dist / (2^c - 1)."""
    c_bits, v_dist = (check_scalar(name, v, "finite and > 0", 0.0, ends="()")
                      for name, v in (("c_bits", c_bits), ("v_dist", v_dist)))
    try:
        target = v_dist / (2.0**c_bits - 1.0)
    except (OverflowError, ZeroDivisionError):
        target = math.nan
    if not (math.isfinite(target) and target > 0.0):
        raise InvalidArgumentError(
            f"c_bits = {c_bits!r} at v_dist = {v_dist!r} gives no finite positive MSE target"
        )
    return target


def prob_mi_above(c_bits: float, v_dist: float, dist: MseDistribution) -> float:
    """Probability of attaining at least c bits of mutual information.

    The required per-quadrature MSE is doubled to place it on the
    summed-MSE scale of the distribution (symmetric quadratures).
    """
    return mse_cdf(2.0 * required_mse(c_bits, v_dist), dist)

