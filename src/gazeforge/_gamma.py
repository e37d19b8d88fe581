"""Gamma-law special functions for the saccade profile, in pure Python.

A port of the two SciPy 1.17.1 scalar kernels the saccade profile needs:
``gammaln`` (Cephes ``lgam``, S. L. Moshier) and ``gammaincinv(a, p)`` for p
close to 1 (Cephes/xsf ``igami``, which inverts the complement with
``igamci``: a DiDonato & Morris start, ACM TOMS 12:377, 1986, then three
Halley steps on ``igamc``). The port keeps SciPy's branch order and
arithmetic order and calls libm through ``math``, so it returns SciPy's bits.

Only the branches reached by shapes in [1, MAX_GAMMA_SHAPE] and p > 0.9 are
ported. There the start is -log(q) (a == 1), DiDonato & Morris Eq 25, Eq 33
or Eq 31, and ``igamc`` is always its continued fraction; a step that would
leave that region raises instead of returning a near miss.
"""
from __future__ import annotations

import math

from .errors import ParameterError

# Largest Gamma shape accepted. Skewness below 2e-4 maps above it; shapes
# near 1e16 overflow the profile's density.
MAX_GAMMA_SHAPE = 1e8

_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 7.09782712893383996732e2
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_IGAM_BIG = 4.503599627370496e15
_IGAM_BIGINV = 2.22044604925031308085e-16
_LANCZOS_G = 6.024680040776729583740234375

# lgam: Stirling correction for 13 <= x < 1000, and the rational function
# of x - 2 in [0, 1) for x < 13.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)

# Lanczos sum scaled by exp(g), highest power of 1/x first (x > 1).
_LANCZOS_EXPG_NUM = (
    56906521.91347156388090791033559122686859,
    103794043.1163445451906271053616070238554,
    86363131.28813859145546927288977868422342,
    43338889.32467613834773723740590533316085,
    14605578.08768506808414169982791359218571,
    3481712.15498064590882071018964774556468,
    601859.6171681098786670226533699352302507,
    75999.29304014542649875303443598909137092,
    6955.999602515376140356310115515198987526,
    449.9445569063168119446858607650988409623,
    19.51992788247617482847860966235652136208,
    0.5098416655656676188125178644804694509993,
    0.006061842346248906525783753964555936883222,
)
_LANCZOS_EXPG_DEN = (0.0, 39916800.0, 120543840.0, 150917976.0, 105258076.0,
                     45995730.0, 13339535.0, 2637558.0, 357423.0, 32670.0,
                     1925.0, 66.0, 1.0)

# DiDonato & Morris Eq 32: normal quantile estimate.
_DM_S_NUM = (0.213623493715853, 4.28342155967104, 11.6616720288968,
             3.31125922108741)
_DM_S_DEN = (0.3611708101884203e-1, 1.27364489782223, 6.40691597760039,
             6.61053765625462, 1.0)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    """_polevl with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def lgam(x: float) -> float:
    """log Gamma(x) for 1 <= x <= MAX_GAMMA_SHAPE, as SciPy's ``gammaln``."""
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
        return math.log(z) + p
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


def _lanczos_sum_expg_scaled(x: float) -> float:
    """SciPy's ratevl for x > 1: both polynomials in 1/x, of equal degree."""
    y = 1.0 / x
    return _polevl(y, _LANCZOS_EXPG_NUM) / _polevl(y, _LANCZOS_EXPG_DEN)


def _log1pmx(x: float) -> float:
    """log(1 + x) - x."""
    if abs(x) < 0.5:
        xfac = x
        res = 0.0
        for n in range(2, 500):
            xfac *= -x
            term = xfac / n
            res += term
            if abs(term) < _MACHEP * abs(res):
                break
        return res
    return math.log1p(x) - x


def _igam_fac(a: float, x: float, lgam_a: float, lanczos_a: float) -> float:
    """x^a exp(-x) / Gamma(a), given lgam(a) and the scaled Lanczos sum at a."""
    if abs(a - x) > 0.4 * abs(a):
        ax = a * math.log(x) - x - lgam_a
        if ax < -_MAXLOG:
            return 0.0
        return math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / lanczos_a
    if a < 200 and x < 200:
        res *= math.exp(a - x) * math.pow(x / fac, a)
    else:
        num = x - a - _LANCZOS_G + 0.5
        res *= math.exp(a * _log1pmx(num / fac) + x * (0.5 - _LANCZOS_G) / fac)
    return res


def _igamc(a: float, x: float, ax: float) -> float:
    """Regularized upper incomplete Gamma Q(a, x) by its continued fraction
    (DLMF 8.9.2), given ax = _igam_fac(a, x) > 0."""
    absxma_a = abs(x - a) / a
    if (x <= 1.1 or x < a or (20 < a < 200 and absxma_a < 0.3)
            or (a > 200 and absxma_a < 4.5 / math.sqrt(a))):
        raise RuntimeError(
            f"igamc({a!r}, {x!r}) needs a branch that is not ported"
        )
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(2000):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2 = pkm1
        pkm1 = pk
        qkm2 = qkm1
        qkm1 = qk
        if abs(pk) > _IGAM_BIG:
            pkm2 *= _IGAM_BIGINV
            pkm1 *= _IGAM_BIGINV
            qkm2 *= _IGAM_BIGINV
            qkm1 *= _IGAM_BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _eq25(a: float, y: float) -> float:
    """DiDonato & Morris Eq 25: asymptotic inverse for a tiny Q."""
    c1 = (a - 1) * math.log(y)
    c1_2 = c1 * c1
    c1_3 = c1_2 * c1
    c1_4 = c1_2 * c1_2
    a_2 = a * a
    a_3 = a_2 * a
    c2 = (a - 1) * (1 + c1)
    c3 = (a - 1) * (-(c1_2 / 2) + (a - 2) * c1 + (3 * a - 5) / 2)
    c4 = (a - 1) * ((c1_3 / 3) - (3 * a - 5) * c1_2 / 2 + (a_2 - 6 * a + 7) * c1
                    + (11 * a_2 - 46 * a + 47) / 6)
    c5 = (a - 1) * (-(c1_4 / 4) + (11 * a - 17) * c1_3 / 6
                    + (-3 * a_2 + 13 * a - 13) * c1_2
                    + (2 * a_3 - 25 * a_2 + 72 * a - 61) * c1 / 2
                    + (25 * a_3 - 195 * a_2 + 477 * a - 379) / 12)
    y_2 = y * y
    y_3 = y_2 * y
    y_4 = y_2 * y_2
    return y + c1 + (c2 / y) + (c3 / y_2) + (c4 / y_3) + (c5 / y_4)


def _find_inverse_gamma(a: float, q: float, lgam_a: float) -> float:
    """DiDonato & Morris start for Q(a, x) = q, for a >= 1 and q < 0.1."""
    if a == 1:
        return -math.log(q)
    t = math.sqrt(-2 * math.log(q))
    s = t - _polevl(t, _DM_S_NUM) / _polevl(t, _DM_S_DEN)
    s_2 = s * s
    s_3 = s_2 * s
    s_4 = s_2 * s_2
    s_5 = s_4 * s
    ra = math.sqrt(a)
    w = a + s * ra + (s_2 - 1) / 3
    w += (s_3 - 7 * s) / (36 * ra)
    w -= (3 * s_4 + 7 * s_2 - 16) / (810 * a)
    w += (9 * s_5 + 256 * s_3 - 433 * s) / (38880 * a * ra)
    # Eq 31; SciPy's separate a >= 500 test also returns w, and w < 3a there.
    if w < 3 * a:
        return w
    d = max(2.0, a * (a - 1))
    lb = math.log(q) + lgam_a
    if lb < -d * 2.3:
        return _eq25(a, -lb)
    # Eq 33
    u = -lb + (a - 1) * math.log(w) - math.log(1 + (1 - a) / (1 + w))
    return -lb + (a - 1) * math.log(u) - math.log(1 + (1 - a) / (1 + u))


def gammaincinv(a: float, p: float) -> float:
    """x with P(a, x) = p, as SciPy's ``gammaincinv``, for shapes
    1 <= a <= MAX_GAMMA_SHAPE and 0.9 < p < 1."""
    if not 1.0 <= a <= MAX_GAMMA_SHAPE:
        raise ParameterError(
            f"gamma shape {a:.6g} outside [1, {MAX_GAMMA_SHAPE:.6g}]"
        )
    if not 0.9 < p < 1.0:
        raise ValueError(f"gammaincinv is ported for 0.9 < p < 1 only, got {p!r}")
    q = 1 - p
    lgam_a = lgam(a)
    # Unused at a == 1, where every step takes igam_fac's log form.
    lanczos_a = _lanczos_sum_expg_scaled(a)
    x = _find_inverse_gamma(a, q, lgam_a)
    for _ in range(3):  # Halley steps on igamc
        fac = _igam_fac(a, x, lgam_a, lanczos_a)
        if fac == 0.0:
            return x
        f_fp = (_igamc(a, x, fac) - q) * x / (-fac)
        # SciPy falls back to a Newton step when this overflows; x > 13 here.
        fpp_fp = -1.0 + (a - 1) / x
        x = x - f_fp / (1.0 - 0.5 * f_fp * fpp_fp)
    return x
