"""Truncated Hermite-function model of test functions and their dual.

The orthonormal Hermite functions

    h_k(x) = (2^k k! sqrt(pi))^(-1/2) H_k(x) e^(-x^2/2),   k = 0, 1, ...

form an orthonormal basis of L^2(R) consisting of smooth, rapidly decaying
functions.  Truncating at ``size = N`` modes gives a finite-dimensional model
in which every object of interest is a coefficient vector:

* a test function ``phi = sum_k c_k h_k`` (:class:`TestFunction`),
* a distribution ``f`` acting by ``<f, phi> = sum_k f_k c_k``
  (:class:`DualElement`),
* the graded norm ladder ``p_r(phi)^2 = sum_k (2k+1)^(2r) c_k^2`` and its
  dual ``p'_r(f)^2 = sum_k (2k+1)^(-2r) f_k^2``, one rung per plain number
  ``r >= 0`` (:func:`seminorm`, :func:`dual_norm`, :func:`hs_norm`),
* the derivative, the 1-d Laplacian and the heat semigroup as ``N x N``
  matrices acting on coefficients.

Integrals are computed with a ``quad_order = Q``-point Gauss-Hermite rule.
With ``Q >= 2N`` every product of two basis elements is integrated exactly,
so the empirical Gram matrix is the identity to rounding error.

All matrices and value objects are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "BasisSpec",
    "TestFunction",
    "DualElement",
    "hermite_functions",
    "hermite_polynomials",
    "quadrature_nodes",
    "quadrature_weights",
    "project_function",
    "eval_series",
    "derivative_op",
    "laplacian_op",
    "heat_matrix",
    "seminorm",
    "dual_norm",
    "hs_norm",
    "hs_inclusion_converges",
    "hs_tail_bound",
    "pairing",
    "heat_flow_ground_state",
]


def _require_int(**fields) -> None:
    """Raise ``TypeError`` for the first field that is not an integer (a bool is not)."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, not {type(value).__name__}")


def _require_number(**fields) -> None:
    """Raise ``TypeError`` for the first field that is a bool or a string: a number is meant."""
    for name, value in fields.items():
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise TypeError(f"{name} must be a number, not {type(value).__name__}")


@dataclass(frozen=True)
class BasisSpec:
    """Truncation parameters: ``size`` Hermite modes, ``quad_order`` nodes.

    ``quad_order >= 2 * size`` guarantees exact integration of products of
    basis elements.
    """

    size: int
    quad_order: int

    def __post_init__(self) -> None:
        _require_int(size=self.size, quad_order=self.quad_order)
        if self.size < 2:
            raise ValueError("basis size must be >= 2")
        if self.quad_order < 2 * self.size:
            raise ValueError("quad_order must be >= 2 * size")


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class _Coefficients:
    """``basis.size`` finite coefficients on ``basis``, kept read-only."""

    basis: BasisSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.size,):
            raise ValueError(
                f"expected {self.basis.size} coefficients, got shape {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", _as_readonly(c))


class TestFunction(_Coefficients):
    """A function ``phi = sum_k coeffs[k] h_k`` in the truncated span."""

    __test__ = False  # not a pytest class, despite the name

    def __call__(self, x) -> np.ndarray:
        return eval_series(self.coeffs, x)


class DualElement(_Coefficients):
    """A distribution acting on the truncated span by coefficient pairing."""


def _rung(r) -> float:
    """A rung ``r`` of the norm ladder as a float: it must be finite and >= 0.
    A bool or a string is a ``TypeError``, as it is for the integer fields."""
    _require_number(**{"regularity index": r})
    r = float(r)
    if not np.isfinite(r) or r < 0:
        raise ValueError("regularity index must be finite and >= 0")
    return r


def _weights(exponent: float, size: int) -> np.ndarray:
    """The ladder's weights ``(2k+1)^exponent`` for ``k < size``: ``exponent = r``
    for ``p_r``, ``-r`` for its dual ``p'_r``."""
    return (2.0 * np.arange(size) + 1.0) ** exponent


# ---------------------------------------------------------------------------
# evaluation and quadrature
# ---------------------------------------------------------------------------


# modes between renormalisations of the weighted recurrence's two buffers
_RESCALE_EVERY = 64


def _hermite_modes(x: np.ndarray, count: int, gaussian: bool = True, weight=None, plain: int = 0):
    """Yield ``h_0(x), ..., h_{count-1}(x)`` one mode at a time by the recurrence

        h_k(x) = (x sqrt(2/k)) h_{k-1}(x) - sqrt((k-1)/k) h_{k-2}(x),

    which is stable and overflow-free because |h_k| <= 0.816 for all k, x.
    Mode ``k`` overwrites mode ``k - 2`` in one of two buffers, so a yielded
    mode is valid until the next step.  ``gaussian=False`` leaves out the
    Gaussian factor, giving the orthonormalized polynomials ``p_k = h_k exp(x^2/2)``.

    With a ``weight`` (broadcasting to ``x``), modes ``k < plain`` are still
    ``h_k``, and every mode ``k >= plain`` is yielded as ``w_k`` with
    ``h_k(x) weight = f_k w_k`` for the factors ``f`` of :func:`_mode_factors`.
    Writing ``h_k = c_k q_k`` with ``c_k = prod_{j <= k} sqrt(2/j)`` gives

        q_k = x q_{k-1} - (k-1)/2 q_{k-2},

    three array passes instead of four; being linear, it runs on
    ``q_k weight`` as well, seeded from ``h_0 weight`` (or, past ``plain``
    unweighted modes, from the two live buffers).  ``c_k`` falls below the
    floating-point range from ``k`` near 335, so every ``_RESCALE_EVERY``
    modes both buffers are scaled by a power of two that the factors carry;
    such a scaling is exact, so ``f_k w_k`` has the same bits at every
    ``count``.
    """
    x = np.asarray(x, dtype=float, order="C")  # strided input defeats loop fusion
    bufs, tmp = np.zeros((2,) + x.shape), np.empty(x.shape)  # bufs[1] holds h_{-1} = 0
    scaled = weight is not None
    if scaled:
        weight = np.asarray(weight, dtype=float)  # read once or twice: no copy
        shifts = _mode_factors(count, plain)[1]
    for k in range(count):
        h, prev = bufs[k % 2, ...], bufs[1 - k % 2, ...]  # views, also for 0-d x
        if k == 0:
            h[...] = np.pi ** -0.25 * (np.exp(-0.5 * x * x) if gaussian else 1.0)
            if scaled and plain == 0:
                h *= weight
        elif not scaled or k < plain:
            np.multiply(x, np.sqrt(2.0 / k), out=tmp)
            tmp *= prev
            h *= np.sqrt((k - 1) / k)
            np.subtract(tmp, h, out=h)
        else:
            if k == plain:  # f_{k-1} = 1: w_{k-1} = h_{k-1} weight
                prev *= weight
                if k >= 2:
                    h *= weight
                    h *= np.sqrt(2.0 / (k - 1))
            np.multiply(x, prev, out=tmp)
            h *= (k - 1) / 2.0
            np.subtract(tmp, h, out=h)
            if k in shifts:
                bufs *= shifts[k]
        yield h


@lru_cache(maxsize=64)
def _mode_factors(count: int, plain: int) -> tuple[np.ndarray, dict]:
    """The factors ``f`` of the weighted modes of :func:`_hermite_modes`.

    ``f_k = prod_{max(plain, 1) <= j <= k} sqrt(2/j)`` for ``plain <= k <
    count`` (``f_k = 1`` below ``plain``), kept in range: at every mode ``k``
    that is a multiple of ``_RESCALE_EVERY`` the binary exponent ``e`` of
    ``f_k`` moves into the buffers.  Returns ``(f, shifts)``, ``f`` read-only
    and ``shifts`` mapping such a ``k`` to the exact factor ``2^e``.
    """
    f, shifts, c = np.ones(count), {}, 1.0
    for k in range(max(plain, 1), count):
        c *= np.sqrt(2.0 / k)
        if k % _RESCALE_EVERY == 0:
            c, e = math.frexp(c)
            shifts[k] = math.ldexp(1.0, e)
        f[k] = c
    return _as_readonly(f), shifts


def _hermite_modes_first(x: np.ndarray, count: int, gaussian: bool = True, out=None) -> np.ndarray:
    """All modes of :func:`_hermite_modes` in one ``(count,) + x.shape`` array,
    written into ``out`` when one is given."""
    if out is None:
        out = np.empty((count,) + np.shape(x))
    for k, h in enumerate(_hermite_modes(x, count, gaussian)):
        out[k] = h
    return out


def hermite_functions(x, count: int) -> np.ndarray:
    """``h_k(x)`` for ``k < count``, shape ``x.shape + (count,)``; see :func:`_hermite_modes`."""
    x = np.asarray(x, dtype=float)
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.moveaxis(_hermite_modes_first(x, count), 0, -1)


def hermite_polynomials(x, count: int) -> np.ndarray:
    """Orthonormalized Hermite polynomials ``p_k = h_k exp(x^2/2)``.

    Same recurrence as :func:`hermite_functions` but without the Gaussian
    factor; orthonormal against the weight ``exp(-x^2)``.  No code in the
    package calls it (the limit covariance runs :func:`_hermite_modes_first`
    itself); it serves callers and the test oracles.  The result is
    C-contiguous with shape ``x.shape + (count,)``.
    """
    x = np.asarray(x, dtype=float)
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.ascontiguousarray(np.moveaxis(_hermite_modes_first(x, count, gaussian=False), 0, -1))


def _span(coeffs: np.ndarray) -> int:
    """Number of modes up to the last nonzero coefficient (0 if all are zero)."""
    nz = np.nonzero(coeffs)[0]
    return int(nz[-1]) + 1 if nz.size else 0


def eval_series(coeffs, x) -> np.ndarray:
    """Evaluate ``sum_k coeffs[k] h_k(x)``; trailing zeros are skipped."""
    c = np.asarray(coeffs, dtype=float)
    top = _span(c)  # all zero: an empty contraction, exact zeros
    return np.tensordot(c[:top], _hermite_modes_first(x, top), axes=(0, 0))


@lru_cache(maxsize=32)
def _gh_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes, weights and ``w * exp(x^2)`` (all read-only).

    The modified weights integrate plain functions of moderate growth against
    the basis: ``int f(x) h_k(x) dx ~= sum_i w~_i f(x_i) h_k(x_i)``, exact
    whenever ``f * h_k * exp(x^2)`` is a polynomial of degree < 2 * order.
    The product is computed through logs so it stays finite for every order
    at which the plain weights are representable.
    """
    x, w = hermgauss(order)
    w_mod = np.exp(np.log(w) + x * x)
    return _as_readonly(x), _as_readonly(w), _as_readonly(w_mod)


def quadrature_nodes(basis: BasisSpec) -> np.ndarray:
    """The ``quad_order`` Gauss-Hermite nodes used by :func:`project_function`."""
    return _gh_rule(basis.quad_order)[0]


def quadrature_weights(basis: BasisSpec) -> np.ndarray:
    """Modified weights ``w_i exp(x_i^2)`` matching :func:`quadrature_nodes`."""
    return _gh_rule(basis.quad_order)[2]


def project_function(samples, basis: BasisSpec) -> TestFunction:
    """Project node samples onto the basis: ``c_k = int phi h_k`` by quadrature.

    ``samples`` must hold the values of the target function at
    :func:`quadrature_nodes`.  Evaluating the result at the nodes reproduces
    the input up to quadrature error.
    """
    s = np.asarray(samples, dtype=float)
    if s.shape != (basis.quad_order,):
        raise ValueError(
            f"expected {basis.quad_order} node samples, got shape {s.shape}"
        )
    if not np.all(np.isfinite(s)):
        raise ValueError("node samples must be finite")
    w_mod = quadrature_weights(basis)
    coeffs = hermite_functions(quadrature_nodes(basis), basis.size).T @ (w_mod * s)
    return TestFunction(basis, coeffs)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def derivative_op(basis: BasisSpec) -> np.ndarray:
    """Matrix of d/dx on coefficients: skew-symmetric, bidiagonal.

    Column ``k`` carries ``sqrt(k/2)`` in row ``k-1`` and ``-sqrt((k+1)/2)``
    in row ``k+1`` (the ladder identity for the derivative of ``h_k``).
    """
    return _derivative_op(basis.size)


def laplacian_op(basis: BasisSpec) -> np.ndarray:
    """Second-derivative matrix ``L = D @ D``: symmetric, <= 0, bandwidth 2."""
    return _laplacian_op(basis.size)


def heat_matrix(t: float, basis: BasisSpec) -> np.ndarray:
    """Heat semigroup ``E(t) = exp(t L)`` on coefficients (read-only).

    Computed by the scaling-and-squaring Pade algorithm of Al-Mohy and
    Higham (2009), the one ``scipy.linalg.expm`` implements (see
    :func:`_expm`), so the semigroup law holds to rounding error.  At huge
    times (``5e38`` at ``N = 8``) the powers of ``t L`` that choose the
    scaling overflow, and a non-finite result raises ``ValueError``.
    """
    if not 0 <= t < np.inf:
        raise ValueError("time must be finite and >= 0")
    return _heat_matrix(t, basis.size)


# The operators are cached on the basis size alone: none reads the quadrature
# order, so a config check on BasisSpec(N, Q) and the solvers on
# BasisSpec(N, 2N) share one D, one Lap and one E(t) per time.
@lru_cache(maxsize=32)
def _derivative_op(size: int) -> np.ndarray:
    d = np.zeros((size, size))
    k = np.arange(1, size)
    d[k - 1, k] = np.sqrt(k / 2.0)
    d[k, k - 1] = -np.sqrt(k / 2.0)
    return _as_readonly(d)


@lru_cache(maxsize=32)
def _laplacian_op(size: int) -> np.ndarray:
    d = _derivative_op(size)
    return _as_readonly(d @ d)


@lru_cache(maxsize=32)
def _heat_matrix(t: float, size: int) -> np.ndarray:
    e = _expm(t * _laplacian_op(size))
    if not np.all(np.isfinite(e)):
        raise ValueError(f"heat semigroup at time {t!r} is not finite")
    return _as_readonly(e)


# Pade coefficients b_0, ..., b_m of exp for each degree m of the 2009
# algorithm; theta_m, the largest 1-norm at which degree m reaches double
# precision; and 1 / |c_{2m+1}|, the leading coefficient of its backward error
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068e0, 13: 4.25}
_ERROR_DENOM = {3: 100800.0, 5: 10059033600.0, 7: 4487938430976000.0,
                9: 5914384781877411840000.0, 13: 113250775606021113483283660800000000.0}


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _ell(a: np.ndarray, m: int) -> int:
    """Squarings to add so that degree ``m`` on ``a`` stays within unit
    roundoff: ``ell(A, m)`` of Al-Mohy and Higham, from the exact 1-norm of
    ``|A|^(2m+1)``."""
    abs_a, v = np.abs(a), np.ones(a.shape[0])
    for _ in range(2 * m + 1):
        v = v @ abs_a
    norm = v.max()
    if not norm:
        return 0
    alpha = norm / (_norm1(a) * _ERROR_DENOM[m])
    return max(math.ceil(math.log2(alpha / 2.0**-53) / (2 * m)), 0)


def _expm(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` by the algorithm of Al-Mohy and Higham, "A new scaling and
    squaring algorithm for the matrix exponential" (SIAM J. Matrix Anal.
    Appl. 31(3), 2009), with the degree and scaling ``scipy.linalg.expm``
    picks for ``N < 400``.

    The degree ``m`` and the scaling ``s`` come from exact 1-norms of the
    powers ``A^2, A^4, A^6, A^8`` and ``A^10`` of the unscaled matrix, so at
    huge ``a`` those norms overflow before any squaring does, and the result
    is then ``inf``.  The Pade approximant ``r_m(A / 2^s) = I + 2 (V - U)^-1 U``
    is squared ``s`` times.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a2 @ a4
        d4, d6 = _norm1(a4) ** 0.25, _norm1(a6) ** (1 / 6)
        powers, s, eta = (a2, a4, a6), 0, max(d4, d6)
        for m in (3, 5, 7, 9):
            if m == 7:
                a8 = a4 @ a4
                d8 = _norm1(a8) ** 0.125
                powers, eta = (a2, a4, a6, a8), max(d6, d8)
            if eta <= _THETA[m] and _ell(a, m) == 0:
                break
        else:
            m = 13
            eta = min(eta, max(d8, _norm1(a4 @ a6) ** 0.1))
            if not math.isfinite(eta):
                return np.full_like(a, np.inf)
            if eta > 0:
                s = max(math.ceil(math.log2(eta / _THETA[13])), 0)
            s += _ell(a * 2.0**-s, 13)
            c = 2.0**-s
            a, powers = a * c, (a2 * c**2, a4 * c**4, a6 * c**6)
        u, v = _pade_uv(a, powers, m)
        r = np.linalg.solve(v - u, u)
        r *= 2.0
        r.flat[:: r.shape[0] + 1] += 1.0
        for _ in range(s):
            r = r @ r
    return r


def _pade_uv(a: np.ndarray, evens, m: int):
    """Odd and even parts ``U`` and ``V`` of the degree-``m`` Pade numerator
    of ``exp(a)``, from the even powers ``evens = (A^2, A^4, ...)``."""
    b = _PADE[m]
    if m == 13:
        a2, a4, a6 = evens
        w = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    else:
        top = (m - 1) // 2
        w, v = b[m] * evens[top - 1], b[m - 1] * evens[top - 1]
        for k in range(top - 2, -1, -1):
            w = w + b[2 * k + 3] * evens[k]
            v = v + b[2 * k + 2] * evens[k]
    w.flat[:: w.shape[0] + 1] += b[1]
    v.flat[:: v.shape[0] + 1] += b[0]
    return a @ w, v


def heat_flow_ground_state(t: float, x) -> np.ndarray:
    """Closed form of the heat flow applied to ``h_0`` (Gaussian convolution).

    Convolving the variance-1 Gaussian profile of ``h_0`` with the heat
    kernel of variance ``2t`` adds variances:

        (mu_t * h_0)(x) = pi^(-1/4) (1+2t)^(-1/2) exp(-x^2 / (2 (1+2t))).

    Serves as an independent oracle for :func:`heat_matrix`; it is never used
    in the implementation path.
    """
    if not 0 <= t < np.inf:
        raise ValueError("time must be finite and >= 0")
    x = np.asarray(x, dtype=float)
    s = 1.0 + 2.0 * t
    return np.pi ** -0.25 * s ** -0.5 * np.exp(-x * x / (2.0 * s))


# ---------------------------------------------------------------------------
# norms and pairings
# ---------------------------------------------------------------------------


def seminorm(phi: TestFunction, r) -> float:
    """Graded norm ``p_r(phi) = (sum_k (2k+1)^(2r) c_k^2)^(1/2)``."""
    w = _weights(_rung(r), phi.basis.size)
    return float(np.sqrt(np.sum((w * phi.coeffs) ** 2)))


def dual_norm(f: DualElement, r) -> float:
    """Dual graded norm ``p'_r(f) = (sum_k (2k+1)^(-2r) f_k^2)^(1/2)``."""
    w = _weights(-_rung(r), f.basis.size)
    return float(np.sqrt(np.sum((w * f.coeffs) ** 2)))


def pairing(f: DualElement, phi: TestFunction) -> float:
    """Canonical pairing ``<f, phi> = sum_k f_k c_k`` (same basis required)."""
    if f.basis != phi.basis:
        raise ValueError("pairing requires matching bases")
    return float(f.coeffs @ phi.coeffs)


def hs_norm(r, s, n_terms: int) -> float:
    """Hilbert-Schmidt norm of the truncated inclusion from rung s down to r.

    Equals ``(sum_{k < n_terms} (2k+1)^(-2(s-r)))^(1/2)``; as ``n_terms`` grows
    it converges exactly when ``s - r > 1/2``.
    """
    rv, sv = _rung(r), _rung(s)
    if sv <= rv:
        raise ValueError("need s > r: the identity inclusion is never Hilbert-Schmidt")
    _require_int(n_terms=n_terms)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    return float(np.sqrt(np.sum(_weights(-2.0 * (sv - rv), n_terms))))


def hs_inclusion_converges(r, s) -> bool:
    """Whether the inclusion's Hilbert-Schmidt norm stays finite as size grows."""
    rv, sv = _rung(r), _rung(s)
    if sv <= rv:
        raise ValueError("need s > r")
    return (sv - rv) > 0.5


def hs_tail_bound(r, s, n_terms: int) -> float:
    """Integral bound on the squared-norm tail beyond ``n_terms`` terms.

    For gap ``g = s - r > 1/2`` the tail ``sum_{k >= n} (2k+1)^(-2g)`` is
    dominated by ``(2n+1)^(1-2g) / (2g-1)`` (integral comparison).
    """
    g = _rung(s) - _rung(r)
    if g <= 0.5:
        raise ValueError("tail bound requires gap > 1/2")
    _require_int(n_terms=n_terms)
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    return float((2.0 * n_terms + 1.0) ** (1.0 - 2.0 * g) / (2.0 * g - 1.0))
