"""Sphere sums of squared matrix coefficients, growth-exponent fits,
Haagerup bound checks, and the good-vector probe.

The sphere sums come from a second-moment transfer recursion.  The
coefficient of a reduced word ending in the letter ``c`` is ``φ = s·out_c``
for a row vector ``s = (α, δ) ∈ V_c* ⊕ V_{c⁻¹}*`` that appending a letter
``c'`` maps by ``s ← s·T_{c→c'}``; so the sum ``S_c`` of ``s†s`` over the
words of length ``n`` ending in ``c`` obeys a linear recursion, and
``s_n = Σ_c out_c† S_c out_c``.  Each step costs a few small matrix
products, so the series is exact to any horizon without enumerating the
``(2k−1)^n`` words.

The step, :func:`moment_step`, is ``S_c ← Σ_{l≠c⁻¹} X_cl S_l X_cl†``
with ``X_cl = T_{l→c}†`` the pair block of
:func:`~freerep.twin.pair_block`.  It is also the four-row operator ``D``
of :func:`~freerep.spectral.build_D`, whose block rows are the quadrants
of ``S_c = [[S⁴, S²], [S³, S¹]]``, so ``s_n = wᵀ D^{n−1} x`` for the
start tuple ``x`` and out tuple ``w``: the growth of the series and the
eigenvalue-1 structure of ``D`` belong to one operator.
"""

from dataclasses import dataclass

import numpy as np

from .functions import norm as f_norm
from .twin import pair_block

# Relative and absolute roundoff allowance of the Haagerup bound check.
HAAGERUP_SLACK = 1e-9


@dataclass(frozen=True)
class CoefficientSeries:
    """Sphere sums ``s_n = Σ_{|x|=n} |⟨v, π(x)w⟩|²`` for ``n = 0..nmax``.

    ``cutoff`` is always false: the recursion computes every requested
    term.  It stays so that readers of the series (and the report's
    ``series_cutoff``) keep their shape.
    """

    s: tuple
    v_norm: float
    w_norm: float
    cutoff: bool
    nmax: int


def _first_shell_vectors(f):
    nsys = f.system
    out = []
    for a in nsys.alphabet.letters:
        vec = f.coeffs.get(((), a))
        if vec is None:
            vec = np.zeros(nsys.dims[a], dtype=complex)
        out.append(vec)
    return out


def moment_operator(nsys):
    """The matrix ``M†`` whose block ``(c, l)`` is ``T_{l→c}†``, the pair
    block ``X_cl``, its adjoint ``M``, the mask of its diagonal blocks,
    and that mask as a complex 0/1 matrix, for masking by a product.

    The state of letter ``c`` occupies ``d_c + d_{c⁻¹}`` consecutive
    coordinates, ``α`` then ``δ``; the block is zero for ``l = c⁻¹``,
    where no reduced word continues.  A normalized system holds the
    four as ``nsys.moment_operator``, built once.
    """
    letters = nsys.alphabet.letters
    dims = nsys.dims
    off = np.cumsum([0] + [dims[c] + dims[c ^ 1] for c in letters])
    Mh = np.zeros((off[-1], off[-1]), dtype=complex)
    diagonal = np.zeros(Mh.shape, dtype=bool)
    for c in letters:
        rows = slice(off[c], off[c + 1])
        diagonal[rows, rows] = True
        for l in letters:
            if l != c ^ 1:
                Mh[rows, off[l]:off[l + 1]] = pair_block(nsys, nsys.E, c, l)
    return Mh, Mh.conj().T, diagonal, diagonal.astype(complex)


def moment_step(nsys, S):
    """One step of the recursion on the block-diagonal moment matrix
    ``S`` (block ``c``: ``S_c``): the diagonal blocks of ``M† S M``,
    which are ``Σ_{l≠c⁻¹} X_cl S_l X_cl†``."""
    Mh, M, _, keep = nsys.moment_operator
    out = Mh @ S @ M
    out *= keep
    return out


def _ends(v, w):
    """``s_0`` and the start and out vectors ``x``, ``out`` of the
    recursion, per letter ``x_c = (va[c]†, u[c])`` and
    ``out_c = (r[c]; wa[c⁻¹])``."""
    nsys = v.system
    letters = nsys.alphabet.letters
    va = _first_shell_vectors(v)
    wa = _first_shell_vectors(w)
    s0 = abs(sum(
        complex(va[a].conj() @ nsys.B[a] @ wa[a])
        for a in letters
    )) ** 2
    r = []
    u = []
    for t in letters:
        r.append(sum(
            nsys.h(b, t).conj().T @ nsys.B[b] @ wa[b]
            for b in letters
        ))
        u.append(sum(
            va[a].conj() @ nsys.B[a] @ nsys.h(a, t ^ 1)
            for a in letters
        ))
    x = np.concatenate([np.concatenate([va[c].conj(), u[c]])
                        for c in letters])
    out = np.concatenate([np.concatenate([r[c], wa[c ^ 1]])
                          for c in letters])
    return s0, x, out


def sphere_sums(v, w, nmax):
    """Series ``s_0..s_nmax`` for two depth-0 canonical families.

    The recursion steps the block-diagonal moment matrix ``S`` by
    :func:`moment_step`; it starts from ``S_c = x_c† x_c`` and reads
    ``s_n = out† S out`` (see :func:`_ends`) as one dot product of ``S``
    with the diagonal blocks of ``conj(out) outᵀ``.  Only the current
    ``S`` is kept: a stack of them would take ``nmax`` times its memory.
    """
    if v.system is not w.system:
        raise ValueError("system mismatch")
    if v.depth != 0 or w.depth != 0:
        raise ValueError("sphere sums require depth-0 canonical families")
    s0, x, out = _ends(v, w)
    nsys = v.system
    diagonal = nsys.moment_operator[2]
    S = np.where(diagonal, np.outer(x.conj(), x), 0)
    weight = np.where(diagonal, np.outer(out.conj(), out), 0).ravel()
    sums = []
    for n in range(1, nmax + 1):
        if n > 1:
            S = moment_step(nsys, S)
        sums.append(float((weight @ S.ravel()).real))
    return CoefficientSeries(
        s=(s0,) + tuple(sums),
        v_norm=f_norm(v),
        w_norm=f_norm(w),
        cutoff=False,
        nmax=nmax,
    )


def haagerup_violations(series):
    """Indices where ``s_n`` exceeds ``(n+1)²‖v‖²‖w‖²`` beyond roundoff."""
    bound_scale = (series.v_norm * series.w_norm) ** 2
    return [
        n for n, s in enumerate(series.s)
        if s > (n + 1) ** 2 * bound_scale * (1 + HAAGERUP_SLACK)
        + HAAGERUP_SLACK
    ]


@dataclass(frozen=True)
class ExponentFit:
    """Log-log slope fit of a sphere-sum series.

    ``p_hat = slope + 1`` clamped to [1, 3]; ``confidence`` decays with
    the rms log-residual of the fit (heuristic, finite horizon).
    """

    p_hat: float
    slope: float
    confidence: float
    window: tuple
    n_points: int
    residual_rms: float


def exponent_fit(series):
    """Fit ``s_n ~ n^{p−1}`` over the tail window ``n ∈ [⌊N/2⌋, N]``.

    The window follows the horizon ``N`` so that the transient of the
    first terms weighs less as the series gets longer.

    Raises
    ------
    ValueError
        "all-zero series" or "series too short" (fewer than 6 usable
        points in the window).
    """
    s = series.s
    top = max(s)
    if top <= 0.0:
        raise ValueError("all-zero series")
    lo = max(1, (len(s) - 1) // 2)
    pts = [(n, sn) for n, sn in enumerate(s)
           if n >= lo and sn > 1e-14 * top]
    if len(pts) < 6:
        raise ValueError("series too short")
    logn = np.log([p[0] for p in pts])
    logs = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(logn, logs, 1)
    resid = logs - (slope * logn + intercept)
    rms = float(np.sqrt(np.mean(resid ** 2)))
    p_hat = float(np.clip(slope + 1.0, 1.0, 3.0))
    return ExponentFit(
        p_hat=p_hat, slope=float(slope), confidence=float(np.exp(-rms)),
        window=(pts[0][0], pts[-1][0]), n_points=len(pts), residual_rms=rms,
    )


@dataclass(frozen=True)
class PhiEpsNorm:
    """Truncated ``‖φ_ε‖² = Σ s_n e^{−εn}`` with its Haagerup tail bound."""

    value: float
    tail_bound: float
    tail_ok: bool


def phi_eps_norm(series, eps):
    """Evaluate the damped sum with a quadratic-growth tail estimate.

    The tail bound is the norm scale times ``Σ_{n≥m} (n+1)² qⁿ`` past the
    horizon, ``m = nmax + 1`` and ``q = e^{−ε}``, in closed form:
    ``qᵐ[(m+1)²/(1−q) + 2(m+1)q/(1−q)² + q(1+q)/(1−q)³]``.  ``tail_ok``
    certifies it below ``1e−6`` of the partial sum.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    value = float(sum(sn * np.exp(-eps * n) for n, sn in enumerate(series.s)))
    scale = (series.v_norm * series.w_norm) ** 2
    m = series.nmax + 1
    q, p = np.exp(-eps), -np.expm1(-eps)
    # with a zero scale every term is 0, and so is the tail
    tail = scale * q ** m * ((m + 1) ** 2 / p + 2 * (m + 1) * q / p ** 2
                             + q * (1 + q) / p ** 3) if scale else 0.0
    return PhiEpsNorm(value=value, tail_bound=float(tail),
                      tail_ok=tail < 1e-6 * value if value > 0 else False)


@dataclass(frozen=True)
class GoodVectorVerdict:
    """Finite-horizon boundedness probe; explicitly heuristic."""

    sup_s: float
    bounded: bool
    label: str
    heuristic: bool = True


def good_vector_verdict(series):
    """Ratio test over the last third of the series."""
    s = series.s
    lo = max(1, (2 * len(s)) // 3)
    ratios = [s[n + 1] / s[n] for n in range(lo, len(s) - 1) if s[n] > 0
              and s[n + 1] > 0]
    bounded = not ratios or float(np.mean(ratios)) <= 1.05
    return GoodVectorVerdict(
        sup_s=float(max(s)), bounded=bounded,
        label="GVB-plausible" if bounded else "GVB-implausible",
    )


def good_vector_probe(v, nmax):
    """Sphere sums of ``v`` against itself plus the boundedness verdict."""
    return good_vector_verdict(sphere_sums(v, v, nmax))
