"""Sphere-sum series, growth exponents, bound checks, good-vector probe."""

import functools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freerep import generate
from freerep.cli import _first_edge_vector
from freerep.functions import (
    MuSummand,
    canonicalize,
    coefficient,
    deepen,
    first_shell,
    norm,
)
from freerep.generate import ai_instance, random_scalar_system, random_system
from freerep.series import (
    CoefficientSeries,
    _ends,
    exponent_fit,
    good_vector_probe,
    good_vector_verdict,
    haagerup_violations,
    phi_eps_norm,
    sphere_sums,
)
from dense_d import dense_D
from freerep.systems import MatrixSystem, normalize
from freerep.twin import twin_package

A, AI, B, BI = 0, 1, 2, 3


def random_family(nsys, seed):
    rng = np.random.default_rng(seed)
    vecs = {
        a: rng.standard_normal(nsys.dims[a])
        + 1j * rng.standard_normal(nsys.dims[a])
        for a in nsys.alphabet.letters
    }
    return first_shell(nsys, vecs)


def dense_sphere_sums(v, w, nmax):
    """Independent reference via canonical-family matrix coefficients."""
    alpha = v.system.alphabet
    return [
        sum(abs(coefficient(v, x, w)) ** 2 for x in alpha.sphere(n))
        for n in range(nmax + 1)
    ]


def synthetic(values):
    return CoefficientSeries(s=tuple(float(x) for x in values), v_norm=1.0,
                             w_norm=1.0, cutoff=False, nmax=len(values) - 1)


class TestSphereSums:
    def test_s0_frozen_values(self, s0_norm):
        v = first_shell(s0_norm, {A: [1.0]})
        ser = sphere_sums(v, v, 3)
        assert ser.s[0] == pytest.approx(1.0, abs=1e-12)
        assert ser.s[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert ser.s[2] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert ser.s[3] == pytest.approx(46.0 / 27.0, abs=1e-12)
        assert ser.v_norm == pytest.approx(1.0, abs=1e-12)
        assert not ser.cutoff

    def test_matches_dense_scalar(self):
        nsys = normalize(random_scalar_system(23))
        v = random_family(nsys, 1)
        w = random_family(nsys, 2)
        ser = sphere_sums(v, w, 4)
        ref = dense_sphere_sums(v, w, 4)
        assert np.allclose(ser.s, ref, rtol=1e-12, atol=1e-12)

    def test_matches_dense_matrix(self):
        nsys = normalize(random_system(29, k=2, max_dim=2))
        v = random_family(nsys, 3)
        w = random_family(nsys, 4)
        ser = sphere_sums(v, w, 3)
        ref = dense_sphere_sums(v, w, 3)
        assert np.allclose(ser.s, ref, rtol=1e-12, atol=1e-12)

    def test_matches_dense_rank_two_and_three(self):
        # v != w, letter dims up to 3, on two and on three generators
        dims = set()
        for seed, k, nmax in ((72, 2, 4), (73, 3, 3)):
            nsys = normalize(random_system(seed, k=k, max_dim=3))
            dims.update(nsys.dims)
            v = random_family(nsys, seed)
            w = random_family(nsys, seed + 50)
            ser = sphere_sums(v, w, nmax)
            ref = dense_sphere_sums(v, w, nmax)
            assert len(ser.s) == nmax + 1
            assert np.allclose(ser.s, ref, rtol=1e-12, atol=1e-12)
        assert max(dims) == 3

    def test_swap_symmetry(self):
        nsys = normalize(random_system(37, k=2, max_dim=2))
        v = random_family(nsys, 7)
        w = random_family(nsys, 8)
        fwd = sphere_sums(v, w, 5)
        bwd = sphere_sums(w, v, 5)
        assert np.allclose(fwd.s, bwd.s, rtol=1e-11, atol=1e-12)

    def test_requires_depth_zero(self, s0_norm):
        v = first_shell(s0_norm, {A: [1.0]})
        with pytest.raises(ValueError, match="depth-0"):
            sphere_sums(deepen(v, 1), v, 2)

    def test_requires_shared_system(self):
        n1 = normalize(random_scalar_system(43))
        n2 = normalize(random_scalar_system(43))
        with pytest.raises(ValueError, match="system mismatch"):
            sphere_sums(random_family(n1, 1), random_family(n2, 1), 2)


def _slot_vector(d, mats):
    """Vector of ``D`` holding per-letter ``S_c = [[S⁴, S²], [S³, S¹]]``,
    whose first ``d_c`` rows and columns are on ``V_c``: slot ``(i, c)``
    holds ``S^i`` row-major."""
    dims = d.package.original.dims
    quarters = {4: lambda m, n: m[:n, :n], 2: lambda m, n: m[:n, n:],
                3: lambda m, n: m[n:, :n], 1: lambda m, n: m[n:, n:]}
    return sum(d.embed(i, tuple(quarter(m, dims[c])
                                for c, m in enumerate(mats)))
               for i, quarter in quarters.items())


class TestSeriesIsD:
    """The sphere-sum recursion is ``D`` under the slot map: with ``x``
    the start tuple ``x̄ xᵀ`` and ``w`` the out tuple ``out̄ outᵀ``,
    ``s_n = wᵀ D^{n−1} x``.  Together with :func:`dense_sphere_sums`,
    which checks the series on its own, this checks both assemblies."""

    @pytest.mark.parametrize("make", [
        generate.s0_system,
        functools.partial(generate.ai_instance, 1),
        functools.partial(generate.bi_instance, 1),
        functools.partial(random_system, 3, k=2, max_dim=3),
        functools.partial(random_system, 23, k=3, max_dim=2),
    ])
    def test_series_is_transfer_by_D(self, make):
        nsys = normalize(make())
        v, w = random_family(nsys, 5), random_family(nsys, 6)
        ser = sphere_sums(v, w, 16)
        d = dense_D(twin_package(nsys))
        _, x, out = _ends(v, w)
        cut = np.cumsum([0] + [nsys.dims[c] + nsys.dims[c ^ 1]
                               for c in nsys.alphabet.letters])
        x_vec, w_vec = (_slot_vector(d, [np.outer(z[lo:hi].conj(),
                                                  z[lo:hi])
                                         for lo, hi in zip(cut, cut[1:])])
                        for z in (x, out))
        got = []
        for _ in range(16):
            got.append(w_vec @ x_vec)
            x_vec = d.matrix @ x_vec
        np.testing.assert_allclose(got, ser.s[1:], rtol=1e-12, atol=0)


def _edge_gauge(sys_, seed):
    """Copy of ``sys_`` in a random unitary basis that keeps the first
    basis vector of letter 0, where the CLI takes its series."""
    rng = np.random.default_rng(seed)

    def haar(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    g = [haar(n) for n in sys_.dims]
    g[0] = np.eye(sys_.dims[0], dtype=complex)
    g[0][1:, 1:] = haar(sys_.dims[0] - 1)
    blocks = {(b, a): g[b] @ m @ g[a].conj().T
              for (b, a), m in sys_.blocks.items()}
    return MatrixSystem(sys_.alphabet, sys_.dims, blocks)


_GAUGE_POOL = (
    generate.s0_system,
    functools.partial(generate.ai_instance, 1),
    functools.partial(generate.bi_instance, 1),
    functools.partial(random_system, 3, k=2, max_dim=3),
    functools.partial(generate.self_twin_system, 0, dim=3),
)


class TestGaugeInvariance:
    @settings(derandomize=True, database=None, max_examples=5,
              deadline=None)
    @given(index=st.integers(0, len(_GAUGE_POOL) - 1),
           seed=st.integers(0, 2**32 - 1))
    def test_edge_series_unchanged_by_unitary_gauge(self, index, seed):
        sys_ = _GAUGE_POOL[index]()
        series = []
        for copy in (sys_, _edge_gauge(sys_, seed)):
            f = _first_edge_vector(normalize(copy))
            series.append(sphere_sums(f, f, 64).s)
        np.testing.assert_allclose(series[1], series[0], rtol=1e-10, atol=0)


def _two_pass_edge_vector(nsys):
    """The edge vector built by canonicalizing ``e_0``, measuring its
    norm, and canonicalizing the rescaled vector again."""
    v = np.zeros(nsys.dims[0], dtype=complex)
    v[0] = 1.0
    f = canonicalize(nsys, [MuSummand(x=(), letter=0, v=v)], 0)
    v[0] = 1.0 / norm(f)
    return canonicalize(nsys, [MuSummand(x=(), letter=0, v=v)], 0)


class TestFirstEdgeVector:
    @pytest.mark.parametrize("make", [
        generate.s0_system,
        functools.partial(ai_instance, 1),
        functools.partial(random_system, 0, k=2, max_dim=8),
    ])
    def test_matches_two_pass_construction(self, make):
        nsys = normalize(make())
        got, want = _first_edge_vector(nsys), _two_pass_edge_vector(nsys)
        assert got.depth == want.depth == 0
        assert got.coeffs.keys() == want.coeffs.keys()
        for key, vec in want.coeffs.items():
            assert np.array_equal(got.coeffs[key], vec)
        assert norm(got) == pytest.approx(1.0, rel=1e-12)


class TestBudget:
    """There is no enumeration budget: every requested horizon is computed
    in full and ``cutoff`` stays false."""

    def test_within_budget_not_flagged(self):
        nsys = normalize(random_scalar_system(53))
        ser = sphere_sums(random_family(nsys, 12), random_family(nsys, 12), 6)
        assert not ser.cutoff
        assert ser.nmax == 6
        assert len(ser.s) == 7

    def test_matrix_letters_on_three_generators_not_cut(self):
        # the old budget stopped this shape (k = 3, dims up to 3) at n = 6
        nsys = normalize(random_system(47, k=3, max_dim=3))
        ser = sphere_sums(random_family(nsys, 11), random_family(nsys, 11), 40)
        assert not ser.cutoff
        assert ser.nmax == 40
        assert len(ser.s) == 41


class TestHaagerupBound:
    def test_s0_clean(self, s0_norm):
        v = first_shell(s0_norm, {A: [1.0]})
        assert haagerup_violations(sphere_sums(v, v, 8)) == []

    def test_random_systems_clean(self):
        for seed in (61, 62, 63):
            nsys = normalize(random_system(seed, k=2, max_dim=2))
            v = random_family(nsys, seed)
            w = random_family(nsys, seed + 100)
            ser = sphere_sums(v, w, 6)
            assert haagerup_violations(ser) == []
            scale = (ser.v_norm * ser.w_norm) ** 2
            for n, s in enumerate(ser.s):
                assert s <= (n + 1) ** 2 * scale * (1 + 1e-9) + 1e-9

    def test_s0_long_horizon(self, s0_norm):
        v = first_shell(s0_norm, {A: [1.0]})
        ser = sphere_sums(v, v, 512)
        assert haagerup_violations(ser) == []
        assert exponent_fit(ser).p_hat >= 2.95

    def test_flags_planted_violation(self):
        bad = synthetic([1.0, 2.0, 3.0, 99.0])
        assert haagerup_violations(bad) == [3]


class TestExponentFit:
    def test_constant_series(self):
        fit = exponent_fit(synthetic([1.0] * 13))
        assert fit.p_hat == pytest.approx(1.0, abs=1e-9)
        assert fit.slope == pytest.approx(0.0, abs=1e-9)
        assert fit.confidence > 0.999

    def test_quadratic_series(self):
        fit = exponent_fit(synthetic([1.0] + [float(n * n) for n in range(1, 13)]))
        assert fit.p_hat == pytest.approx(3.0, abs=1e-9)
        assert fit.confidence > 0.999
        assert fit.window == (6, 12)

    def test_clamped_to_range(self):
        fit = exponent_fit(synthetic([1.0] + [float(n ** 4) for n in range(1, 13)]))
        assert fit.p_hat == 3.0
        decay = exponent_fit(synthetic([4.0 ** (-n) for n in range(13)]))
        assert decay.p_hat == 1.0

    def test_short_series_raises(self):
        with pytest.raises(ValueError, match="series too short"):
            exponent_fit(synthetic([1.0] * 6))

    def test_all_zero_raises(self):
        with pytest.raises(ValueError, match="all-zero series"):
            exponent_fit(synthetic([0.0] * 13))

    def test_s0_measured_exponent(self, s0_norm):
        v = first_shell(s0_norm, {A: [1.0]})
        ser = sphere_sums(v, v, 12)
        fit = exponent_fit(ser)
        assert 2.7 <= fit.p_hat <= 3.3


class TestPhiEps:
    def test_requires_positive_eps(self, s0_norm):
        v = first_shell(s0_norm, {A: [1.0]})
        with pytest.raises(ValueError, match="positive"):
            phi_eps_norm(sphere_sums(v, v, 3), 0.0)

    def test_damped_sum_and_tail(self, s0_norm):
        v = first_shell(s0_norm, {A: [1.0]})
        ser = sphere_sums(v, v, 8)
        tight = phi_eps_norm(ser, 2.5)
        expect = sum(s * np.exp(-2.5 * n) for n, s in enumerate(ser.s))
        assert tight.value == pytest.approx(expect, rel=1e-12)
        assert tight.tail_ok
        loose = phi_eps_norm(ser, 0.3)
        assert not loose.tail_ok
        assert loose.value > tight.value

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_tail_matches_term_by_term_sum(self, s0_norm, eps):
        v = first_shell(s0_norm, {A: [1.0]})
        ser = sphere_sums(v, v, 8)
        scale = (ser.v_norm * ser.w_norm) ** 2
        want, n = 0.0, ser.nmax + 1
        while True:
            term = (n + 1) ** 2 * np.exp(-eps * n) * scale
            want += term
            if term < 1e-18 * want:
                break
            n += 1
        assert phi_eps_norm(ser, eps).tail_bound == pytest.approx(
            want, rel=1e-12)

    def test_tiny_eps_tail_is_closed_form(self, s0_norm):
        # Σ_{j≥1} j² q^{j−1} = (1+q)/(1−q)³ less the first nmax+1 terms;
        # a term-by-term sum would need ~1e9 steps here
        eps = 1e-8
        v = first_shell(s0_norm, {A: [1.0]})
        ser = sphere_sums(v, v, 8)
        start = time.perf_counter()
        rep = phi_eps_norm(ser, eps)
        assert time.perf_counter() - start < 1.0
        q, p = np.exp(-eps), -np.expm1(-eps)
        head = sum(j * j * q ** (j - 1) for j in range(1, ser.nmax + 2))
        want = (ser.v_norm * ser.w_norm) ** 2 * ((1 + q) / p ** 3 - head)
        assert rep.tail_bound == pytest.approx(want, rel=1e-12)
        assert not rep.tail_ok

    def test_zero_family_returns(self, s0_norm):
        # a zero norm scale makes every tail term 0; the sum must stop
        v = first_shell(s0_norm, {A: [1.0]})
        rep = phi_eps_norm(sphere_sums(first_shell(s0_norm, {}), v, 6), 0.5)
        assert rep.tail_bound == 0.0
        assert rep.value == 0.0


class TestGoodVector:
    def test_bounded_series_plausible(self):
        verdict = good_vector_verdict(synthetic([1.0] * 13))
        assert verdict.bounded
        assert verdict.label == "GVB-plausible"
        assert verdict.heuristic

    def test_growing_series_implausible(self):
        verdict = good_vector_verdict(
            synthetic([1.0] + [float(n * n) for n in range(1, 13)]))
        assert not verdict.bounded
        assert verdict.label == "GVB-implausible"
        assert verdict.sup_s == 144.0

    def test_s0_probe_implausible(self, s0_norm):
        v = first_shell(s0_norm, {A: [1.0]})
        assert good_vector_probe(v, 10).label == "GVB-implausible"

    def test_bounded_class_probe_plausible(self):
        nsys = normalize(ai_instance(6))
        v = random_family(nsys, 13)
        assert good_vector_probe(v, 9).label == "GVB-plausible"
