"""Block matrix assembly, eigenvalue-1 analysis, Q solve, trace
obstruction, and the class decision."""

import numpy as np
import pytest

from freerep import generate
from freerep.systems import UndecidedError, normalize
from freerep.twin import twin_package
from freerep.spectral import (
    DMatrix,
    build_D,
    classify,
    diag_block_apply,
    diag_eigvec_check,
    diag_eigvec_tuples,
    eigen_one,
    q_least_squares,
    solve_Q,
    trace_condition,
    twin_side_trace_condition,
)

# Entries of the block table, duplicated here by hand as an independent
# check on the kron realization in build_D.
_TABLE = {
    (1, 1): ("hh", "hh"), (1, 2): ("e", "hh"), (1, 3): ("hh", "e"),
    (1, 4): ("e", "e"), (2, 2): ("h", "hh"), (2, 4): ("h", "e"),
    (3, 3): ("hh", "h"), (3, 4): ("e", "h"), (4, 4): ("h", "h"),
}


def naive_apply(pkg, rows):
    """Apply the block matrix to four block-row tuples by direct loops."""
    nsys = pkg.original
    size = nsys.alphabet.size
    out = {}
    for i in (1, 2, 3, 4):
        row_out = []
        for a in range(size):
            acc = None
            for j in (1, 2, 3, 4):
                if (i, j) not in _TABLE:
                    continue
                xk, yk = _TABLE[(i, j)]
                for b in range(size):
                    if a == b ^ 1:
                        continue
                    mats = {"h": nsys.h(a, b), "hh": pkg.hhat(a, b),
                            "e": pkg.e(a, b)}
                    term = mats[xk] @ rows[j][b] @ mats[yk].conj().T
                    acc = term if acc is None else acc + term
            row_out.append(acc)
        out[i] = tuple(row_out)
    return out


def random_rows(pkg, rng):
    nsys = pkg.original
    dims = nsys.dims
    rows = {}
    shapes = {1: lambda a: (dims[a ^ 1], dims[a ^ 1]),
              2: lambda a: (dims[a], dims[a ^ 1]),
              3: lambda a: (dims[a ^ 1], dims[a]),
              4: lambda a: (dims[a], dims[a])}
    for i in (1, 2, 3, 4):
        rows[i] = tuple(
            rng.standard_normal(shapes[i](a)) + 1j * rng.standard_normal(shapes[i](a))
            for a in range(nsys.alphabet.size)
        )
    return rows


@pytest.fixture(scope="module")
def s0_pkg(s0_norm):
    return twin_package(s0_norm)


@pytest.fixture(scope="module")
def s0_D(s0_pkg):
    return build_D(s0_pkg)


class TestBuildD:
    def test_s0_side(self, s0_D):
        assert s0_D.side == 16
        assert s0_D.matrix.shape == (16, 16)

    def test_s0_row4_diagonal_entries(self, s0_D):
        # scalar system: the row-4 diagonal couplings are |H_ab|^2 = 1/3
        for a in range(4):
            ro, _ = s0_D.slots[(4, a)]
            for b in range(4):
                co, _ = s0_D.slots[(4, b)]
                want = 0.0 if a == b ^ 1 else 1 / 3
                assert s0_D.matrix[ro, co] == pytest.approx(want, abs=1e-12)

    def test_structural_zeros_exact(self):
        pkg = twin_package(normalize(generate.random_system(77, k=2, max_dim=2)))
        d = build_D(pkg)
        absent = [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
        for i, j in absent:
            for a in range(4):
                ro, rs = d.slots[(i, a)]
                for b in range(4):
                    co, cs = d.slots[(j, b)]
                    block = d.matrix[ro:ro + rs[0] * rs[1],
                                     co:co + cs[0] * cs[1]]
                    assert np.all(block == 0)

    def test_matches_naive_action(self):
        rng = np.random.default_rng(5)
        for seed in (11, 12):
            pkg = twin_package(normalize(generate.random_system(seed, k=2,
                                                                max_dim=2)))
            d = build_D(pkg)
            rows = random_rows(pkg, rng)
            vec = sum(d.embed(i, rows[i]) for i in (1, 2, 3, 4))
            image = d.matrix @ vec
            want = naive_apply(pkg, rows)
            for i in (1, 2, 3, 4):
                got = d.extract(i, image)
                for g, w in zip(got, want[i]):
                    assert np.linalg.norm(g - w) < 1e-12 * max(
                        np.linalg.norm(w), 1.0)

    def test_rho_is_one(self, s0_D):
        rho = np.max(np.abs(np.linalg.eigvals(s0_D.matrix)))
        assert rho == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed,k", [(21, 2), (22, 2), (23, 3)])
    def test_rho_is_one_random(self, seed, k):
        pkg = twin_package(normalize(generate.random_system(seed, k=k,
                                                            max_dim=2)))
        d = build_D(pkg)
        rho = np.max(np.abs(np.linalg.eigvals(d.matrix)))
        assert rho == pytest.approx(1.0, abs=1e-8)


class TestEigenOne:
    def test_s0_cluster(self, s0_D):
        eig = eigen_one(s0_D)
        assert eig.mult_one == 4
        assert eig.dim_one == 2
        assert eig.gap > 1e-2
        assert not eig.ambiguous

    def test_halved_matrix_has_empty_cluster(self, s0_D):
        half = DMatrix(matrix=s0_D.matrix / 2, slots=s0_D.slots,
                       side=s0_D.side)
        eig = eigen_one(half)
        assert eig.mult_one == 0
        assert eig.dim_one == 0

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_inequivalent_mult_two(self, seed):
        pkg = twin_package(normalize(generate.random_system(seed, k=2,
                                                            max_dim=2)))
        assert not pkg.equivalent
        eig = eigen_one(build_D(pkg))
        assert eig.mult_one == 2

    def test_narrow_gap_raises(self):
        mat = np.diag([1.0, 1.0 - 5e-6, 0.3, 0.3]).astype(complex)
        d = DMatrix(matrix=mat, slots={}, side=4)
        with pytest.raises(UndecidedError, match="ill-conditioned cluster"):
            eigen_one(d)


class TestDiagEigvec:
    def test_s0_residuals(self, s0_pkg):
        res = diag_eigvec_check(s0_pkg)
        assert len(res) == 4
        assert max(res) < 1e-11

    def test_self_twin_residuals(self):
        pkg = twin_package(normalize(generate.self_twin_system(12, k=2,
                                                               dim=2)))
        assert pkg.equivalent
        res = diag_eigvec_check(pkg)
        assert max(res) < 1e-9

    def test_scaled_tuple_still_fixed(self, s0_pkg):
        u1 = diag_eigvec_tuples(s0_pkg)[0]
        scaled = tuple(3.7 * m for m in u1)
        image = diag_block_apply(s0_pkg, 1, scaled)
        gap = max(np.linalg.norm(x - y) for x, y in zip(image, scaled))
        assert gap < 1e-11

    def test_perturbed_tuple_fails(self, s0_pkg):
        u4 = list(diag_eigvec_tuples(s0_pkg)[3])
        u4[0] = np.zeros_like(u4[0])
        image = diag_block_apply(s0_pkg, 4, tuple(u4))
        gap = max(np.linalg.norm(x - y) for x, y in zip(image, u4))
        assert gap > 0.1

    def test_requires_k(self):
        pkg = twin_package(normalize(generate.rotated_scalar_system(0.9)))
        with pytest.raises(ValueError, match="K missing"):
            diag_eigvec_check(pkg)


class TestTraceCondition:
    def test_s0_value(self, s0_pkg):
        value, scale = trace_condition(s0_pkg)
        assert value == pytest.approx(8 / np.sqrt(3), abs=1e-9)
        assert scale == pytest.approx(8 / np.sqrt(3), abs=1e-9)

    def test_s0_twin_side_value(self, s0_pkg):
        value, _ = twin_side_trace_condition(s0_pkg)
        assert value == pytest.approx(8 / np.sqrt(3), abs=1e-9)

    def test_scales_linearly_in_e(self, s0_pkg):
        # doubling every E block doubles the sum; checked through a shim
        value, _ = trace_condition(s0_pkg)

        class Doubled:
            original = s0_pkg.original
            twin = s0_pkg.twin
            K = s0_pkg.K

            @staticmethod
            def e(a, b):
                return 2 * s0_pkg.e(a, b)

        doubled, _ = trace_condition(Doubled)
        assert doubled == pytest.approx(2 * value, abs=1e-9)

    def test_requires_k(self):
        pkg = twin_package(normalize(generate.rotated_scalar_system(1.1)))
        with pytest.raises(ValueError, match="K missing"):
            trace_condition(pkg)


class TestSolveQ:
    def test_s0_inconsistent(self, s0_pkg):
        assert solve_Q(s0_pkg) is None
        _, residual = q_least_squares(s0_pkg)
        assert residual > 1e-3

    def test_rotated_scalar_exact_q(self):
        theta = 1.2
        pkg = twin_package(normalize(generate.rotated_scalar_system(theta)))
        q = solve_Q(pkg)
        assert q is not None
        assert q.residual < 1e-12
        assert q.antisymmetry_residual < 1e-12
        want = -1j / (np.sqrt(3) * np.sin(theta))
        for m in q.Q:
            assert m.shape == (1, 1)
            assert m[0, 0] == pytest.approx(want, abs=1e-9)

    def test_gauged_rotated_scalar_has_q(self):
        pkg = twin_package(normalize(
            generate.rotated_scalar_system(0.8, gauge_seed=4)))
        q = solve_Q(pkg)
        assert q is not None
        assert q.residual < 1e-10
        assert q.antisymmetry_residual < 1e-10

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_random_generic_has_no_q(self, seed):
        pkg = twin_package(normalize(generate.random_system(seed, k=2,
                                                            max_dim=2)))
        assert solve_Q(pkg) is None


class TestClassify:
    def test_s0_report(self, s0_norm):
        report = classify(s0_norm)
        assert report.class_label == "BII"
        assert report.twins_equivalent
        assert report.mult_one == 4
        assert report.dim_one == 2
        assert report.predicted_exponent == 3
        assert report.realization_verdict == "monotony"
        assert report.rho_D == pytest.approx(1.0, abs=1e-8)
        assert report.Q is None
        assert abs(report.trace_condition_value) > 1e-3
        assert report.diag_residuals is not None
        assert max(report.diag_residuals) < 1e-11
        assert not report.diagnostics

    @pytest.mark.parametrize("theta", [0.7, 1.2, 2.1])
    def test_rotated_scalar_is_ai(self, theta):
        report = classify(normalize(generate.rotated_scalar_system(theta)))
        assert report.class_label == "AI"
        assert not report.twins_equivalent
        assert report.mult_one == 2
        assert report.dim_one == 2
        assert report.predicted_exponent == 1
        assert report.realization_verdict == "duplicity"
        assert report.Q is not None

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_random_dense_is_aii(self, seed):
        report = classify(normalize(generate.random_system(seed, k=2,
                                                           max_dim=2)))
        assert report.class_label == "AII"
        assert report.mult_one == 2
        assert report.dim_one == 1
        assert report.predicted_exponent == 2
        assert report.realization_verdict == "monotony"
        assert report.Q is None

    def test_single_eigensolve_of_D(self, monkeypatch):
        nsys = normalize(generate.random_system(51, k=2, max_dim=2))
        solves = []
        eigvals = np.linalg.eigvals

        def recording(m):
            vals = eigvals(m)
            solves.append((np.shape(m), vals))
            return vals

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        report = classify(nsys)
        side = report.dmatrix.side
        of_d = [vals for shape, vals in solves if shape == (side, side)]
        assert len(of_d) == 1
        assert report.rho_D == float(np.max(np.abs(of_d[0])))


class TestInstanceFamilies:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_bi_instance_classifies_bi(self, seed):
        report = classify(normalize(generate.bi_instance(seed)))
        assert report.class_label == "BI"
        assert report.twins_equivalent
        assert report.mult_one == 4
        assert report.dim_one == 4
        assert report.predicted_exponent == 1
        assert report.realization_verdict == "oddity-split"
        assert report.Q is not None
        assert report.Q.residual < 1e-9
        assert report.Q.antisymmetry_residual < 1e-9

    def test_bi_instance_has_nonzero_e(self):
        pkg = twin_package(normalize(generate.bi_instance(1)))
        norms = [np.linalg.norm(pkg.e(a, b))
                 for a in range(4) for b in range(4) if a != b ^ 1]
        assert max(norms) > 0.05

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_trace_conditions_co_vanish_on_bi(self, seed):
        # geometric dimension 4: both trace sums must vanish together
        pkg = twin_package(normalize(generate.bi_instance(seed)))
        value, scale = trace_condition(pkg)
        assert abs(value) < 1e-8 * max(scale, 1.0)
        twin_value, twin_scale = twin_side_trace_condition(pkg)
        assert abs(twin_value) < 1e-8 * max(twin_scale, 1.0)

    def test_bi_e0_system_has_vanishing_e(self):
        pkg = twin_package(normalize(generate.bi_e0_system(3)))
        norms = [np.linalg.norm(pkg.e(a, b))
                 for a in range(4) for b in range(4) if a != b ^ 1]
        assert max(norms) < 1e-12

    def test_bi_e0_system_classifies_bi_with_trivial_q(self):
        report = classify(normalize(generate.bi_e0_system(3)))
        assert report.class_label == "BI"
        assert report.dim_one == 4
        assert report.Q is not None
        assert max(np.linalg.norm(m) for m in report.Q.Q) == 0.0

    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_ai_instance_classifies_ai(self, seed):
        report = classify(normalize(generate.ai_instance(seed)))
        assert report.class_label == "AI"

    @pytest.mark.parametrize("seed", [9, 10])
    def test_aii_instance_classifies_aii(self, seed):
        report = classify(normalize(generate.aii_instance(seed)))
        assert report.class_label == "AII"
