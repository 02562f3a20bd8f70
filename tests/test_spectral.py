"""Block matrix assembly, eigenvalue-1 analysis, Q solve, trace
obstruction, and the class decision."""

import ast
import dataclasses
import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_d import dense_D
from freerep import generate, spectral
from freerep import systems
from freerep import twin as twin_module
from freerep.series import moment_step
from freerep.systems import (
    MatrixSystem,
    UndecidedError,
    frob_tuple,
    normalize,
    spectral_radius_T,
    transfer_matrix,
)
from freerep.twin import solve_equivalence, twin, twin_package, twin_system
from freerep.spectral import (
    _ROWS,
    DELTA,
    GAP_FACTOR,
    EigenOne,
    _accept_Q,
    _fixed_forms,
    build_D,
    classify,
    eigen_one,
    q_least_squares,
    solve_Q,
    trace_condition,
    trace_ratio,
)

# Entries of the block table, duplicated here by hand as an independent
# check on the step that realizes D and on its dense oracle.
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


def diag_block_apply(pkg, i, tuple_of_mats):
    """Oracle: action of the diagonal block ``D_ii`` on a block-row tuple,
    computed from the letter blocks independently of :func:`build_D`."""
    nsys = pkg.original
    size = nsys.alphabet.size
    factors = {
        1: lambda a, b: (pkg.hhat(a, b), pkg.hhat(a, b)),
        2: lambda a, b: (nsys.h(a, b), pkg.hhat(a, b)),
        3: lambda a, b: (pkg.hhat(a, b), nsys.h(a, b)),
        4: lambda a, b: (nsys.h(a, b), nsys.h(a, b)),
    }[i]
    out = []
    for a in range(size):
        acc = 0
        for b in range(size):
            if a == b ^ 1:
                continue
            x, y = factors(a, b)
            acc = acc + x @ tuple_of_mats[b] @ y.conj().T
        out.append(acc)
    return tuple(out)


def _row3_forms(pkg):
    """Oracle for the row-3 pair, which ``build_D`` takes as the adjoint of
    row 2's: the right tuple ``(B_{a⁻¹} K_{a⁻¹}⁻¹)_a`` and the left tuple
    ``(K_a† B̂_a)_a``."""
    B, Bh, K = pkg.original.B, pkg.twin.B, pkg.K
    letters = range(len(K))
    return (tuple(np.linalg.solve(K[a ^ 1].T, B[a ^ 1].T).T for a in letters),
            tuple(K[a].conj().T @ Bh[a] for a in letters))


def diag_eigvec_tuples(pkg):
    """The four diagonal-block fixed tuples built from ``B``, ``B̂``, ``K``."""
    if pkg.K is None:
        raise ValueError("K missing: diagonal eigenvector check requires "
                         "equivalent twins")
    return (_fixed_forms(pkg, 1)[0], _fixed_forms(pkg, 2)[0],
            _row3_forms(pkg)[0], _fixed_forms(pkg, 4)[0])


def diag_eigvec_check(pkg):
    """Residuals of ``D_ii U_i = U_i`` for the four canonical tuples."""
    residuals = []
    for i, u in enumerate(diag_eigvec_tuples(pkg), start=1):
        image = diag_block_apply(pkg, i, u)
        gap = frob_tuple(tuple(x - y for x, y in zip(image, u)))
        residuals.append(gap / frob_tuple(u))
    return tuple(residuals)


def twin_side_trace_condition(pkg):
    """Oracle: the twin-side trace sum
    ``Σ_ab tr(Ĥ_ab B_{b⁻¹} K_{b⁻¹}⁻¹ E_ab† B̂_a)``, expected to vanish
    exactly when :func:`trace_condition` does."""
    if pkg.K is None:
        raise ValueError("K missing")
    nsys, tw, K = pkg.original, pkg.twin, pkg.K
    size = nsys.alphabet.size
    value = 0.0 + 0.0j
    scale = 0.0
    for a in range(size):
        for b in range(size):
            if a == b ^ 1:
                continue
            term = np.trace(
                pkg.hhat(a, b) @ nsys.B[b ^ 1] @ np.linalg.inv(K[b ^ 1])
                @ pkg.e(a, b).conj().T @ tw.B[a]
            )
            value += term
            scale += abs(term)
    return complex(value), float(scale)


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


def _eigen_one_dense(d, delta=DELTA):
    """Oracle for :func:`eigen_one`: the dense analysis it replaced.

    ``eigvals`` of the whole of ``D`` for the cluster, and the singular
    values of ``D − I`` in raw coordinates for the geometric dimension,
    ranked against ``δ·σ_max``.  Singular values are not similarity
    invariant, so ``ambiguous`` marks where this oracle cannot be read.
    """
    vals = np.linalg.eigvals(d.matrix)
    dist = np.abs(vals - 1.0)
    inside = dist < delta
    mult = int(np.sum(inside))
    outside = dist[~inside]
    gap = float(outside.min()) if outside.size else np.inf
    sv = np.linalg.svd(d.matrix - np.eye(d.side), compute_uv=False)
    thresh = delta * sv[0]
    dim = int(np.sum(sv < thresh))
    near = sv[(sv > thresh / 10) & (sv < thresh * 10)]
    return EigenOne(
        mult_one=mult,
        dim_one=dim,
        gap=gap,
        sv_profile=tuple(float(x) for x in sv[-max(mult, dim, 1) - 2:]),
        ambiguous=near.size > 0,
        threshold=thresh,
    )


def _eig_pair(block):
    """Right and left eigenvectors of ``block`` for its eigenvalue
    nearest 1."""
    vals, vecs = np.linalg.eig(block)
    lvals, lvecs = np.linalg.eig(block.T)
    return (vecs[:, np.argmin(np.abs(vals - 1.0))],
            lvecs[:, np.argmin(np.abs(lvals - 1.0))])


def _eig_coupling(d):
    """Oracle for the coupling ``N`` of :func:`eigen_one` on equivalent
    twins: the fixed pairs of the dense diagonal blocks from eigensolves,
    scaled to the norms of the balanced closed forms of ``d.forms``,
    coupled through dense group inverses ``(I − D_mm + r l)⁻¹ − r l``."""
    dense = dense_D(d.package)
    pairs, groups = {}, {}
    for i in _ROWS:
        block = dense.block(i, i)
        r, l = _eig_pair(block)
        # r is the closed form's up to a phase, so N is up to phases
        scale = np.linalg.norm(d.forms[i][0]) / np.linalg.norm(r)
        pairs[i] = (r * scale, l / (l @ r) / scale)
        rl = np.outer(*pairs[i])
        groups[i] = np.linalg.inv(np.eye(len(block)) - block + rl) - rl
    n = np.zeros((4, 4), dtype=complex)
    for j in _ROWS:
        c = {}
        for i in range(j - 1, 0, -1):
            c[i] = dense.block(i, j) + sum(
                dense.block(i, m) @ groups[m] @ c[m] for m in range(i + 1, j))
            n[i - 1, j - 1] = pairs[i][1] @ c[i] @ pairs[j][0]
    return n


def _linalg_calls(source, names):
    """Line numbers of every ``np.linalg.<name>`` call, and of every
    import of one from ``numpy.linalg``, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        called = (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in names
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "linalg")
        imported = (isinstance(node, ast.ImportFrom)
                    and node.module == "numpy.linalg"
                    and {a.name for a in node.names} & set(names))
        if called or imported:
            found.append(node.lineno)
    return found


def _spectrum_gap(x, y):
    """Largest distance when each value of ``x`` is matched to the
    nearest unmatched value of ``y``: a sort of two spectra that
    tolerates rounding between the members of conjugate pairs."""
    assert len(x) == len(y)
    rest = list(y)
    worst = 0.0
    for v in x:
        k = int(np.argmin(np.abs(np.asarray(rest) - v)))
        worst = max(worst, abs(rest.pop(k) - v))
    return worst


def _gauged(sys_, gs):
    """Copy of ``sys_`` under the gauge ``H[b|a] → g_b H[b|a] g_a⁻¹``."""
    blocks = {(b, a): np.linalg.solve(gs[a].T, (gs[b] @ m).T).T
              for (b, a), m in sys_.blocks.items()}
    return MatrixSystem(sys_.alphabet, sys_.dims, blocks)


def _gauge_draw(rng, dims):
    """Non-unitary gauge ``g_c = G + 2I``, ``G`` complex Gaussian."""
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            + 2 * np.eye(n) for n in dims]


def _relabelled(sys_, order, inverted):
    """Copy of ``sys_`` with generator ``g`` renamed ``order[g]``, and
    replaced by its inverse where ``inverted[g]``."""
    def letter(c):
        return 2 * order[c // 2] + ((c & 1) ^ int(inverted[c // 2]))

    dims = [0] * len(sys_.dims)
    for c, n in enumerate(sys_.dims):
        dims[letter(c)] = n
    blocks = {(letter(b), letter(a)): m for (b, a), m in sys_.blocks.items()}
    return MatrixSystem(sys_.alphabet, dims, blocks)


@functools.lru_cache(maxsize=None)
def _gate_systems():
    """The 17 self-twin dim-3 systems of the eigenvalue-1 gate: seeds
    0..9, and 7 non-unitary gauge copies of seed 0."""
    out = [generate.self_twin_system(s, k=2, dim=3) for s in range(10)]
    rng = np.random.default_rng(1)
    out += [_gauged(out[0], _gauge_draw(rng, out[0].dims))
            for _ in range(7)]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _metamorphic_pool():
    """The gate systems and gauge copies of AI and BI instances, whose
    forms are then not the identity."""
    rng = np.random.default_rng(2)
    scalar = [generate.ai_instance(1), generate.ai_instance(2),
              generate.bi_instance(1), generate.bi_instance(2)]
    return _gate_systems() + tuple(
        _gauged(sys_, _gauge_draw(rng, sys_.dims)) for sys_ in scalar)


@functools.lru_cache(maxsize=None)
def _report(index):
    """Classification of a pool system, shared by the gate and the
    metamorphic tests."""
    return classify(normalize(_metamorphic_pool()[index]))


def _decision(report):
    return report.class_label, report.mult_one, report.dim_one


def _assert_same_decision(index, report):
    base = _report(index)
    assert base.class_label != "undecided", base.diagnostics
    assert _decision(report) == _decision(base), report.diagnostics


def _q_least_squares_oracle(pkg):
    """Reference for :func:`q_least_squares`: the Q equations
    ``Q_a H_ab − Ĥ_ab Q_b = E_ab`` stacked pair by pair and solved by
    ``np.linalg.lstsq``.  Returns the left-hand side, ``Q`` and the
    relative residual."""
    nsys = pkg.original
    dims = nsys.dims
    size = nsys.alphabet.size
    cols = [dims[c ^ 1] * dims[c] for c in range(size)]
    offs = np.concatenate([[0], np.cumsum(cols)]).astype(int)
    lhs_rows = []
    rhs_parts = []
    for a in range(size):
        for b in range(size):
            if a == b ^ 1:
                continue
            row = np.zeros((dims[a ^ 1] * dims[b], offs[-1]), dtype=complex)
            row[:, offs[a]:offs[a] + cols[a]] += np.kron(
                np.eye(dims[a ^ 1]), nsys.h(a, b).T
            )
            row[:, offs[b]:offs[b] + cols[b]] -= np.kron(pkg.hhat(a, b),
                                                         np.eye(dims[b]))
            lhs_rows.append(row)
            rhs_parts.append(pkg.e(a, b).ravel())
    lhs, rhs = np.vstack(lhs_rows), np.concatenate(rhs_parts)
    if np.linalg.norm(rhs) < 1e-12 * frob_tuple(nsys.B):
        sol, residual = np.zeros(offs[-1], dtype=complex), 0.0
    else:
        sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        residual = float(np.linalg.norm(lhs @ sol - rhs)
                         / np.linalg.norm(rhs))
    Q = tuple(sol[offs[c]:offs[c + 1]].reshape(dims[c ^ 1], dims[c])
              for c in range(size))
    return lhs, Q, residual


def _recorded(monkeypatch, name, module=np.linalg):
    """List that collects ``(first argument, result)`` for every call of
    ``module.<name>``, ``np.linalg.<name>`` by default; an array argument
    is copied."""
    seen = []
    solve = getattr(module, name)

    def recording(a, *args, **kwargs):
        out = solve(a, *args, **kwargs)
        seen.append((a.copy() if isinstance(a, np.ndarray) else a, out))
        return out

    monkeypatch.setattr(module, name, recording)
    return seen


_Q_ORACLE_SYSTEMS = {
    "s0": generate.s0_system,
    **{"%s-%d" % (name, seed): functools.partial(make, seed)
       for name, make in (("ai", generate.ai_instance),
                          ("bi", generate.bi_instance),
                          ("aii", generate.aii_instance))
       for seed in (1, 2, 3)},
    "bi-e0-0": functools.partial(generate.bi_e0_system, 0),
    **{"random-%d" % seed: functools.partial(generate.random_system, seed,
                                             k=2, max_dim=8)
       for seed in range(4)},
    "self-twin-0": functools.partial(generate.self_twin_system, 0, dim=3),
}


_MIXED_SYSTEMS = {
    **{"pool-%d" % i: functools.partial(lambda i: _metamorphic_pool()[i], i)
       for i in range(21)},
    **{"wide-%d" % seed: functools.partial(generate.random_system, seed,
                                           k=2, max_dim=8)
       for seed in range(12)},
    **{"%s-%d" % (name, seed): functools.partial(make, seed)
       for name, make, seeds in (("ai", generate.ai_instance, range(1, 6)),
                                 ("bi", generate.bi_instance, range(1, 6)),
                                 ("aii", generate.aii_instance, range(1, 4)))
       for seed in seeds},
    "s0": generate.s0_system,
}


@functools.lru_cache(maxsize=None)
def _built_D(name):
    """``build_D`` of a named system of ``_MIXED_SYSTEMS`` or of
    ``_Q_ORACLE_SYSTEMS``, shared by the tests that read it."""
    make = {**_Q_ORACLE_SYSTEMS, **_MIXED_SYSTEMS}[name]
    return build_D(twin_package(normalize(make())))


@pytest.fixture(scope="module")
def s0_pkg(s0_norm):
    return twin_package(s0_norm)


@pytest.fixture(scope="module")
def s0_D(s0_pkg):
    return build_D(s0_pkg)


@pytest.fixture(scope="module")
def s0_dense(s0_pkg):
    return dense_D(s0_pkg)


def _apply_D(d, rows):
    """``D`` applied to four block-row tuples by one sphere-sum step on
    the moment matrix that holds them."""
    S = np.zeros(d.masks[1].shape, dtype=complex)
    for i in _ROWS:
        S[d.masks[i]] = np.concatenate([m.ravel() for m in rows[i]])
    image = moment_step(d.package.original, S)
    out = {}
    for i, mask in d.masks.items():
        vec, out[i] = image[mask], []
        for m in rows[i]:
            out[i].append(vec[:m.size].reshape(m.shape))
            vec = vec[m.size:]
    return out


class TestBuildD:
    def test_s0_side(self, s0_D, s0_dense):
        assert s0_D.side == 16
        assert s0_dense.matrix.shape == (16, 16)

    def test_s0_row4_diagonal_entries(self, s0_dense):
        # scalar system: the row-4 diagonal couplings are |H_ab|^2 = 1/3
        for a in range(4):
            ro, _ = s0_dense.slots[(4, a)]
            for b in range(4):
                co, _ = s0_dense.slots[(4, b)]
                want = 0.0 if a == b ^ 1 else 1 / 3
                assert s0_dense.matrix[ro, co] == pytest.approx(want,
                                                                abs=1e-12)

    def test_structural_zeros_exact(self):
        pkg = twin_package(normalize(generate.random_system(77, k=2, max_dim=2)))
        d = dense_D(pkg)
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
            d = dense_D(pkg)
            rows = random_rows(pkg, rng)
            vec = sum(d.embed(i, rows[i]) for i in (1, 2, 3, 4))
            image = d.matrix @ vec
            want = naive_apply(pkg, rows)
            for i in (1, 2, 3, 4):
                got = d.extract(i, image)
                for g, w in zip(got, want[i]):
                    assert np.linalg.norm(g - w) < 1e-12 * max(
                        np.linalg.norm(w), 1.0)

    def test_rho_is_one(self, s0_dense):
        rho = np.max(np.abs(np.linalg.eigvals(s0_dense.matrix)))
        assert rho == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed,k", [(21, 2), (22, 2), (23, 3)])
    def test_rho_is_one_random(self, seed, k):
        pkg = twin_package(normalize(generate.random_system(seed, k=k,
                                                            max_dim=2)))
        d = dense_D(pkg)
        rho = np.max(np.abs(np.linalg.eigvals(d.matrix)))
        assert rho == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("index", range(21))
    def test_step_matches_naive_action(self, index):
        # the step that D is in src, on random tuples in all four rows
        pkg = twin_package(normalize(_metamorphic_pool()[index]))
        rows = random_rows(pkg, np.random.default_rng(index))
        got = _apply_D(build_D(pkg), rows)
        want = naive_apply(pkg, rows)
        for i in _ROWS:
            gap = frob_tuple(tuple(g - w for g, w in zip(got[i], want[i])))
            assert gap <= 1e-12 * frob_tuple(want[i])

    @pytest.mark.parametrize("index", [0, 10, 17, 19])
    def test_dense_blocks_match_oracle(self, index):
        # build_D assembles one block, D_22 in the frame where B = I
        pkg = twin_package(normalize(_metamorphic_pool()[index]))
        d, oracle = build_D(pkg), dense_D(pkg)
        assert d.side == oracle.side
        w = _frame_oracle(pkg.original)
        want = w @ oracle.block(2, 2) @ np.linalg.inv(w)
        got = spectral._dense_block(pkg)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_no_dense_D(self):
        # a dense D of this system (side 784) takes 9.8 MB; holding only
        # D_22 and D_33 (side 192), classify peaks near 6 MB
        nsys = normalize(generate.random_system(7, k=2, max_dim=8))
        side = build_D(twin_package(nsys)).side
        assert side == 784
        tracemalloc.start()
        try:
            classify(nsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < side * side * 16


class TestEigenOne:
    def test_s0_cluster(self, s0_D):
        eig = eigen_one(s0_D)
        assert eig.mult_one == 4
        assert eig.dim_one == 2
        assert eig.gap > 1e-2
        assert not eig.ambiguous

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_inequivalent_mult_two(self, seed):
        pkg = twin_package(normalize(generate.random_system(seed, k=2,
                                                            max_dim=2)))
        assert not pkg.equivalent
        eig = eigen_one(build_D(pkg))
        assert eig.mult_one == 2

    @staticmethod
    def _assert_narrow_row_raises(name, row, monkeypatch):
        # 10δ between the bound of ``row``, the least, and the others: an
        # eigenvalue outside the cluster of D_row,row lies within 10δ of 1
        d = _built_D(name)
        bound = d.clusters[row - 1].bound
        other = min(c.bound for c in d.clusters if c.bound != bound)
        assert bound == eigen_one(d).gap < other
        monkeypatch.setattr(spectral, "DELTA", (bound + other) / 20)
        with pytest.raises(UndecidedError, match="ill-conditioned cluster"):
            eigen_one(d)

    def test_narrow_gap_raises(self, monkeypatch):
        # rows 1 and 4: the Perron gap of the transfer spectrum
        self._assert_narrow_row_raises("aii-2", 4, monkeypatch)

    def test_narrow_gap_without_cluster_raises(self, monkeypatch):
        # rows 2 and 3 of inequivalent twins: no eigenvalue within δ of 1,
        # and one within 10δ is ill-conditioned, not multiplicity 0
        self._assert_narrow_row_raises("ai-1", 2, monkeypatch)

    def test_narrow_deflated_gap_raises(self, monkeypatch):
        # rows 2 and 3 of equivalent twins: the bound of the deflated
        # certificate, every eigenvalue of D_22 but the fixed one
        self._assert_narrow_row_raises("s0", 3, monkeypatch)

    @pytest.mark.parametrize("make", [
        generate.s0_system,
        *[functools.partial(generate.ai_instance, s) for s in (1, 2, 3)],
        *[functools.partial(generate.bi_instance, s) for s in (1, 2, 3)],
        *[functools.partial(generate.bi_e0_system, s) for s in (0, 1, 2)],
        *[functools.partial(generate.random_system, s, k=2, max_dim=2)
          for s in (31, 32, 33)],
        functools.partial(generate.random_system, 23, k=3, max_dim=2),
    ])
    def test_matches_dense_oracle(self, make):
        pkg = twin_package(normalize(make()))
        eig = eigen_one(build_D(pkg))
        want = _eigen_one_dense(dense_D(pkg))
        assert eig.mult_one == want.mult_one
        # rows 2 and 3 give a certified lower bound, not the eigen-gap
        assert GAP_FACTOR * DELTA <= eig.gap <= want.gap * (1 + 1e-12)
        assert not eig.ambiguous
        if not want.ambiguous:
            assert eig.dim_one == want.dim_one

    def test_eig_fallback_agrees_with_closed_forms(self):
        # the eigensolve that once stood in for a closed form is the
        # oracle: eigenvectors of the dense diagonal blocks give the N of
        # the closed forms, row 3 the adjoint of row 2
        d = build_D(twin_package(normalize(_gate_systems()[1])))
        closed = eigen_one(d)
        sv = np.linalg.svd(_eig_coupling(d), compute_uv=False)
        assert closed.mult_one == 4
        assert 4 - int(np.sum(sv >= DELTA)) == closed.dim_one == 2
        np.testing.assert_allclose(sv[:2], closed.sv_profile[:2], rtol=1e-8)

    def test_inexact_K_reads_undecided(self):
        # K_0 off by 1e-4: the row-2 pair misses D_22 by more than δ,
        # which is checked before the certificate is read
        pkg = twin_package(normalize(_gate_systems()[0]))
        K = (pkg.K[0] * (1 + 1e-4),) + pkg.K[1:]
        d = build_D(dataclasses.replace(pkg, K=K))
        assert d.forms[2][2] >= DELTA
        with pytest.raises(UndecidedError, match="pair of D_22 has relative"):
            eigen_one(d)

    def test_n23_vanishes_on_equivalent_twins(self):
        # D_23 = 0, so rows 2 and 3 of N are parallel, rank N ≤ 2 and
        # dim_one ≥ 2: equivalent twins never have dimension 1
        equivalent = 0
        for name in sorted(_MIXED_SYSTEMS):
            d = _built_D(name)
            if d.package.K is None:
                continue
            equivalent += 1
            assert spectral._coupling(d)[1, 2] == 0
            assert eigen_one(d).dim_one >= 2
        assert equivalent == 25


class TestDiagEigvec:
    @pytest.mark.parametrize("name", ["s0", "bi-1", "pool-0", "pool-11"])
    def test_row3_pair_is_row2_adjoint(self, name):
        # build_D's row-3 pair against the K formula for row 3, up to
        # the balancing scale; row 2 balanced in the frame where B = I
        d = _built_D(name)
        right, left = _row3_forms(d.package)
        r, l = (np.concatenate([m.ravel() for m in t])
                for t in (right, tuple(m.T for m in left)))
        got_r, got_l, residual = d.forms[3]
        assert residual == d.forms[2][2]
        scale = np.linalg.norm(got_r) / np.linalg.norm(r)
        r, l = r * scale, l / (l @ r) / scale
        assert np.linalg.norm(got_r - r) <= 1e-12 * np.linalg.norm(r)
        assert np.linalg.norm(got_l - l) <= 1e-12 * np.linalg.norm(l)
        w = _frame_oracle(d.package.original)
        r_w, l_w = (np.linalg.norm(m @ v) for m, v in zip(
            (w, np.linalg.inv(w).T), d.forms[2][:2]))
        assert abs(r_w - l_w) <= 1e-12 * r_w

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

    def test_ratio_is_gauge_invariant(self):
        # seed 0 of the gate and its seven non-unitary gauge copies
        ratios = [trace_ratio(r.trace_condition_value,
                              r.trace_condition_scale)
                  for r in map(_report, (0,) + tuple(range(10, 17)))]
        assert min(ratios) > 1e-2
        assert max(ratios) - min(ratios) < 1e-6 * min(ratios)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ratio_vanishes_on_bi(self, seed):
        value, scale = trace_condition(
            twin_package(normalize(generate.bi_instance(seed))))
        assert scale > 0.1
        assert trace_ratio(value, scale) < 1e-15


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

    @pytest.mark.parametrize("name", sorted({**_Q_ORACLE_SYSTEMS,
                                             **_MIXED_SYSTEMS}))
    def test_matches_lstsq_oracle(self, name):
        # the resolvent Q against least squares on the stacked equations:
        # the same acceptance and the same Q, which equivalent twins fix
        # only up to a multiple of K; and the certificate's equivalence
        # status is the SVD's
        d = _built_D(name)
        pkg = d.package
        assert pkg.equivalence.status == solve_equivalence(
            pkg.original, pkg.twin).status
        _, want_Q, want_residual = _q_least_squares_oracle(pkg)
        Q, residual = q_least_squares(pkg, d)
        got = _accept_Q(pkg, Q, residual)
        want = _accept_Q(pkg, want_Q, want_residual)
        assert (got is None) == (want is None)
        if got is not None:
            gap = tuple(x - y for x, y in zip(Q, want_Q))
            if pkg.K is not None:
                along = (sum(np.vdot(k, g) for k, g in zip(pkg.K, gap))
                         / frob_tuple(pkg.K) ** 2)
                gap = tuple(g - along * k for k, g in zip(pkg.K, gap))
            assert frob_tuple(gap) <= 1e-10 * frob_tuple(want_Q)

    def test_classify_factorizes_M_once(self, monkeypatch):
        # the D_22 certificate decides inequivalent twins with no
        # factorization of M and Q needs none; equivalent twins take one
        # QR of M, for K
        seen = _recorded(monkeypatch, "qr")
        solves = []
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kwargs: solves.append(args))
        for name, label, qrs in (("ai-1", "AI", 0), ("s0", "BII", 1)):
            nsys = normalize(_Q_ORACLE_SYSTEMS[name]())
            dims = nsys.dims
            shape = (sum(dims[b ^ 1] * dims[a]
                         for b, a in nsys.system.pairs()),
                     sum(dims[c ^ 1] * dims[c] for c in nsys.alphabet.letters))
            seen.clear()
            rep = classify(nsys)
            assert rep.class_label == label
            assert (rep.Q is not None) == (label == "AI")
            assert [x.shape for x, _ in seen].count(shape) == qrs
        assert solves == []

    def test_K_matches_svd_of_M(self):
        # the null vector of M from the SVD of its R factor against the
        # SVD of M itself
        equivalent = []
        for name in sorted(_Q_ORACLE_SYSTEMS):
            pkg = _built_D(name).package
            got = solve_equivalence(pkg.original, pkg.twin)
            if got.K is None:
                continue
            equivalent.append(name)
            vh = np.linalg.svd(twin_module._intertwiner_matrix(
                pkg.original, pkg.twin), full_matrices=False)[2]
            want = twin_module._pin_phase(twin_module._unvec_tuple(
                vh[-1].conj(), pkg.original.dims, pkg.twin.dims))
            assert frob_tuple(tuple(
                g - w for g, w in zip(got.K, want))) <= 1e-12
        assert equivalent == ["bi-1", "bi-2", "bi-3", "bi-e0-0", "s0",
                              "self-twin-0"]

    @pytest.mark.parametrize("name", ["ai-1", "s0"])
    def test_undecided_without_certificate(self, name, monkeypatch):
        # Q is read off the certificate's inverse; without it there is
        # no Q to read
        monkeypatch.setattr(spectral, "_mixed_bound", lambda d: None)
        pkg = twin_package(normalize(_Q_ORACLE_SYSTEMS[name]()))
        for solve in (q_least_squares, solve_Q):
            with pytest.raises(UndecidedError,
                               match="ill-conditioned cluster"):
                solve(pkg)


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
        assert max(diag_eigvec_check(report.package)) < 1e-11
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

    def test_no_dense_solve_of_D(self, monkeypatch):
        # no eigensolve at all: D_11 and D_44 read the transfer spectrum
        # normalize certified, and one inverse of the whitened I − D_22,
        # taken by the twin package, certifies the cluster of D_22 and of
        # its conjugate D_33
        nsys = normalize(generate.random_system(51, k=2, max_dim=2))
        calls = {name: _recorded(monkeypatch, name)
                 for name in ("eigvals", "eig", "inv", "svd")}
        built = _recorded(monkeypatch, "_dense_block", spectral)
        report = classify(nsys)
        d = dense_D(report.package)
        assert not [m for seen in calls.values() for m, _ in seen
                    if m.shape == (d.side, d.side)]
        assert not calls["eigvals"] and not calls["eig"]
        assert [m.shape for m, _ in calls["inv"]] == [d.block(2, 2).shape]
        assert report.rho_D == float(np.max(np.abs(nsys.transfer_spectrum)))
        # with inequivalent twins the certificate's inverse serves every
        # solve, so the whitened D_22 is assembled and inverted once
        assert [pkg for pkg, _ in built] == [report.package]

    @pytest.mark.parametrize("name", ["s0", "self-twin-0"])
    def test_d22_assembled_once_for_two_inverses(self, name, monkeypatch):
        # equivalent twins invert the whitened D_22 twice, undeflated for
        # the certificate and deflated for the cluster, from one assembly
        nsys = normalize(_Q_ORACLE_SYSTEMS[name]())
        built = _recorded(monkeypatch, "_dense_block", spectral)
        inverses = _recorded(monkeypatch, "inv")
        report = classify(nsys)
        assert report.twins_equivalent
        [(pkg, block)] = built
        assert pkg is report.package
        assert [m.shape for m, _ in inverses].count(block.shape) == 2

    def test_spectral_calls_no_eig_or_eigvals(self):
        # the scan flags both calls and imports; spectral.py has none
        probe = ("import numpy as np\nfrom numpy.linalg import eigvals\n"
                 "np.linalg.eig(a)\nnumpy.linalg.eigvals(a)\n"
                 "np.linalg.eigh(a)\n")
        assert _linalg_calls(probe, {"eig", "eigvals"}) == [2, 3, 4]
        source = Path(spectral.__file__).read_text(encoding="utf-8")
        assert _linalg_calls(source, {"eig", "eigvals"}) == []

    def test_ambiguous_rank_reports_margin(self, monkeypatch):
        # δ = 0.01 sits within a factor 10 of the second singular value
        # of N (0.0212) on this system, and 10δ below the bound 0.1201
        # of the D_22 certificate
        nsys = normalize(_gate_systems()[0])
        monkeypatch.setattr(spectral, "DELTA", 0.01)
        report = classify(nsys)
        assert report.class_label == "undecided"
        [diag] = [m for m in report.diagnostics if "ambiguous" in m]
        assert "singular values of N: %s" % (report.sv_profile,) in diag
        assert "threshold 1.0e-02" in diag
        assert 0.001 < report.sv_profile[1] < 0.1


class TestBlockSpectra:
    """``D`` is block upper triangular; its diagonal blocks are the
    transfer operators of the system and of its twin and a mixed pair
    conjugate to each other."""

    @pytest.mark.parametrize("make", [
        generate.s0_system,
        functools.partial(generate.ai_instance, 1),
        functools.partial(generate.random_system, 51, k=2, max_dim=2),
    ])
    def test_diagonal_block_spectra(self, make):
        pkg = twin_package(normalize(make()))
        d = dense_D(pkg)
        eigvals = np.linalg.eigvals
        assert _spectrum_gap(eigvals(d.block(4, 4)), eigvals(
            transfer_matrix(pkg.original.system))) < 1e-9
        assert _spectrum_gap(eigvals(d.block(1, 1)), eigvals(
            transfer_matrix(pkg.twin.system))) < 1e-9
        assert _spectrum_gap(eigvals(d.block(3, 3)),
                             np.conj(eigvals(d.block(2, 2)))) < 1e-9
        self._assert_block_eigenvalues(build_D(pkg))

    @pytest.mark.parametrize("index", range(21))
    def test_block_eigenvalues_on_pool(self, index):
        self._assert_block_eigenvalues(
            build_D(twin_package(normalize(_metamorphic_pool()[index]))))

    @staticmethod
    def _assert_block_eigenvalues(d):
        # the transfer spectrum normalize kept is that of D_11, and its
        # conjugate that of D_44, against a dense eigensolve of each
        # block; their clusters count 1 with the Perron gap as bound
        oracle = dense_D(d.package)
        spectrum = d.package.original.transfer_spectrum
        for i, vals in ((1, spectrum), (4, spectrum.conj())):
            dense = np.linalg.eigvals(oracle.block(i, i))
            assert _spectrum_gap(vals, dense) < 1e-9
            cluster = d.clusters[i - 1]
            assert cluster.count == 1 == np.sum(np.abs(dense - 1) < DELTA)
            assert abs(np.sort(np.abs(dense - 1))[1] - cluster.bound) < 1e-9


class TestSelfTwinGate:
    """Self-twin dim-3 systems are BII with d = 2 in every gauge: the
    rank decision on raw singular values of ``D − I`` left three of
    these undecided."""

    @pytest.mark.parametrize("index", range(17))
    def test_decided_bii(self, index):
        report = _report(index)
        assert report.class_label == "BII"
        assert report.mult_one == 4
        assert report.dim_one == 2
        assert not report.diagnostics
        # the kept and dropped singular values of N are decades apart
        kept, dropped = report.sv_profile[1], report.sv_profile[2]
        assert kept > 10 * DELTA and dropped < DELTA / 1e6


class TestGatePerronSolve:
    """The right and left Perron vectors of ``T`` give the forms of a gate
    system and of its twin; power iteration spun to its cap on the twin
    of gauge copy 11, whose residual floor sat above its target."""

    @pytest.mark.parametrize("index", range(17))
    def test_twin_forms_match_independent_normalization(self, index):
        nsys = normalize(_gate_systems()[index])
        tw = twin(nsys)
        alone = normalize(twin_system(nsys.system))
        assert frob_tuple(tuple(x - y for x, y in zip(tw.B, alone.B))) < 1e-12
        assert abs(tw.rho_certificate
                   - spectral_radius_T(twin_system(nsys.system))) < 1e-12

    @pytest.mark.parametrize("index", range(17))
    def test_residuals_and_one_transfer_apply(self, index, monkeypatch):
        calls = []

        def counting(sys_, t, _apply=systems.transfer_apply):
            calls.append(sys_)
            return _apply(sys_, t)

        monkeypatch.setattr(systems, "transfer_apply", counting)
        nsys = normalize(_gate_systems()[index])
        assert len(calls) <= 1
        assert nsys.fix_residual <= 1e-12
        assert twin(nsys).fix_residual <= 1e-12


def _conditioned_gauge(rng, dims, condition):
    """Gauge ``g_c = U·diag(logspace(0, −log10 condition, n))·V`` with
    Haar unitary ``U`` and ``V``."""
    def haar(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    return [haar(n) @ np.diag(np.logspace(0, -np.log10(condition), n))
            @ haar(n) for n in dims]


class TestGaugeConditioning:
    """Gauge copies of condition 1e3 normalize without a raise and keep
    their label or read ``undecided``.  With the forms taken from an
    eigenvector of the complex transfer matrix, the fixed-point residual
    of 16 of the 54 self-twin copies and 4 of the 18 ``wide-3`` copies
    exceeded ``TOL_FIX``; the undecided copies are a frame question
    (ROADMAP item 1)."""

    BASES = {
        "self-twin": (lambda: generate.self_twin_system(0, k=2, dim=3), 18,
                      ("BII", 2)),
        "wide-3": (lambda: generate.random_system(3, k=2, max_dim=8), 6,
                   ("AII", 1)),
    }

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_normalizes_and_keeps_label(self, name):
        base, copies, decision = self.BASES[name]
        sys_ = base()
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for _ in range(copies):
                nsys = normalize(_gauged(
                    sys_, _conditioned_gauge(rng, sys_.dims, 1e3)))
                report = classify(nsys)
                assert (report.class_label == "undecided"
                        or (report.class_label, report.dim_one)
                        == decision), report.diagnostics


def _frame_oracle(nsys):
    """``W`` on row-2 vectors as one matrix, for the frame where ``B = I``:
    block diagonal with ``kron(B_c^{1/2}, (B_{c⁻¹}^{-1/2})ᵀ)``."""
    def power(b, p):
        vals, vecs = np.linalg.eigh(b)
        return (vecs * vals ** p) @ vecs.conj().T

    blocks = [np.kron(power(nsys.B[c], 0.5), power(nsys.B[c ^ 1], -0.5).T)
              for c in range(nsys.alphabet.size)]
    w = np.zeros((sum(map(len, blocks)),) * 2, dtype=complex)
    off = 0
    for b in blocks:
        w[off:off + len(b), off:off + len(b)] = b
        off += len(b)
    return w


@functools.lru_cache(maxsize=None)
def _mixed_case(name):
    """``D`` of a named system, its dense ``D_22`` and that block's
    eigenvalues, and ``σ_min(A_w)`` for the certificate's matrix built
    from the dense oracle: ``A = I − D_22`` plus ``r l`` for the
    closed-form pair of equivalent twins, in the frame where ``B = I``."""
    d = _built_D(name)
    pkg = d.package
    # a copy, so the cache does not keep the whole dense D alive
    block = dense_D(pkg).block(2, 2).copy()
    a = np.eye(len(block)) - block
    if pkg.K is not None:
        r, l = (np.concatenate([m.ravel() for m in t])
                for t in (_fixed_forms(pkg, 2)[0],
                          tuple(m.T for m in _fixed_forms(pkg, 2)[1])))
        a += np.outer(r, l / (l @ r))
    w = _frame_oracle(pkg.original)
    a_w = w @ a @ np.linalg.inv(w)
    return (d, block, np.linalg.eigvals(block),
            np.linalg.svd(a_w, compute_uv=False)[-1])


class TestMixedBound:
    """One inverse of ``I − D_22`` (deflated), taken in the frame where
    ``B = I``, certifies the eigenvalue-1 cluster of ``D_22`` and of its
    conjugate ``D_33`` in place of an eigensolve."""

    @pytest.mark.parametrize("name", sorted(_MIXED_SYSTEMS))
    def test_bound_is_sound(self, name):
        # bound ≤ σ_min(A_w) ≤ the distance to 1 of every eigenvalue of
        # D_22 outside the cluster, and of the deflated one, moved to 0
        d, _, vals, sigma_min = _mixed_case(name)
        mixed = d.clusters[1]
        assert mixed is not None and d.clusters[2] is mixed
        dist = np.abs(vals - 1.0)
        inside = dist < DELTA
        assert mixed.count == int(np.sum(inside)) == int(
            d.package.equivalent)
        gap = min(dist[~inside].min(), 1.0 if mixed.count else np.inf)
        assert GAP_FACTOR * DELTA <= mixed.bound <= sigma_min * (1 + 1e-12)
        assert sigma_min <= gap * (1 + 1e-12)

    @pytest.mark.parametrize("name", sorted(_MIXED_SYSTEMS))
    def test_rho_D_is_the_transfer_radius(self, name):
        # ρ(D_22) ≤ √(ρ(D_11) ρ(D_44)) = 1, so rho_D loses nothing by
        # reading the transfer spectra alone
        d, _, vals, _ = _mixed_case(name)
        assert np.max(np.abs(vals)) <= 1 + 1e-12
        assert abs(np.max(np.abs(d.package.original.transfer_spectrum))
                   - 1) <= 1e-12

    def test_bound_is_gauge_invariant_on_gate_copies(self):
        # the 7 non-unitary gauge copies of gate system 0
        bounds = [build_D(twin_package(normalize(s))).clusters[1].bound
                  for s in _gate_systems()[10:]]
        base = build_D(twin_package(normalize(_gate_systems()[0]))
                       ).clusters[1]
        assert len(bounds) == 7
        for bound in bounds:
            assert abs(bound - base.bound) <= 1e-9 * base.bound

    @pytest.mark.parametrize("name", sorted(TestGaugeConditioning.BASES))
    def test_bound_on_conditioned_copies(self, name, monkeypatch):
        # at gauge condition 1e3 the forms B and K, computed in the
        # conditioned basis, carry about 1e-6 relative error into the
        # frame (worst 2.5e-6 measured), and so does the bound; every
        # copy is certified
        base, copies, _ = TestGaugeConditioning.BASES[name]
        sys_ = base()
        want = build_D(twin_package(normalize(sys_))).clusters[1].bound
        svds = _recorded(monkeypatch, "svd")
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for _ in range(copies):
                svds.clear()
                pkg = twin_package(normalize(_gauged(
                    sys_, _conditioned_gauge(rng, sys_.dims, 1e3))))
                # the certificate alone decides inequivalent twins; an
                # SVD of M runs only for the K of equivalent ones
                assert (pkg.mixed is None) == pkg.equivalent
                assert bool(svds) == pkg.equivalent
                d = build_D(pkg)
                assert eigen_one(d).mult_one == 2 + 2 * pkg.equivalent
                assert abs(d.clusters[1].bound - want) <= 1e-5 * want

    @pytest.mark.parametrize("name", sorted(_MIXED_SYSTEMS))
    def test_row3_group_solve_is_row2_adjoint(self, name):
        # the row-3 group solve reads the row-2 inverse through the
        # adjoint; against an LU solve of the dense D_33
        d = _built_D(name)
        a = np.eye(d.masks[3].sum()) - dense_D(d.package).block(3, 3)
        rng = np.random.default_rng(0)
        y = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        if d.clusters[2].count:
            r, l, _ = d.forms[3]
            want = np.linalg.solve(a + np.outer(r, l), y) - r * (l @ y)
        else:
            want = np.linalg.solve(a, y)
        got = spectral._group_solve(d, 3, y)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("name", ["pool-0", "pool-11", "pool-17",
                                      "pool-19", "aii-1", "wide-3", "s0"])
    def test_forced_fallback_keeps_decision(self, name, monkeypatch):
        # without the certificate there is no eigensolve to fall back on:
        # the system reads undecided (test_bound_is_sound holds the
        # certificate against eigvals of the dense D_22)
        nsys = _built_D(name).package.original
        assert classify(nsys).class_label != "undecided"
        monkeypatch.setattr(spectral, "_mixed_bound", lambda d: None)
        calls = [_recorded(monkeypatch, n) for n in ("eig", "eigvals")]
        report = classify(nsys)
        assert report.class_label == "undecided"
        assert report.diagnostics == ["ill-conditioned cluster"]
        assert calls == [[], []]


_METAMORPHIC =settings(derandomize=True, database=None, max_examples=5,
                        deadline=None)
_POOL_INDEX = st.integers(0, 20)


class TestMetamorphic:
    """Label, multiplicity and dimension are properties of the system,
    not of its coordinates or letter names."""

    def test_pool_size(self):
        assert len(_metamorphic_pool()) == 21

    @_METAMORPHIC
    @given(index=_POOL_INDEX, seed=st.integers(0, 2**32 - 1))
    def test_non_unitary_gauge(self, index, seed):
        sys_ = _metamorphic_pool()[index]
        draw = _gauge_draw(np.random.default_rng(seed), sys_.dims)
        _assert_same_decision(
            index, classify(normalize(_gauged(sys_, draw))))

    @_METAMORPHIC
    @given(index=_POOL_INDEX)
    def test_generator_permutation(self, index):
        sys_ = _metamorphic_pool()[index]
        _assert_same_decision(
            index, classify(normalize(_relabelled(sys_, (1, 0), (0, 0)))))

    @_METAMORPHIC
    @given(index=_POOL_INDEX, inverted=st.sampled_from(
        [(1, 0), (0, 1), (1, 1)]))
    def test_inverse_relabelling(self, index, inverted):
        sys_ = _metamorphic_pool()[index]
        _assert_same_decision(
            index, classify(normalize(_relabelled(sys_, (0, 1), inverted))))

    @_METAMORPHIC
    @given(index=_POOL_INDEX, seed=st.integers(0, 2**32 - 1),
           inverted=st.sampled_from([(1, 0), (0, 1), (1, 1)]))
    def test_perron_gap(self, index, seed, inverted):
        # the margin of rows 1 and 4 on the gauge and relabelled copies
        sys_ = _metamorphic_pool()[index]
        want = normalize(sys_).perron_gap
        draw = _gauge_draw(np.random.default_rng(seed), sys_.dims)
        for copy in (_gauged(sys_, draw), _relabelled(sys_, (1, 0), (0, 0)),
                     _relabelled(sys_, (0, 1), inverted)):
            assert abs(normalize(copy).perron_gap - want) <= 1e-12 * want

    @_METAMORPHIC
    @given(index=_POOL_INDEX)
    def test_twin_of_twin(self, index):
        nsys = normalize(_metamorphic_pool()[index])
        _assert_same_decision(index, classify(twin(twin(nsys))))


class TestClusters:
    """Rows 1 and 4 of ``D`` read the Perron gap of the transfer spectrum,
    a property of the system that its twin shares; ``eigen_one`` reads
    the least bound of the four rows."""

    @pytest.mark.parametrize("index", range(21))
    def test_gap_is_the_least_bound(self, index):
        d = _built_D("pool-%d" % index)
        pkg = d.package
        assert pkg.original.perron_gap == pkg.twin.perron_gap
        counts = [c.count for c in d.clusters]
        assert counts == [1] + [pkg.equivalent] * 2 + [1]
        assert d.clusters[0].bound == d.clusters[3].bound == (
            pkg.original.perron_gap)
        eig = eigen_one(d)
        assert eig.gap == min(c.bound for c in d.clusters)
        assert eig.mult_one == 2 + 2 * pkg.equivalent


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
