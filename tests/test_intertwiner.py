"""Two-block edge matrices, closed-form inverse, isometry and
intertwining verification, the one-parameter family, spectral splitting,
and finite-rank compressions."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from freerep import functions, generate, intertwiner
from freerep.cli import classification_report
from freerep.freegroup import multiply
from freerep.functions import (
    MultiplicativeFunction,
    MuSummand,
    _spread,
    act,
    act_indicator,
    canonicalize,
    deepen,
    norm,
)
from freerep.intertwiner import (
    _apply_edge_operator,
    _assemble,
    _commutation_residual,
    _form_diag,
    _pair_operator_matrix,
    _pair_parts,
    build_J,
    apply_J,
    apply_J_inverse,
    closed_inverse_residual,
    fin_residual,
    finite_rank_check,
    general_intertwiner_family,
    split,
    translation_matrix,
    verify_inverse_relations,
    verify_isometry_and_intertwining,
    w_layout,
)
from freerep.spectral import classify, q_residual
from freerep.sysio import SystemDocument
from freerep.systems import MatrixSystem, normalize
from freerep.twin import e_lookup, twin_package


@pytest.fixture(scope="module")
def ai_J():
    rep = classify(normalize(generate.ai_instance(3)))
    assert rep.class_label == "AI"
    return build_J(rep)


@pytest.fixture(scope="module")
def bi_J():
    rep = classify(normalize(generate.bi_instance(7)))
    assert rep.class_label == "BI"
    return build_J(rep)


@pytest.fixture(scope="module")
def gauged_ai_J():
    # a positive diagonal gauge H[b|a] -> g_b H[b|a] / g_a moves the
    # form away from the identity
    base = generate.ai_instance(3)
    g = np.random.default_rng(2).uniform(0.5, 2.0, size=len(base.dims))
    blocks = {(b, a): g[b] * m / g[a] for (b, a), m in base.blocks.items()}
    nsys = normalize(MatrixSystem(base.alphabet, base.dims, blocks))
    assert max(abs(m[0, 0] - 1) for m in nsys.B) > 0.1
    rep = classify(nsys)
    assert rep.class_label == "AI"
    return build_J(rep)


@pytest.fixture(scope="module")
def e0_J():
    rep = classify(normalize(generate.bi_e0_system(0)))
    assert rep.class_label == "BI"
    return build_J(rep)


@pytest.fixture(scope="module")
def matrix_letters():
    nsys = normalize(generate.random_system(0, k=2, max_dim=3))
    assert max(nsys.dims) > 1
    return nsys


@pytest.fixture(scope="module")
def matrix_J(matrix_letters):
    # pair blocks from a random antisymmetric Q on matrix letters: not an
    # intertwiner, so its word identities and profiles are of order one
    nsys = matrix_letters
    rng = np.random.default_rng(5)
    Q = [None] * nsys.alphabet.size
    for a in nsys.alphabet.generators:
        shape = (nsys.dims[a ^ 1], nsys.dims[a])
        Q[a] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        Q[a ^ 1] = -Q[a].conj().T
    return _assemble(twin_package(nsys), tuple(Q), nsys.B)


def random_function(nsys, seed=11, depth=2):
    rng = np.random.default_rng(seed)
    summands = []
    for x in nsys.alphabet.sphere(depth):
        for b in nsys.alphabet.letters:
            if x and x[-1] == b ^ 1:
                continue
            v = rng.normal(size=nsys.dims[b]) + 1j * rng.normal(size=nsys.dims[b])
            summands.append(MuSummand(x=x, letter=b, v=v))
    return canonicalize(nsys, summands, depth)


def _embed(layout, f):
    """Coefficient vector of ``f`` in the chart; deepens if needed."""
    if f.depth != layout.n:
        f = deepen(f, layout.n)
    vec = np.zeros(layout.dim, dtype=complex)
    for key, v in f.coeffs.items():
        o = layout.offsets[key]
        vec[o : o + len(v)] = v
    return vec


def _add_summand(nsys, layout, col, s):
    """Add the chart coefficients of the summand ``s`` into ``col``.

    The forward edges of W_n are the words of the sphere of radius
    ``n + 1``, so the values of ``s`` there are its coefficients.  Added
    to a zero column they give, bit for bit, the coefficients
    :func:`canonicalize` gives (it also adds each value to zero).
    """
    for y, val in _spread(nsys, s, layout.n + 1).items():
        o = layout.offsets[(y[:-1], y[-1])]
        col[o : o + len(val)] += val


def _translation_oracle(nsys, y, n):
    """Reference for the chart of ``π(y)``: each basis column's summand on
    ``(yx, yxb)`` walked over its own half-tree into a zero column."""
    lin = w_layout(nsys, n)
    lout = w_layout(nsys, n + 1)
    M = np.zeros((lout.dim, lin.dim), dtype=complex)
    for x, b in lin.keys:
        col0 = lin.offsets[(x, b)]
        yx = multiply(y, x)
        for i in range(nsys.dims[b]):
            e = np.zeros(nsys.dims[b], dtype=complex)
            e[i] = 1.0
            s = MuSummand(x=yx, letter=b, v=e)
            assert s.native_depth <= n + 1
            _add_summand(nsys, lout, M[:, col0 + i], s)
    return M


def _fin_residual_oracle(J, word_max):
    """Reference for the word identities: the recursion over the tree,
    one product per node, with each word's gap normed on its own."""
    nsys = J.pkg.original
    tw = J.pkg.twin
    worst = 0.0

    def extend(first, last, fullh, fullhat, acc, length):
        nonlocal worst
        for c in nsys.alphabet.letters:
            if c == last ^ 1:
                continue
            nh = nsys.h(c, last) @ fullh
            nhat = tw.h(c, last) @ fullhat
            nacc = (nsys.h(c, last) @ acc
                    + e_lookup(J.Ehat, tw.dims, c, last) @ fullhat)
            gap = nh @ J.Qhat[first] - J.Qhat[c] @ nhat + nacc
            worst = max(worst, float(np.linalg.norm(gap)))
            if length + 1 < word_max:
                extend(first, c, nh, nhat, nacc, length + 1)

    for a in nsys.alphabet.letters:
        extend(a, a, np.eye(nsys.dims[a], dtype=complex),
               np.eye(tw.dims[a], dtype=complex),
               np.zeros((nsys.dims[a], tw.dims[a]), dtype=complex), 1)
    return worst


def _rank_oracle(J, a, b, nmax):
    """Reference for one finite-rank profile: a fresh walk for the pair,
    the blocks ``H[b|a⁻¹]·chain·B_d`` of each depth and their norms
    ``Σ ⟨blk, B̂_b·blk·B_d⁻¹⟩``."""
    nsys = J.pkg.original
    tw = J.pkg.twin
    letters = nsys.alphabet.letters
    pre = tw.h(b, a ^ 1)
    chains = {a: np.eye(tw.dims[a ^ 1], dtype=complex)[None]}
    ranks = []
    hs = []
    for _ in range(nmax):
        grown = {}
        for last, stack in chains.items():
            for c in letters:
                if c != last ^ 1:
                    grown.setdefault(c, []).append(
                        stack @ tw.h(last ^ 1, c ^ 1))
        chains = {c: np.concatenate(parts) for c, parts in grown.items()}
        cols = []
        hs2 = 0.0
        for d, stack in chains.items():
            blk = pre @ stack @ nsys.B[d]
            hs2 += float(np.vdot(
                blk, tw.B[b] @ blk @ np.linalg.inv(nsys.B[d])).real)
            cols.append(blk.transpose(1, 0, 2).reshape(blk.shape[1], -1))
        ranks.append(_rank_of(np.hstack(cols)))
        hs.append(float(np.sqrt(max(hs2, 0.0))))
    return tuple(ranks), tuple(hs)


def _pair_operator_oracle(nsys_in, nsys_out, n, same, flip):
    """Reference for the chart of a pair operator: one column at a time,
    the same part in its slot and the reversed summand walked over its
    own half-tree and added into the zero column."""
    lin = w_layout(nsys_in, n)
    lout = w_layout(nsys_out, n)
    M = np.zeros((lout.dim, lin.dim), dtype=complex)
    for x, b in lin.keys:
        col0 = lin.offsets[(x, b)]
        oout = lout.offsets[(x, b)]
        for i in range(nsys_in.dims[b]):
            e = np.zeros(nsys_in.dims[b], dtype=complex)
            e[i] = 1.0
            col = M[:, col0 + i]
            sv = same[b] @ e
            col[oout : oout + len(sv)] = sv
            fv = flip[b] @ e
            if np.linalg.norm(fv):
                flipped = MuSummand(x=x + (b,), letter=b ^ 1, v=fv)
                _add_summand(nsys_out, lout, col, flipped)
    return M


def _rank_of(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.count_nonzero(sv > 1e-9 * sv[0]))


def _rank_engine(J, a, b, n):
    """Reference for the finite-rank chain: respreads the image of every
    W_n basis column under J through the canonical machinery and
    compresses it to the cone of ``b``."""
    nsys = J.pkg.original
    tw = J.pkg.twin
    lout = w_layout(tw, n)
    ghat = _form_diag(tw, n)
    cols = []
    hs2 = 0.0
    for x in nsys.alphabet.sphere(n):
        if x[0] != a:
            continue
        for d in nsys.alphabet.letters:
            if d == x[-1] ^ 1:
                continue
            block = np.zeros((lout.dim, nsys.dims[d]), dtype=complex)
            for i in range(nsys.dims[d]):
                e = np.zeros(nsys.dims[d], dtype=complex)
                e[i] = 1.0
                f = MultiplicativeFunction(system=nsys, depth=n,
                                           coeffs={(x, d): e})
                block[:, i] = _embed(lout, act_indicator((b,), apply_J(J, f)))
            hs2 += float(
                np.trace(
                    block.conj().T @ ghat @ block @ np.linalg.inv(nsys.B[d])
                ).real
            )
            cols.append(block)
    return _rank_of(np.hstack(cols)), float(np.sqrt(max(hs2, 0.0)))


class TestBuild:
    @pytest.mark.parametrize("fix", ["ai_J", "bi_J"])
    def test_closed_inverse(self, fix, request):
        J = request.getfixturevalue(fix)
        assert closed_inverse_residual(J) < 1e-12

    @pytest.mark.parametrize("fix", ["ai_J", "bi_J"])
    def test_blocks_times_inverse(self, fix, request):
        J = request.getfixturevalue(fix)
        for a in J.pkg.original.alphabet.generators:
            prod = J.blocks[a] @ J.inv_blocks[a]
            assert np.linalg.norm(prod - np.eye(prod.shape[0])) < 1e-12

    def test_scalar_determinant(self, bi_J):
        # one-dimensional blocks: det = Q_a Q_{a^-1} - B_a B_{a^-1}
        nsys = bi_J.pkg.original
        assert set(nsys.dims) == {1}
        for a in nsys.alphabet.generators:
            det = np.linalg.det(bi_J.blocks[a])
            direct = (bi_J.Q[a][0, 0] * bi_J.Q[a ^ 1][0, 0]
                      - nsys.B[a][0, 0] * nsys.B[a ^ 1][0, 0])
            assert det == pytest.approx(direct, rel=1e-12)

    def test_bhat_residual(self, ai_J, bi_J):
        assert ai_J.bhat_residual < 1e-12
        assert bi_J.bhat_residual < 1e-12

    def test_unitary_scale_squares_to_bhat_scale(self, ai_J, bi_J):
        for J in (ai_J, bi_J):
            assert J.unitary_scale ** 2 == pytest.approx(J.bhat_scale,
                                                         rel=1e-8)

    @pytest.mark.parametrize("name, seed", [
        (name, seed) for name in ("ai", "bi") for seed in range(1, 6)])
    def test_unitary_scale_is_the_trace_ratio(self, name, seed):
        # the oracle fits t on W_1: t² tr(J*ĜJ) = tr G for the chart Grams
        # G and Ĝ of the system and of its twin
        make = {"ai": generate.ai_instance, "bi": generate.bi_instance}
        J = build_J(classify(normalize(make[name](seed))))
        nsys, tw = J.pkg.original, J.pkg.twin
        members = [(J, 1.0)]
        for lam in (0.3, 1.0, 1.7, 2.5):
            for c in (0.0, 0.4, 0.7, -1.2) if name == "bi" else (0.0,):
                members.append((general_intertwiner_family(J, lam, c)[0],
                                lam))
        for member, lam in members:
            J1 = _pair_operator_matrix(nsys, tw, 1,
                                       tuple(-m for m in member.Q),
                                       tuple(lam * m for m in nsys.B))
            pulled = J1.conj().T @ _form_diag(tw, 1) @ J1
            fit = np.sqrt(np.trace(_form_diag(nsys, 1)).real
                          / np.trace(pulled).real)
            assert member.unitary_scale == pytest.approx(fit, rel=1e-13)
            assert member.unitary_scale ** 2 == pytest.approx(
                member.bhat_scale / lam, rel=1e-13)

    def test_zero_Q_gives_off_diagonal_blocks(self, e0_J):
        nsys = e0_J.pkg.original
        for a in nsys.alphabet.generators:
            na = nsys.dims[a]
            blk = e0_J.blocks[a]
            assert np.all(blk[:na, :na] == 0)
            assert np.all(blk[na:, na:] == 0)

    def test_zero_Q_bhat_is_inverse_form(self, e0_J):
        nsys = e0_J.pkg.original
        for c in nsys.alphabet.letters:
            gap = e0_J.Bhat[c] - np.linalg.inv(nsys.B[c ^ 1])
            assert np.linalg.norm(gap) < 1e-13

    def test_refuses_class_without_Q(self, s0_norm):
        rep = classify(s0_norm)
        assert rep.class_label == "BII"
        with pytest.raises(ValueError, match="Q missing.*BII"):
            build_J(rep)

    def test_apply_round_trip(self, ai_J):
        f = random_function(ai_J.pkg.original)
        g = apply_J_inverse(ai_J, apply_J(ai_J, f))
        assert g.depth == f.depth
        for key in set(f.coeffs) | set(g.coeffs):
            dv = np.asarray(f.coeffs.get(key, 0)) - np.asarray(
                g.coeffs.get(key, 0))
            assert np.max(np.abs(dv)) < 1e-12

    def test_apply_rejects_foreign_function(self, ai_J, s0_norm):
        f = canonicalize(s0_norm, [MuSummand(x=(), letter=0,
                                             v=np.ones(1))], 0)
        with pytest.raises(ValueError, match="system mismatch"):
            apply_J(ai_J, f)


class TestInverseRelations:
    @pytest.mark.parametrize("fix", ["ai_J", "bi_J"])
    def test_residuals_tiny(self, fix, request):
        J = request.getfixturevalue(fix)
        rel = verify_inverse_relations(J)
        assert max(rel.identity) < 1e-12
        assert max(rel.mixed_left) < 1e-12
        assert max(rel.mixed_right) < 1e-12

    def test_zero_Q_exact(self, e0_J):
        assert verify_inverse_relations(e0_J).max == 0.0

    def test_perturbation_scales_linearly(self, ai_J):
        rng = np.random.default_rng(4)
        direction = tuple(
            rng.normal(size=q.shape) + 1j * rng.normal(size=q.shape)
            for q in ai_J.Q
        )
        res = {}
        for eps in (1e-3, 1e-4):
            Qp = tuple(q + eps * d for q, d in zip(ai_J.Q, direction))
            res[eps] = verify_inverse_relations(
                dataclasses.replace(ai_J, Q=Qp)).max
        ratio = res[1e-3] / res[1e-4]
        assert 3.0 < ratio < 30.0


class TestIsometryIntertwining:
    @pytest.mark.parametrize("fix", ["ai_J", "bi_J"])
    def test_full_verification(self, fix, request):
        J = request.getfixturevalue(fix)
        rep = verify_isometry_and_intertwining(J, depth=3, word_max=5)
        assert rep.w_dims == (12, 36, 108)
        assert max(rep.gram_residuals) < 1e-8
        assert rep.intertwine_residual < 1e-8
        assert rep.fin_residual < 1e-10

    def test_unit_vector_maps_to_unit_vector(self, bi_J):
        nsys = bi_J.pkg.original
        f = canonicalize(nsys, [MuSummand(x=(0,), letter=2,
                                          v=np.ones(1))], 1)
        f_norm = norm(f)
        image = apply_J(bi_J, f)
        lay = w_layout(bi_J.pkg.twin, 1)
        vec = _embed(lay, image)
        # rescaled twin norm: t^2 (Jf)* Ghat (Jf) must equal |f|^2
        gram = _form_diag(bi_J.pkg.twin, 1)
        val = bi_J.unitary_scale ** 2 * float(
            np.real(vec.conj() @ (gram @ vec)))
        assert val == pytest.approx(f_norm ** 2, rel=1e-10)

    def test_base_relation_per_pair(self, ai_J):
        # length-two words: H Qhat - Qhat Hhat + Ehat = 0
        nsys = ai_J.pkg.original
        tw = ai_J.pkg.twin
        for a2 in nsys.alphabet.letters:
            for a1 in nsys.alphabet.letters:
                if a2 == a1 ^ 1:
                    continue
                gap = (nsys.h(a2, a1) @ ai_J.Qhat[a1]
                       - ai_J.Qhat[a2] @ tw.h(a2, a1)
                       + e_lookup(ai_J.Ehat, tw.dims, a2, a1))
                assert np.linalg.norm(gap) < 1e-12

    @pytest.mark.parametrize("fix", ["ai_J", "bi_J", "e0_J"])
    def test_fin_residual(self, fix, request):
        J = request.getfixturevalue(fix)
        assert fin_residual(J, word_max=5) < 1e-10

    @pytest.mark.parametrize("word_max", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "fix", ["ai_J", "bi_J", "e0_J", "gauged_ai_J", "matrix_J"])
    def test_fin_residual_matches_recursion(self, fix, word_max, request):
        # the stacks multiply chain·Q̂ in another order than the recursion;
        # Q̂ is perturbed so that the identities fail by order one
        J = request.getfixturevalue(fix)
        rng = np.random.default_rng(word_max)
        Qhat = tuple(q + 0.1 * (rng.normal(size=q.shape)
                                + 1j * rng.normal(size=q.shape))
                     for q in J.Qhat)
        for K in (J, dataclasses.replace(J, Qhat=Qhat)):
            ref = _fin_residual_oracle(K, word_max)
            assert abs(fin_residual(K, word_max) - ref) <= 1e-13 * max(ref, 1.0)
        assert ref > 1e-2

    @pytest.mark.parametrize("fix", ["gauged_ai_J", "bi_J"])
    def test_commutation_residual_matches_einsum_form(self, fix, request):
        # random chart matrices, so the defect is of order one, measured
        # against the twin's form on W_3 (not the identity when B != I)
        J = request.getfixturevalue(fix)
        nsys, tw = J.pkg.original, J.pkg.twin
        rng = np.random.default_rng(4)
        ops = {}
        for n in (2, 3):
            shape = (w_layout(tw, n).dim, w_layout(nsys, n).dim)
            ops[n] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        gram = _form_diag(tw, 3)
        want = 0.0
        for y in nsys.alphabet.generators:
            defect = (ops[3] @ translation_matrix(nsys, (y,), 2)
                      - translation_matrix(tw, (y,), 2) @ ops[2])
            sq = np.einsum("ij,ik,kj->j", defect.conj(), gram, defect)
            want = max(want, float(np.sqrt(max(sq.real.max(), 0.0))))
        got = _commutation_residual(nsys, tw, 2, ops[2], ops[3])
        assert want > 1.0
        assert got == pytest.approx(want, rel=1e-13)

    def test_depth_one_measures_from_W0(self, ai_J):
        # commutation W_0 → W_1 needs the pair operator's chart on W_0;
        # the loop that built the charts from W_1 raised KeyError: 0
        rep = verify_isometry_and_intertwining(ai_J, depth=1)
        values = rep.gram_residuals + (rep.intertwine_residual,
                                       rep.fin_residual)
        assert rep.w_dims == (12,)
        assert len(rep.gram_residuals) == 1
        assert np.all(np.isfinite(values))
        assert max(values) < 1e-12


# The constant C of the bound stated in verify_isometry_and_intertwining,
# and the rounding of the depth-3 charts that it allows for.
BOUND_C = 2.0
CHART_ROUNDING = 1e-14


def _perturbed(J, eps, seed=0):
    """J assembled from ``Q + εP``, for an antisymmetric ``P`` of unit
    normal entries: the inverse relations still hold in closed form, and
    ``Q`` misses the Q equation by order ``ε``."""
    rng = np.random.default_rng(seed)
    P = [None] * len(J.Q)
    for a in J.pkg.original.alphabet.generators:
        shape = J.Q[a].shape
        P[a] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        P[a ^ 1] = -P[a].conj().T
    Q = tuple(q + eps * p for q, p in zip(J.Q, P))
    return _assemble(J.pkg, Q, J.pkg.original.B)


def _instance_J(name):
    kind, seed = name.rsplit("-", 1)
    build = {"ai": generate.ai_instance, "bi": generate.bi_instance,
             "bi_e0": generate.bi_e0_system}[kind]
    rep = classify(normalize(build(int(seed))))
    assert rep.class_label == ("AI" if kind == "ai" else "BI")
    return build_J(rep)


class TestDepthOneBound:
    """The depth-3 checks as an oracle for the certified depth-1 set."""

    @pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize(
        "name", ["ai-%d" % s for s in range(1, 6)]
        + ["bi-%d" % s for s in (1, 2, 3, 4, 5, 7)]
        + ["bi_e0-%d" % s for s in range(3)])
    def test_bound_on_perturbed_instances(self, name, eps):
        J = _perturbed(_instance_J(name), eps)
        self._check(J, lambda q: 0.1 * eps < q < 10 * eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-4])
    @pytest.mark.parametrize("fix", ["gauged_ai_J", "matrix_J"])
    def test_bound_on_fixtures(self, fix, eps, request):
        # matrix_J is no intertwiner: its residuals are of order one
        J = _perturbed(request.getfixturevalue(fix), eps)
        self._check(J, lambda q: q > 0)

    @staticmethod
    def _check(J, q_plausible):
        q = q_residual(J.pkg, J.Q)
        assert q_plausible(q)
        cert = verify_isometry_and_intertwining(J, depth=1, word_max=4)
        deep = verify_isometry_and_intertwining(J, depth=3, word_max=4)
        bound = BOUND_C * (q + cert.gram_residuals[0]) + CHART_ROUNDING
        assert deep.gram_residuals[0] == cert.gram_residuals[0]
        assert max(deep.gram_residuals) <= bound
        assert deep.intertwine_residual <= bound
        assert cert.intertwine_residual <= bound


class TestFamily:
    def test_identity_member(self, ai_J):
        fam, resid = general_intertwiner_family(ai_J, 1.0, 0.0)
        assert resid < 1e-8
        for a in ai_J.pkg.original.alphabet.generators:
            assert np.allclose(fam.blocks[a], ai_J.blocks[a], atol=1e-14)

    def test_scaled_member(self, ai_J):
        fam, resid = general_intertwiner_family(ai_J, 2.5, 0.0)
        assert resid < 1e-8
        assert closed_inverse_residual(fam) < 1e-12
        for a in ai_J.pkg.original.alphabet.generators:
            assert np.allclose(fam.blocks[a], 2.5 * ai_J.blocks[a],
                               atol=1e-13)

    def test_diagonal_term_needs_equivalence(self, ai_J):
        with pytest.raises(ValueError, match="Y_a must be"):
            general_intertwiner_family(ai_J, 1.0, 0.1)

    def test_lambda_must_be_positive(self, ai_J):
        with pytest.raises(ValueError, match="lambda must be positive"):
            general_intertwiner_family(ai_J, -1.0, 0.0)

    def test_equivalent_pair_admits_c_term(self, bi_J):
        fam, resid = general_intertwiner_family(bi_J, 1.0, 0.7)
        assert resid < 1e-8
        assert closed_inverse_residual(fam) < 1e-12
        assert fin_residual(fam, word_max=4) < 1e-10

    @pytest.mark.parametrize("fix, lam, c", [("ai_J", 2.5, 0.0),
                                             ("bi_J", 1.0, 0.7)])
    def test_commutation_bounds_depth_three(self, fix, lam, c, request):
        # the family measures W_0 → W_1; W_2 → W_3 is the oracle, within
        # the bound of verify_isometry_and_intertwining
        J = request.getfixturevalue(fix)
        fam, resid = general_intertwiner_family(J, lam, c)
        nsys, tw = J.pkg.original, J.pkg.twin
        same = tuple(-m for m in fam.Q)
        B = tuple(lam * m for m in nsys.B)
        deep = _commutation_residual(nsys, tw, 2, *(
            _pair_operator_matrix(nsys, tw, n, same, B) for n in (2, 3)))
        cert = verify_isometry_and_intertwining(J)
        bound = (BOUND_C * (q_residual(J.pkg, J.Q) + cert.gram_residuals[0])
                 + CHART_ROUNDING)
        assert resid <= bound
        assert deep <= bound


class TestSplit:
    def test_direct_split_clean(self, bi_J):
        sp = split(bi_J)
        assert sp.diagnostics == []
        assert abs(sp.c) < 1e-12
        assert sp.unimodularity < 1e-9
        assert sp.eig_spread < 1e-9
        assert sp.quad_residual < 1e-12
        assert sp.idempotency < 1e-12
        assert sp.orthogonality < 1e-12
        assert sp.completeness < 1e-12
        assert sp.involution_residual < 1e-12
        assert sp.form_hermiticity < 1e-12
        assert sp.commutation_residual < 1e-8

    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    def test_commutation_bounds_depth_three(self, bi_J, eps):
        # split checks P_+ on W_0 → W_1; W_2 → W_3 is the oracle, within
        # the bound of verify_isometry_and_intertwining, also with Q off
        # its solution
        J = _perturbed(bi_J, eps)
        sp = split(J)
        nsys = J.pkg.original
        same, flip = _pair_parts(nsys, sp.p_plus)
        deep = _commutation_residual(nsys, nsys, 2, *(
            _pair_operator_matrix(nsys, nsys, n, same, flip) for n in (2, 3)))
        cert = verify_isometry_and_intertwining(J)
        bound = (BOUND_C * (q_residual(J.pkg, J.Q) + cert.gram_residuals[0])
                 + CHART_ROUNDING)
        assert sp.commutation_residual <= bound
        assert deep <= bound

    def test_one_solve_per_generator(self, bi_J, monkeypatch):
        # the involution 𝒦⁻¹J̃ is read off M = 𝒦⁻¹tJ; the oracle solves
        # 𝒦⁻¹J̃ for J̃ = rescale·(tJ + (ic/2)𝒦) again
        fam, _ = general_intertwiner_family(bi_J, 1.0, 0.7)
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: calls.append(1) or solve(*args))
        for J in (bi_J, fam):
            calls.clear()
            sp = split(J)
            nsys = J.pkg.original
            assert len(calls) == len(nsys.alphabet.generators)
            rescale = 2.0 / np.sqrt(4.0 - sp.c ** 2)
            for a in nsys.alphabet.generators:
                K = J.pkg.K
                z = np.zeros((len(K[a]), len(K[a ^ 1])))
                kblk = np.block([[K[a], z], [z.T, K[a ^ 1]]])
                jtilde = rescale * (J.unitary_scale * J.blocks[a]
                                    + (1j * sp.c / 2.0) * kblk)
                calj = sp.p_plus[a] - sp.p_minus[a]
                assert np.abs(calj - solve(kblk, jtilde)).max() < 1e-14

    def test_direct_split_dims(self, bi_J):
        sp = split(bi_J)
        for a in bi_J.pkg.original.alphabet.generators:
            p, q, total = sp.subspace_dims[a]
            assert p + q == total
            assert total == 2 * bi_J.pkg.original.dims[a]

    def test_eigenvalues_match_quadratic(self, bi_J):
        sp = split(bi_J)
        root = np.sqrt(4.0 - sp.c ** 2)
        assert sp.lambda_plus == pytest.approx((-1j * sp.c + root) / 2,
                                               abs=1e-9)
        assert sp.lambda_minus == pytest.approx((-1j * sp.c - root) / 2,
                                                abs=1e-9)

    def test_family_member_has_real_nonzero_c(self, bi_J):
        fam, _ = general_intertwiner_family(bi_J, 1.0, 0.7)
        sp = split(fam)
        assert sp.diagnostics == []
        assert abs(sp.c) > 0.5
        assert abs(sp.c) < 2.0
        # the shifted involution must still square to the identity
        assert sp.idempotency < 1e-12
        assert sp.orthogonality < 1e-12
        assert sp.involution_residual < 1e-12
        assert sp.commutation_residual < 1e-8
        prod = sp.lambda_plus * sp.lambda_minus
        assert prod == pytest.approx(-1.0, abs=1e-9)

    def test_zero_Q_split(self, e0_J):
        sp = split(e0_J)
        assert sp.diagnostics == []
        assert abs(sp.c) < 1e-12
        assert sp.idempotency < 1e-12

    def test_one_cluster_keeps_placeholders(self, bi_J):
        # the family member has c ≠ 0 and spectrum (−ic ± √(4 − c²))/2;
        # iK turns it by −i, so every eigenvalue has real part −c/2
        fam, _ = general_intertwiner_family(bi_J, 1.0, 0.7)
        sp = split(fam, K=tuple(1j * k for k in bi_J.pkg.K))
        assert sp.diagnostics == ["eigenvalues of M do not form two clusters"]
        assert sp.unimodularity < 1e-9
        assert np.isnan(sp.c) and np.isnan(sp.idempotency)
        assert np.isnan(sp.commutation_residual)
        assert sp.p_plus == sp.p_minus == sp.subspace_dims == {}

    def test_refuses_inequivalent(self, ai_J):
        with pytest.raises(ValueError, match="splitting requires"):
            split(ai_J)


class TestFiniteRank:
    def test_letters_must_differ(self, ai_J):
        with pytest.raises(ValueError, match="letters must differ"):
            finite_rank_check(ai_J, 1, 1)

    @pytest.mark.parametrize("pair", [(0, 2), (2, 1)])
    def test_rank_bounded_by_target_dim(self, ai_J, pair):
        rep = finite_rank_check(ai_J, *pair, nmax=6)
        assert rep.cap == ai_J.pkg.twin.dims[pair[1]]
        assert all(r <= rep.cap for r in rep.ranks)

    def test_engine_and_chain_agree(self, ai_J, bi_J, gauged_ai_J):
        for J in (ai_J, bi_J, gauged_ai_J):
            letters = J.pkg.original.alphabet.letters
            for a in letters:
                for b in letters:
                    if a == b:
                        continue
                    chn = finite_rank_check(J, a, b, nmax=3)
                    for n, r, hc in zip((1, 2, 3), chn.ranks, chn.hs_norms):
                        r_eng, he = _rank_engine(J, a, b, n)
                        assert r_eng == r
                        assert he == pytest.approx(hc, rel=1e-8)

    @pytest.mark.parametrize(
        "fix", ["ai_J", "bi_J", "e0_J", "gauged_ai_J", "matrix_J"])
    def test_matches_per_pair_walk(self, fix, request):
        # one walk per start letter serves every target: the same ranks
        # as a walk of its own for each pair, the norms to the rounding
        J = request.getfixturevalue(fix)
        letters = J.pkg.original.alphabet.letters
        for a in letters:
            for b in letters:
                if a == b:
                    continue
                got = finite_rank_check(J, a, b, nmax=4)
                ranks, hs = _rank_oracle(J, a, b, 4)
                assert got.ranks == ranks
                assert got.cap == J.pkg.twin.dims[b]
                assert np.allclose(got.hs_norms, hs, rtol=1e-13, atol=0)

    def test_hs_norms_stable_in_depth(self, ai_J):
        rep = finite_rank_check(ai_J, 0, 2, nmax=6)
        assert min(rep.hs_norms) > 0.1
        assert max(rep.hs_norms) / min(rep.hs_norms) < 1.0 + 1e-10

    def test_bi_pair(self, bi_J):
        rep = finite_rank_check(bi_J, 0, 2, nmax=4)
        assert all(r <= rep.cap for r in rep.ranks)


class TestMatrixMachinery:
    def test_translation_matches_action(self, ai_J):
        nsys = ai_J.pkg.original
        f = random_function(nsys)
        lay2 = w_layout(nsys, 2)
        lay3 = w_layout(nsys, 3)
        for y in ((0,), (3,)):
            T = translation_matrix(nsys, y, 2)
            lhs = T @ _embed(lay2, f)
            rhs = _embed(lay3, deepen(act(y, f), 3))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_pair_operator_matches_apply(self, ai_J):
        nsys = ai_J.pkg.original
        tw = ai_J.pkg.twin
        f = random_function(nsys)
        same = tuple(-q for q in ai_J.Q)
        mat = _pair_operator_matrix(nsys, tw, 2, same, nsys.B)
        lhs = mat @ _embed(w_layout(nsys, 2), f)
        rhs = _embed(w_layout(tw, 2), apply_J(ai_J, f))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_pair_operator_matches_apply_on_matrix_letters(
            self, matrix_letters, n):
        nsys = matrix_letters
        rng = np.random.default_rng(n)

        def rand(rows, cols):
            return (rng.normal(size=(rows, cols))
                    + 1j * rng.normal(size=(rows, cols)))

        same = tuple(rand(nsys.dims[b], nsys.dims[b])
                     for b in nsys.alphabet.letters)
        flip = tuple(rand(nsys.dims[b ^ 1], nsys.dims[b])
                     for b in nsys.alphabet.letters)
        lay = w_layout(nsys, n)
        mat = _pair_operator_matrix(nsys, nsys, n, same, flip)
        for seed in (5, 6):
            f = random_function(nsys, seed=seed, depth=n)
            lhs = mat @ _embed(lay, f)
            rhs = _embed(lay, _apply_edge_operator(f, nsys, same, flip))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("fix", ["ai_J", "bi_J", "e0_J"])
    def test_pair_operator_matches_oracle_bitwise(self, fix, n, request):
        # scalar letters: every chart entry is the same product of
        # scalars as the per-column walk forms, so the bytes agree
        J = request.getfixturevalue(fix)
        nsys = J.pkg.original
        tw = J.pkg.twin
        ops = [(tw, tuple(-q for q in J.Q), nsys.B)]
        if J.pkg.K is not None:
            ops.append((nsys,) + _pair_parts(nsys, split(J).p_plus))
        for out, same, flip in ops:
            new = _pair_operator_matrix(nsys, out, n, same, flip)
            ref = _pair_operator_oracle(nsys, out, n, same, flip)
            assert new.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_pair_operator_matches_oracle_on_matrix_letters(
            self, matrix_letters, n):
        nsys = matrix_letters
        rng = np.random.default_rng(10 + n)

        def rand(rows, cols):
            return (rng.normal(size=(rows, cols))
                    + 1j * rng.normal(size=(rows, cols)))

        letters = nsys.alphabet.letters
        same = tuple(rand(nsys.dims[b], nsys.dims[b]) for b in letters)
        flip = [rand(nsys.dims[b ^ 1], nsys.dims[b]) for b in letters]
        flip[n % len(flip)] = np.zeros_like(flip[n % len(flip)])
        flip = tuple(flip)
        # noise in the blocks H[c⁻¹|c], which a walk never reads: a walker
        # that steps back across an edge picks it up
        blocks = {pair: nsys.h(*pair) for pair in nsys.system.pairs()}
        for c in letters:
            blocks[c ^ 1, c] = rand(nsys.dims[c ^ 1], nsys.dims[c])
        noisy = dataclasses.replace(
            nsys, system=MatrixSystem(nsys.alphabet, nsys.dims, blocks))
        ref = _pair_operator_oracle(nsys, nsys, n, same, flip)
        assert np.array_equal(
            _pair_operator_oracle(nsys, noisy, n, same, flip), ref)
        new = _pair_operator_matrix(nsys, noisy, n, same, flip)
        assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_translation_matches_action_on_matrix_letters(
            self, matrix_letters, n):
        nsys = matrix_letters
        f = random_function(nsys, seed=n, depth=n)
        vec = _embed(w_layout(nsys, n), f)
        lay = w_layout(nsys, n + 1)
        for y in nsys.alphabet.letters:
            lhs = translation_matrix(nsys, (y,), n) @ vec
            rhs = _embed(lay, act((y,), f))
            assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("fix", ["ai_J", "bi_J", "e0_J"])
    def test_translation_matches_oracle(self, fix, n, request):
        # scalar letters: the inclusion and the unit columns are the
        # per-column walk's own numbers; a column two steps short of
        # W_{n+1} is a product H[d|c]·H[c|b] taken inside a dense product,
        # held to the rounding
        J = request.getfixturevalue(fix)
        for nsys in (J.pkg.original, J.pkg.twin):
            ref = _translation_oracle(nsys, (), n)
            assert translation_matrix(nsys, (), n).tobytes() == ref.tobytes()
            lin = w_layout(nsys, n)
            for y in nsys.alphabet.letters:
                new = translation_matrix(nsys, (y,), n)
                ref = _translation_oracle(nsys, (y,), n)
                unit = [lin.offsets[x, b] for x, b in lin.keys
                        if (x + (b,))[0] != y ^ 1]
                assert new[:, unit].tobytes() == ref[:, unit].tobytes()
                assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_translation_matches_oracle_on_matrix_letters(
            self, matrix_letters, gauged_ai_J, n):
        for nsys in (matrix_letters, gauged_ai_J.pkg.original,
                     gauged_ai_J.pkg.twin):
            for y in ((),) + tuple((c,) for c in nsys.alphabet.letters):
                new = translation_matrix(nsys, y, n)
                ref = _translation_oracle(nsys, y, n)
                assert np.abs(new - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_layout_guard(self, s0_norm):
        with pytest.raises(ValueError, match="memory budget"):
            w_layout(s0_norm, 9)

    def test_translation_depth_guard(self, ai_J):
        nsys = ai_J.pkg.original
        with pytest.raises(ValueError, match="translation target depth"):
            translation_matrix(nsys, (0, 2), 1)


class TestCharts:
    def test_each_chart_built_once_per_report(self, monkeypatch):
        # one classification report of a BI system builds each layout,
        # form and inclusion once per (system, depth) and each translation
        # once per (system, generator, depth), none of them nor any pair
        # operator chart beyond W_1; the finite-rank profile walks once
        # per start letter, and no summand is walked column by column
        built = Counter()
        pair_depths = []
        pair = intertwiner._pair_operator_matrix

        def counted_pair(nsys_in, nsys_out, n, same, flip):
            pair_depths.append(n)
            return pair(nsys_in, nsys_out, n, same, flip)

        monkeypatch.setattr(intertwiner, "_pair_operator_matrix",
                            counted_pair)

        def counted(name):
            build = getattr(intertwiner, name)

            def wrapper(nsys, *args):
                built[name, id(nsys), args] += 1
                return build(nsys, *args)

            monkeypatch.setattr(intertwiner, name, wrapper)

        for name in ("_layout", "_gram", "_step_chart", "_translation"):
            counted(name)
        walks = []
        walk = intertwiner._rank_walk

        def counted_walk(pkg, a, nmax):
            walks.append(a)
            return walk(pkg, a, nmax)

        def refused(*args):
            raise AssertionError("per-column spread")

        monkeypatch.setattr(intertwiner, "_rank_walk", counted_walk)
        assert not hasattr(intertwiner, "_spread")
        monkeypatch.setattr(functions, "_spread", refused)
        system = generate.bi_instance(1)
        report, code = classification_report(
            SystemDocument(system=system, B=None, label="bi-1"), 1e-9, 16)
        assert (report["class"], code) == ("BI", 0)
        assert built and set(built.values()) == {1}
        assert max(key[2][-1] for key in built) == 1
        # build_J charts nothing: the pair operators are J's and P_+'s,
        # each on W_0 and W_1
        assert pair_depths == [0, 1, 0, 1]
        translations = sorted(key[2] for key in built
                              if key[0] == "_translation")
        # both generators from W_0, on the system and on its twin: the
        # split reuses the system's
        assert translations == [((0,), 0)] * 2 + [((2,), 0)] * 2
        assert sorted(walks) == list(system.alphabet.letters)
