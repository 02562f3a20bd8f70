"""Summand evaluation, canonical families, inner products, actions."""

import numpy as np
import pytest

from freerep import generate
from freerep.systems import normalize
from freerep.functions import (
    MuSummand,
    act,
    act_indicator,
    canonicalize,
    coefficient,
    deepen,
    first_shell,
    inner_product,
    mu_eval,
    norm,
)

A, AI, B, BI = 0, 1, 2, 3


@pytest.fixture(scope="module")
def msys():
    return normalize(generate.random_system(97, k=2, max_dim=2))


def unit(f_or_sys, letter):
    nsys = f_or_sys
    v = np.zeros(nsys.dims[letter], dtype=complex)
    v[0] = 1.0
    return v


class TestMuEval:
    def test_value_at_edge_endpoint(self, msys):
        v = unit(msys, A)
        got = mu_eval(msys, (), A, v, (A,))
        assert np.allclose(got, v)

    def test_s0_one_step(self, s0_norm):
        got = mu_eval(s0_norm, (), A, np.ones(1), (A, B))
        assert got[0] == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_descending_edge_step(self, msys):
        v = unit(msys, A)
        got = mu_eval(msys, (AI,), A, v, (A,))
        assert np.allclose(got, msys.h(A, A) @ v)

    def test_outside_half_tree_is_zero(self, msys):
        v = unit(msys, A)
        assert np.linalg.norm(mu_eval(msys, (), A, v, (B,))) == 0.0
        assert np.linalg.norm(mu_eval(msys, (AI,), A, v, (AI, B))) == 0.0

    def test_geodesic_product_order(self, msys):
        v = unit(msys, A)
        got = mu_eval(msys, (), A, v, (A, B, AI))
        want = msys.h(AI, B) @ msys.h(B, A) @ v
        assert np.allclose(got, want)


class TestCanonicalize:
    def test_depth0_single_edge(self, msys):
        v = unit(msys, A)
        f = canonicalize(msys, [MuSummand((), A, v)], 0)
        assert set(f.coeffs) == {((), A)}
        assert np.allclose(f.coeffs[((), A)], v)

    def test_depth1_spreads_by_blocks(self, msys):
        v = unit(msys, A)
        f = canonicalize(msys, [MuSummand((), A, v)], 1)
        assert set(f.coeffs) == {((A,), b) for b in (A, B, BI)}
        for b in (A, B, BI):
            assert np.allclose(f.coeffs[((A,), b)], msys.h(b, A) @ v)

    def test_s0_descending_summand_depth0(self, s0_norm):
        f = canonicalize(s0_norm, [MuSummand((AI,), A, np.ones(1))], 0)
        assert set(f.coeffs) == {((), c) for c in (A, B, BI)}
        for c in (A, B, BI):
            assert f.coeffs[((), c)][0] == pytest.approx(1 / np.sqrt(3),
                                                         abs=1e-12)

    def test_list_vector_matches_ndarray(self, s0_norm):
        from_list = canonicalize(s0_norm, [MuSummand((), A, [1.0])], 1)
        from_array = canonicalize(s0_norm, [MuSummand((), A, np.ones(1))], 1)
        assert list(from_list.coeffs) == list(from_array.coeffs)
        for key, val in from_array.coeffs.items():
            assert np.array_equal(from_list.coeffs[key], val)

    def test_below_representable_depth_raises(self, msys):
        s = MuSummand((A, B), BI, unit(msys, BI))
        assert s.native_depth == 1
        with pytest.raises(ValueError, match="below representable depth"):
            canonicalize(msys, [s], 0)

    def test_wrong_vector_space_raises(self, msys):
        bad = np.zeros(msys.dims[A] + 3, dtype=complex)
        with pytest.raises(ValueError, match="dimension mismatch"):
            canonicalize(msys, [MuSummand((), A, bad)], 0)

    def test_walk_matches_pointwise_reference(self):
        # the walk must give, key for key and bit for bit, the sum of
        # mu_eval over the summands at every forward edge of depth N
        rng = np.random.default_rng(11)
        kinds = set()
        dims = set()
        for seed, k, max_dim in ((60, 2, 1), (61, 2, 3), (62, 3, 3)):
            nsys = normalize(generate.random_system(seed, k=k,
                                                    max_dim=max_dim))
            al = nsys.alphabet
            dims.update(nsys.dims)
            for N in range(4):
                for _ in range(4):
                    summands = []
                    while len(summands) < int(rng.integers(1, 4)):
                        x = al.random_word(rng, int(rng.integers(N + 2)))
                        a = int(rng.integers(al.size))
                        d = nsys.dims[a]
                        s = MuSummand(x, a, rng.normal(size=d)
                                      + 1j * rng.normal(size=d))
                        if s.native_depth <= N:
                            summands.append(s)
                            kinds.add(len(s.xa) > len(x))
                    want = {}
                    for x in al.sphere(N):
                        for b in al.letters:
                            if x and b == x[-1] ^ 1:
                                continue
                            acc = np.zeros(nsys.dims[b], dtype=complex)
                            for s in summands:
                                acc = acc + mu_eval(nsys, s.x, s.letter, s.v,
                                                    x + (b,))
                            if np.linalg.norm(acc):
                                want[(x, b)] = acc
                    got = canonicalize(nsys, summands, N).coeffs
                    assert list(got) == list(want)
                    for key, val in want.items():
                        assert np.array_equal(got[key], val)
        assert kinds == {True, False}
        assert dims == {1, 2, 3}


class TestInnerProduct:
    def test_s0_unit_norm(self, s0_norm):
        f = first_shell(s0_norm, {A: [1.0]})
        assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_half_trees(self, s0_norm):
        f = first_shell(s0_norm, {A: [1.0]})
        g = first_shell(s0_norm, {B: [1.0]})
        assert inner_product(f, g) == 0.0

    def test_s0_depth1_overlap(self, s0_norm):
        f = first_shell(s0_norm, {A: [1.0]})
        for y in ((AI,), (A,)):
            got = inner_product(f, act(y, f))
            assert got == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_depth_invariance(self, msys):
        rng = np.random.default_rng(3)
        f = first_shell(msys, {A: rng.normal(size=msys.dims[A]),
                               B: rng.normal(size=msys.dims[B])})
        g = first_shell(msys, {A: rng.normal(size=msys.dims[A]),
                               AI: rng.normal(size=msys.dims[AI])})
        base = inner_product(f, g)
        deep = inner_product(deepen(f, 2), deepen(g, 2))
        assert abs(base - deep) < 1e-11

    def test_hermitian(self, msys):
        rng = np.random.default_rng(4)
        def draw():
            return first_shell(msys, {
                c: rng.normal(size=msys.dims[c])
                + 1j * rng.normal(size=msys.dims[c])
                for c in msys.alphabet.letters})
        f, g = draw(), draw()
        assert inner_product(f, g) == pytest.approx(
            np.conj(inner_product(g, f)), abs=1e-12)
        assert inner_product(f, f).real > 0

    def test_system_mismatch(self, msys, s0_norm):
        f = first_shell(msys, {A: unit(msys, A)})
        g = first_shell(s0_norm, {A: [1.0]})
        with pytest.raises(ValueError, match="system mismatch"):
            inner_product(f, g)


class TestAct:
    def test_identity_action(self, msys):
        f = first_shell(msys, {A: unit(msys, A)})
        g = act((), f)
        assert g.depth == f.depth
        assert set(g.coeffs) == set(f.coeffs)
        for key in f.coeffs:
            assert np.allclose(g.coeffs[key], f.coeffs[key])

    def test_s0_translate_norm(self, s0_norm):
        f = first_shell(s0_norm, {A: [1.0]})
        assert norm(act((A, B), f)) == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_random_words(self, msys):
        rng = np.random.default_rng(5)
        f = first_shell(msys, {
            c: rng.normal(size=msys.dims[c]) + 1j * rng.normal(size=msys.dims[c])
            for c in msys.alphabet.letters})
        g = first_shell(msys, {
            c: rng.normal(size=msys.dims[c]) + 1j * rng.normal(size=msys.dims[c])
            for c in msys.alphabet.letters})
        base = inner_product(f, g)
        for n in (1, 2, 3, 4):
            y = msys.alphabet.random_word(rng, n)
            moved = inner_product(act(y, f), act(y, g))
            assert abs(moved - base) < 1e-11

    def test_composition(self, msys):
        f = first_shell(msys, {A: unit(msys, A), B: unit(msys, B)})
        once = act((A,), act((B,), f))
        joint = act((A, B), f)
        n = max(once.depth, joint.depth)
        oc, jc = deepen(once, n).coeffs, deepen(joint, n).coeffs
        assert set(oc) == set(jc)
        for key in oc:
            assert np.allclose(oc[key], jc[key], atol=1e-12)


class TestActIndicator:
    def test_disjoint_support_kills(self, s0_norm):
        f = first_shell(s0_norm, {B: [1.0]})
        g = act_indicator((A,), f)
        assert not g.coeffs

    def test_keeps_own_cone(self, s0_norm):
        f = first_shell(s0_norm, {A: [1.0]})
        g = act_indicator((A,), f)
        assert norm(g) == pytest.approx(norm(f), abs=1e-12)

    def test_idempotent(self, msys):
        rng = np.random.default_rng(6)
        f = first_shell(msys, {
            c: rng.normal(size=msys.dims[c]) for c in msys.alphabet.letters})
        once = act_indicator((A,), f)
        twice = act_indicator((A,), once)
        assert once.depth == twice.depth
        assert set(once.coeffs) == set(twice.coeffs)
        for key in once.coeffs:
            assert np.allclose(once.coeffs[key], twice.coeffs[key])

    def test_orthogonal_indicators_compose_to_zero(self, msys):
        rng = np.random.default_rng(7)
        f = first_shell(msys, {
            c: rng.normal(size=msys.dims[c]) for c in msys.alphabet.letters})
        g = act_indicator((B,), act_indicator((A,), f))
        assert not g.coeffs

    def test_translate_overlaps_partially(self, s0_norm):
        f = act((AI,), first_shell(s0_norm, {A: [1.0]}))
        g = act_indicator((B,), f)
        assert 0 < norm(g) < norm(f)


class TestCoefficient:
    def test_s0_values(self, s0_norm):
        f = first_shell(s0_norm, {A: [1.0]})
        assert coefficient(f, (AI,), f) == pytest.approx(1 / np.sqrt(3),
                                                         abs=1e-12)
        assert coefficient(f, (B,), f) == pytest.approx(0.0, abs=1e-12)
