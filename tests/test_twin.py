import numpy as np
import pytest

from freerep import generate, sysio
from freerep.cli import classification_report
from freerep.systems import (
    NormalizedSystem,
    frob_tuple,
    identity_tuple,
    normalize,
    spectral_radius_T,
    transfer_matrix,
)
from freerep.twin import (
    EquivalenceResult,
    e_lookup,
    e_maps,
    intertwining_residual,
    solve_equivalence,
    symmetrize_and_unitarize_K,
    twin,
    twin_package,
    twin_system,
)

a, ai, b, bi = 0, 1, 2, 3


def test_twin_s0_is_s0(s0_norm):
    tw = twin(s0_norm)
    for p, q in tw.system.pairs():
        assert abs(tw.h(p, q)[0, 0] - 1 / np.sqrt(3)) < 1e-10
    for m in tw.B:
        assert abs(m[0, 0] - 1.0) < 1e-10


def test_twin_dims_swap_along_involution():
    sys = generate.random_system(5, k=2, max_dim=3)
    tw = twin_system(sys)
    for c in sys.alphabet.letters:
        assert tw.dims[c] == sys.dims[c ^ 1]


def test_twin_blocks_are_conjugate_transposed_data():
    sys = generate.random_system(6, k=2, max_dim=3)
    tw = twin_system(sys)
    for (p, q), m in sys.blocks.items():
        assert np.array_equal(tw.blocks[(q ^ 1, p ^ 1)], m.conj().T)


def test_twin_data_involution():
    sys = generate.random_system(7, k=3, max_dim=3)
    back = twin_system(twin_system(sys))
    assert back.dims == sys.dims
    for key, m in sys.blocks.items():
        assert np.array_equal(back.blocks[key], m)


@pytest.mark.parametrize("seed", range(5))
def test_twin_twin_equivalent(seed):
    ns = normalize(generate.random_system(300 + seed, k=2 + seed % 2, max_dim=3))
    result = solve_equivalence(ns, twin(twin(ns)))
    assert result.status == "equivalent"
    assert result.solution_space_dim == 1
    assert result.residual < 1e-10


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("seed", range(4))
def test_twin_forms_match_independent_normalization(k, seed):
    ns = normalize(generate.random_system(600 + seed, k=k, max_dim=3))
    tw = twin(ns)
    alone = normalize(twin_system(ns.system))
    assert frob_tuple(tuple(x - y for x, y in zip(tw.B, alone.B))) < 1e-12
    # spectral_radius_T refines its root in the B₀ = I frame, as
    # normalize does: at most 1.8e-15 off on these eight
    assert abs(tw.rho_certificate
               - spectral_radius_T(twin_system(ns.system))) < 1e-14
    assert tw.fix_residual < 1e-12
    assert tw.b_min_eig > 0


@pytest.mark.parametrize("k", (2, 3))
def test_twin_transfer_spectrum_needs_no_eigensolve(k, monkeypatch):
    # the twin's transfer matrix is T† relabelled, so its spectrum is the
    # conjugate of the system's (against a dense eigensolve here): the
    # twin shares the Perron gap, and twinning twice gives it back, with
    # no eigensolve
    ns = normalize(generate.random_system(610 + k, k=k, max_dim=3))
    calls = []
    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name,
                            lambda *args, _n=name: calls.append(_n))
    tw = twin(ns)
    back = twin(tw)
    monkeypatch.undo()
    assert calls == []
    assert tw.perron_gap == ns.perron_gap == back.perron_gap
    assert tw.rho_certificate == ns.rho_certificate == 1.0
    dense = list(np.linalg.eigvals(transfer_matrix(tw.system)))
    for v in np.linalg.eigvals(transfer_matrix(ns.system)).conj():
        k_near = int(np.argmin(np.abs(np.asarray(dense) - v)))
        assert abs(dense.pop(k_near) - v) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_twin_of_twin_is_exact(seed):
    ns = normalize(generate.random_system(650 + seed, k=2 + seed % 2,
                                          max_dim=3))
    back = twin(twin(ns))
    assert back.dims == ns.dims
    assert back.system.blocks.keys() == ns.system.blocks.keys()
    for key, m in ns.system.blocks.items():
        assert np.array_equal(back.system.blocks[key], m)
    for got, want in ((back.B, ns.B), (back.B_hat, ns.B_hat)):
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
    for got, want in ((back.B_roots, ns.B_roots),
                      (back.B_hat_roots, ns.B_hat_roots)):
        assert all(np.array_equal(x, y) for pair in zip(got, want)
                   for x, y in zip(*pair))
    assert (back.b_min_eig, back.b_hat_min_eig, back.fix_residual,
            back.perron_gap) == (ns.b_min_eig, ns.b_hat_min_eig,
                                 ns.fix_residual, ns.perron_gap)


def test_twin_swaps_the_form_roots():
    ns = normalize(generate.random_system(655, k=2, max_dim=3))
    tw = twin(ns)
    assert tw.B_roots is ns.B_hat_roots and tw.B_hat_roots is ns.B_roots
    assert (tw.b_min_eig, tw.b_hat_min_eig) == (ns.b_hat_min_eig,
                                                ns.b_min_eig)
    for (root, inv), form in zip(tw.B_roots, tw.B):
        assert np.allclose(root @ root, form, atol=1e-12)
        assert np.allclose(root @ inv, np.eye(len(form)), atol=1e-12)
    assert tw.b_min_eig == pytest.approx(
        min(np.linalg.eigvalsh(m)[0] for m in tw.B), abs=1e-12)


def test_classification_report_decomposes_each_form_once(monkeypatch):
    # normalize takes one eigh per letter for each of B₀, B and B̂; the
    # twin reuses the roots of B̂ and B, so the report adds none
    sys = generate.bi_instance(1)
    doc = sysio.SystemDocument(sys, None, None)
    calls = []

    def recording(*args, _solve=np.linalg.eigh, **kwargs):
        calls.append(args[0].shape)
        return _solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    report, code = classification_report(doc, 1e-9, 10)
    assert code == 0 and report["class"] == "BI"
    assert len(calls) == 3 * sys.alphabet.size == 12


def test_twin_makes_no_eigensolve(monkeypatch):
    ns = normalize(generate.random_system(660, k=2, max_dim=3))
    calls = []
    for name in ("eig", "eigvals", "eigh", "svd"):
        def recording(*args, _solve=getattr(np.linalg, name), _name=name,
                      **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    twin(twin(ns))
    assert calls == []


def test_e_maps_s0(s0_norm):
    E = e_maps(s0_norm)
    for (p, q), m in E.items():
        assert q != p ^ 1
        assert abs(m[0, 0] - 2.0 / 3.0) < 1e-10
    zero = e_lookup(E, s0_norm.dims, a, ai)
    assert not np.any(zero)


def test_e_maps_shapes():
    ns = normalize(generate.random_system(8, k=2, max_dim=3))
    E = e_maps(ns)
    for (p, q), m in E.items():
        assert m.shape == (ns.dims[p ^ 1], ns.dims[q])


@pytest.mark.parametrize("seed", range(5))
def test_e_adjoint_symmetry(seed):
    ns = normalize(generate.random_system(400 + seed, k=2, max_dim=3))
    E = e_maps(ns)
    scale = max(np.linalg.norm(m) for m in E.values())
    for (p, q), m in E.items():
        mirror = E[(q ^ 1, p ^ 1)]
        assert np.linalg.norm(mirror.conj().T - m) < 1e-11 * max(scale, 1.0)


def test_solve_equivalence_s0_with_twin(s0_norm):
    result = solve_equivalence(s0_norm, twin(s0_norm))
    assert result.status == "equivalent"
    assert result.solution_space_dim == 1
    vals = [m[0, 0] for m in result.K]
    assert np.allclose(vals, vals[0], atol=1e-10)


def test_solve_equivalence_self_is_identity():
    ns = normalize(generate.random_system(9, k=2, max_dim=3))
    result = solve_equivalence(ns, ns)
    assert result.status == "equivalent"
    lam = np.trace(result.K[0]) / ns.dims[0]
    for c in ns.alphabet.letters:
        assert np.allclose(
            result.K[c], lam * np.eye(ns.dims[c]), atol=1e-9
        )


def test_solve_equivalence_inequivalent_rotated_scalar():
    ns = normalize(generate.rotated_scalar_system(1.2))
    result = solve_equivalence(ns, twin(ns))
    assert result.status == "inequivalent"
    assert result.solution_space_dim == 0
    assert result.K is None


def test_solve_equivalence_alphabet_mismatch():
    ns2 = normalize(generate.random_system(10, k=2, max_dim=2))
    ns3 = normalize(generate.random_system(10, k=3, max_dim=2))
    with pytest.raises(ValueError, match="alphabets"):
        solve_equivalence(ns2, ns3)


@pytest.mark.parametrize("seed", range(4))
def test_solution_space_dim_is_zero_or_one(seed):
    ns = normalize(generate.random_system(500 + seed, k=2, max_dim=2))
    for other in (ns, twin(ns)):
        result = solve_equivalence(ns, other)
        assert result.solution_space_dim in (0, 1)


def test_doubled_system_solution_space_contradicts_irreducibility():
    # the doubled s0 is reducible, so its intertwiners with itself and
    # with its twin span a 4-dimensional space
    sys = generate.doubled_system(generate.s0_system())
    ident = identity_tuple(sys.dims)
    roots = tuple((m, m) for m in ident)
    # a reducible system has no Perron gap; the identity forms are fixed
    ns = NormalizedSystem(sys, ident, ident, 0.0, 0.0, 1.0, roots, 1.0, roots)
    for other in (ns, twin(ns)):
        result = solve_equivalence(ns, other)
        assert result.status == "undecided"
        assert result.solution_space_dim == 4
        assert "contradicts irreducibility" in result.diagnostic


def test_intertwining_residual_of_returned_K():
    ns = normalize(generate.random_system(11, k=3, max_dim=2))
    tw2 = twin(twin(ns))
    result = solve_equivalence(ns, tw2)
    assert result.status == "equivalent"
    assert intertwining_residual(ns, tw2, result.K) < 1e-10


def test_symmetrize_s0(s0_norm):
    tw = twin(s0_norm)
    result = solve_equivalence(s0_norm, tw)
    sym = symmetrize_and_unitarize_K(result, s0_norm, tw)
    for c in s0_norm.alphabet.letters:
        assert np.allclose(sym.K[c].conj().T, sym.K[c ^ 1], atol=1e-12)
    assert sym.unitary_residual < 1e-9
    # scalar self-twin case: the unitarized K is just ±1
    assert abs(abs(sym.K[0][0, 0]) - 1.0) < 1e-10


@pytest.mark.parametrize("theta", np.linspace(0.1, 2.9, 5))
def test_symmetrize_phase_invariance(theta, s0_norm):
    tw = twin(s0_norm)
    base = solve_equivalence(s0_norm, tw)
    rotated = EquivalenceResult(
        status="equivalent",
        K=tuple(np.exp(1j * theta) * m for m in base.K),
        solution_space_dim=1,
        residual=base.residual,
    )
    sym = symmetrize_and_unitarize_K(rotated, s0_norm, tw)
    eye = identity_tuple(s0_norm.dims)
    diff_plus = frob_tuple(tuple(x - y for x, y in zip(sym.K, eye)))
    diff_minus = frob_tuple(tuple(x + y for x, y in zip(sym.K, eye)))
    assert min(diff_plus, diff_minus) < 1e-9


def test_symmetrize_respects_existing_symmetry():
    ns = normalize(generate.self_twin_system(12, k=2, dim=2))
    tw = twin(ns)
    result = solve_equivalence(ns, tw)
    assert result.status == "equivalent"
    sym = symmetrize_and_unitarize_K(result, ns, tw)
    again = symmetrize_and_unitarize_K(
        EquivalenceResult("equivalent", sym.K, 1, 0.0), ns, tw
    )
    for x, y in zip(sym.K, again.K):
        assert np.allclose(x, y, atol=1e-10)
    for c in ns.alphabet.letters:
        assert np.allclose(sym.K[c].conj().T, sym.K[c ^ 1], atol=1e-10)


def test_symmetrize_requires_equivalence(s0_norm):
    result = EquivalenceResult("inequivalent", None, 0, 0.0)
    with pytest.raises(ValueError):
        symmetrize_and_unitarize_K(result, s0_norm, s0_norm)


def test_twin_package_equivalent_case(s0_norm):
    pkg = twin_package(s0_norm)
    assert pkg.equivalent
    assert pkg.K is not None
    assert pkg.k_unitary_residual < 1e-9
    assert (a, ai) not in pkg.E


def test_twin_package_inequivalent_case():
    ns = normalize(generate.rotated_scalar_system(0.9))
    pkg = twin_package(ns)
    assert not pkg.equivalent
    assert pkg.K is None
