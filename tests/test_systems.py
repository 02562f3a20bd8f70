import ast
import functools
import re
from pathlib import Path

import numpy as np
import pytest

from freerep import generate, systems
from freerep import twin as twin_module
from freerep.freegroup import Alphabet
from freerep.spectral import DELTA, GAP_FACTOR
from freerep.twin import twin
from freerep.systems import (
    MatrixSystem,
    frob_tuple,
    identity_tuple,
    is_irreducible,
    normalize,
    spectral_radius_T,
    transfer_apply,
    transfer_matrix,
    validate,
)
from test_acceptance import PORTFOLIO
from test_spectral import _linalg_calls, _metamorphic_pool, _recorded

a, ai, b, bi = 0, 1, 2, 3


def scalar_ones_system(value=1.0):
    alpha = Alphabet(2)
    blocks = {
        (p, q): np.array([[value]], dtype=complex)
        for p in alpha.letters
        for q in alpha.letters
        if p != q ^ 1
    }
    return MatrixSystem(alpha, (1, 1, 1, 1), blocks)


def self_intertwiner_dim(sys):
    """Dimension of {(J_a) : J_b H_ba = H_ba J_a}; 1 iff trivial commutant.

    Independent reducibility cross-check built from the eigenstructure of
    the constraint matrix, not from path spans.
    """
    dims = sys.dims
    sizes = [n * n for n in dims]
    offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    rows = []
    for (p, q), h in sys.blocks.items():
        row = np.zeros((dims[p] * dims[q], offs[-1]), dtype=complex)
        row[:, offs[p]:offs[p] + sizes[p]] = np.kron(np.eye(dims[p]), h.T)
        row[:, offs[q]:offs[q] + sizes[q]] -= np.kron(h, np.eye(dims[q]))
        rows.append(row)
    mat = np.vstack(rows)
    s = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return mat.shape[1] - rank


def test_validate_s0_clean(s0):
    assert validate(s0) == []


def test_validate_flags_nonzero_at_identity_pair(s0):
    bad = MatrixSystem(s0.alphabet, s0.dims, dict(s0.blocks))
    bad.blocks[(a, ai)] = np.array([[1.0]])
    msgs = validate(bad)
    assert any("nonzero at ba = e" in m for m in msgs)


def test_validate_flags_shape_mismatch(s0):
    bad = MatrixSystem(s0.alphabet, (2,) + s0.dims[1:], dict(s0.blocks))
    msgs = validate(bad)
    assert any("shape violation" in m for m in msgs)


def test_validate_flags_nonpositive_dimension(s0):
    bad = MatrixSystem(s0.alphabet, (0,) + s0.dims[1:], dict(s0.blocks))
    assert any("positive" in m for m in validate(bad))


def test_validate_flags_missing_block(s0):
    blocks = dict(s0.blocks)
    del blocks[(a, a)]
    bad = MatrixSystem(s0.alphabet, s0.dims, blocks)
    assert any("zero block" in m for m in validate(bad))


def test_validate_flags_nonfinite(s0):
    bad = MatrixSystem(s0.alphabet, s0.dims, dict(s0.blocks))
    bad.blocks[(a, a)] = np.array([[np.inf]])
    assert any("non-finite" in m for m in validate(bad))


def test_s0_is_irreducible(s0):
    assert is_irreducible(s0)


def test_doubled_s0_is_reducible(s0):
    assert not is_irreducible(generate.doubled_system(s0))


def triangular_system():
    # common invariant line e1: all blocks upper triangular
    alpha = Alphabet(2)
    u = np.array([[1.0, 1.0], [0.0, 0.5]], dtype=complex)
    blocks = {
        (p, q): u for p in alpha.letters for q in alpha.letters if p != q ^ 1
    }
    return MatrixSystem(alpha, (2, 2, 2, 2), blocks)


def block_triangular_system(seed):
    """Random dims-(3,2,3,2) system whose blocks all keep the line e1:
    its form ``B`` is singular while the twin's ``B̂`` is definite."""
    rng = np.random.default_rng(seed)
    alpha = Alphabet(2)
    dims = (3, 2, 3, 2)
    blocks = {}
    for p, q in MatrixSystem(alpha, dims, {}).pairs():
        m = (rng.normal(size=(dims[p], dims[q]))
             + 1j * rng.normal(size=(dims[p], dims[q])))
        m[1:, :1] = 0
        blocks[(p, q)] = m
    return MatrixSystem(alpha, dims, blocks)


def direct_sum_system(seed):
    """Direct sum of two random systems with transfer radii 1 and 1.5²:
    the Perron eigenvalue is simple, but both forms are singular."""
    parts = [generate.random_system(seed + i, k=2, max_dim=2) for i in (0, 1)]
    parts = [p.scaled(s / np.sqrt(spectral_radius_T(p)))
             for p, s in zip(parts, (1.0, 1.5))]
    dims = tuple(x + y for x, y in zip(parts[0].dims, parts[1].dims))
    blocks = {}
    for key, m in parts[0].blocks.items():
        n = parts[1].blocks[key]
        big = np.zeros((m.shape[0] + n.shape[0], m.shape[1] + n.shape[1]),
                       dtype=complex)
        big[:m.shape[0], :m.shape[1]] = m
        big[m.shape[0]:, m.shape[1]:] = n
        blocks[key] = big
    return MatrixSystem(parts[0].alphabet, dims, blocks)


def test_triangular_system_is_reducible():
    assert not is_irreducible(triangular_system())


@pytest.mark.parametrize("seed", range(6))
def test_random_dense_irreducible_and_commutant_agrees(seed):
    sys = generate.random_system(seed, k=2, max_dim=2)
    assert is_irreducible(sys)
    assert self_intertwiner_dim(sys) == 1


def test_commutant_cross_check_on_reducible(s0):
    doubled = generate.doubled_system(s0)
    assert self_intertwiner_dim(doubled) > 1


def test_transfer_apply_s0_fixed_point(s0):
    t = identity_tuple(s0.dims)
    out = transfer_apply(s0, t)
    for m in out:
        assert abs(m[0, 0] - 1.0) < 1e-14


def test_transfer_apply_unscaled_ones():
    sys = scalar_ones_system()
    out = transfer_apply(sys, identity_tuple(sys.dims))
    for m in out:
        assert abs(m[0, 0] - 3.0) < 1e-14


def test_transfer_apply_zero():
    sys = generate.random_system(3)
    zero = tuple(np.zeros((n, n), dtype=complex) for n in sys.dims)
    out = transfer_apply(sys, zero)
    assert frob_tuple(out) == 0.0


def test_transfer_apply_shape_mismatch(s0):
    with pytest.raises(ValueError):
        transfer_apply(s0, identity_tuple((2, 1, 1, 1)))


@pytest.mark.parametrize("seed", range(5))
def test_transfer_linearity(seed):
    rng = np.random.default_rng(seed)
    sys = generate.random_system(seed, k=2, max_dim=3)
    def rand_tuple():
        return tuple(
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for n in sys.dims
        )
    s, t = rand_tuple(), rand_tuple()
    al, be = complex(rng.normal(), rng.normal()), complex(rng.normal())
    lhs = transfer_apply(sys, tuple(al * x + be * y for x, y in zip(s, t)))
    rhs = tuple(
        al * x + be * y
        for x, y in zip(transfer_apply(sys, s), transfer_apply(sys, t))
    )
    err = frob_tuple(tuple(x - y for x, y in zip(lhs, rhs)))
    assert err < 1e-12 * max(1.0, frob_tuple(lhs))


@pytest.mark.parametrize("seed", range(5))
def test_transfer_preserves_psd(seed):
    rng = np.random.default_rng(100 + seed)
    sys = generate.random_system(seed, k=3, max_dim=2)
    psd = []
    for n in sys.dims:
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psd.append(g @ g.conj().T)
    out = transfer_apply(sys, tuple(psd))
    for m in out:
        herm = (m + m.conj().T) / 2
        assert np.linalg.eigvalsh(herm)[0] >= -1e-10 * max(1.0, frob_tuple(out))


def test_spectral_radius_s0(s0):
    assert abs(spectral_radius_T(s0) - 1.0) < 1e-12


def test_spectral_radius_unscaled_ones():
    assert abs(spectral_radius_T(scalar_ones_system()) - 3.0) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_spectral_radius_scalar_oracle(seed):
    # for 1-dim letters T reduces to the nonnegative matrix |H_ba|^2
    sys = generate.random_scalar_system(seed)
    m = np.zeros((4, 4))
    for (p, q), h in sys.blocks.items():
        m[q, p] = abs(h[0, 0]) ** 2
    want = max(abs(np.linalg.eigvals(m)))
    assert abs(spectral_radius_T(sys) - want) < 1e-10 * want


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_spectral_radius_scaling_covariance(scale):
    sys = generate.random_system(11, k=2, max_dim=3)
    base = spectral_radius_T(sys)
    scaled = spectral_radius_T(sys.scaled(scale))
    assert abs(scaled - scale**2 * base) < 1e-9 * scale**2 * base


def test_normalize_unscaled_ones_recovers_s0():
    ns = normalize(scalar_ones_system())
    for p, q in ns.system.pairs():
        assert abs(ns.h(p, q)[0, 0] - 1 / np.sqrt(3)) < 1e-12
    for m in ns.B:
        assert abs(m[0, 0] - 1.0) < 1e-10


def test_normalize_s0_certificates(s0_norm):
    assert abs(s0_norm.rho_certificate - 1.0) < 1e-10
    assert s0_norm.fix_residual < 1e-10
    assert s0_norm.b_min_eig > 0


def test_normalize_idempotent(s0_norm):
    again = normalize(s0_norm.system)
    diff = frob_tuple(tuple(x - y for x, y in zip(again.B, s0_norm.B)))
    assert diff < 1e-9
    for p, q in s0_norm.system.pairs():
        assert np.allclose(again.h(p, q), s0_norm.h(p, q), atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_normalize_random_certified(seed):
    k = 2 + seed % 2
    ns = normalize(generate.random_system(200 + seed, k=k, max_dim=3))
    assert abs(ns.rho_certificate - 1.0) < 1e-8
    assert ns.fix_residual < 1e-10
    assert ns.b_min_eig > 0
    total = sum(np.trace(m).real for m in ns.B)
    assert abs(total - sum(ns.dims)) < 1e-8
    for m in ns.B:
        assert np.allclose(m, m.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(m)[0] > 0


REDUCIBLE = {
    "doubled-s0": lambda: generate.doubled_system(generate.s0_system()),
    "triangular": triangular_system,
    "block-triangular-0": lambda: block_triangular_system(0),
    "block-triangular-1": lambda: block_triangular_system(1),
    "direct-sum": lambda: direct_sum_system(60),
}


@pytest.mark.parametrize("name", sorted(REDUCIBLE))
def test_normalize_rejects_reducible(name):
    sys = REDUCIBLE[name]()
    assert not is_irreducible(sys)
    with pytest.raises(ValueError, match="^system is not irreducible: "
                       "Perron gap .* form ratios") as err:
        normalize(sys)
    # the gap is undefined only where a factorization fails on the way,
    # which none of these inputs reaches
    assert "Perron gap nan" not in str(err.value)


@pytest.mark.parametrize("seed", range(3))
def test_block_triangular_has_one_singular_form(seed):
    # a check of B̂ alone would pass these systems
    with pytest.raises(ValueError) as err:
        normalize(block_triangular_system(seed))
    gap, ratio_b, ratio_twin = (
        float(x) for x in re.findall(r"-?\d\.\d+e[-+]\d+", str(err.value)))
    assert gap > 1e-8
    assert abs(ratio_b) < 1e-12
    assert ratio_twin > 1e-3


def periodic_peripheral_system():
    """Blocks Z except one Y: every block anticommutes with X, so -ρ is an
    eigenvalue of T, while Y and Z generate all 2x2 matrices."""
    alpha = Alphabet(2)
    z = np.diag([1.0, -1.0]).astype(complex)
    y = np.array([[0, -1j], [1j, 0]])
    blocks = {(p, q): z for p in alpha.letters for q in alpha.letters
              if p != q ^ 1}
    blocks[(a, a)] = y
    return MatrixSystem(alpha, (2, 2, 2, 2), blocks)


def test_normalize_accepts_periodic_peripheral_spectrum():
    sys = periodic_peripheral_system()
    vals = np.linalg.eigvals(transfer_matrix(sys))
    assert np.min(np.abs(vals + 3.0)) < 1e-12
    assert is_irreducible(sys)
    ns = normalize(sys)
    assert abs(ns.rho_certificate - 1.0) < 1e-12
    for form in (ns.B, ns.B_hat):
        for m in form:
            assert np.allclose(m, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("k", (2, 3))
@pytest.mark.parametrize("seed", range(4))
def test_normalize_agrees_with_span_oracle_on_random(k, seed):
    sys = generate.random_system(700 + seed, k=k, max_dim=3)
    assert is_irreducible(sys)
    normalize(sys)


def _span_basis(rows, extra):
    """Orthonormal row basis of span(rows ∪ extra); rows may be empty."""
    stack = [r for r in (rows, extra) if len(r)]
    mat = np.vstack(stack)
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, mat.shape[1]), dtype=complex)
    return vh[s > systems.TOL_SPAN * s[0]]


def span_oracle(sys):
    """The path-span test grown from every row in every round: each span
    is re-multiplied whole and re-decomposed with its products, full or
    not.  :func:`~freerep.systems.is_irreducible` must reach its verdict."""
    size = sys.alphabet.size
    dims = sys.dims
    span = [[np.zeros((0, dims[b] * dims[a]), dtype=complex)
             for a in range(size)] for b in range(size)]
    for a in range(size):
        span[a][a] = _span_basis([], [np.eye(dims[a], dtype=complex).ravel()])
    l_max = sum(n * n for n in dims) + 2 * size
    for _ in range(l_max):
        grew = False
        for a in range(size):
            for b in range(size):
                new_rows = []
                for c in range(size):
                    if b == c ^ 1 or not span[c][a].shape[0]:
                        continue
                    h = sys.blocks.get((b, c))
                    if h is None or not np.any(h):
                        continue
                    basis = span[c][a].reshape(-1, dims[c], dims[a])
                    new_rows.append(np.einsum("ij,rjk->rik", h, basis).reshape(
                        -1, dims[b] * dims[a]))
                if not new_rows:
                    continue
                before = span[b][a].shape[0]
                span[b][a] = _span_basis(span[b][a], np.vstack(new_rows))
                if span[b][a].shape[0] > before:
                    grew = True
        if not grew:
            return all(span[b][a].shape[0] == dims[b] * dims[a]
                       for a in range(size) for b in range(size))
    raise systems.UndecidedError("irreducibility undecided")


def _doubled_random(seed, k, max_dim):
    return generate.doubled_system(
        generate.random_system(seed, k=k, max_dim=max_dim))


_SPAN_SAMPLE = {
    **{"random-k%d-d%d-%d" % (k, d, seed): functools.partial(
        generate.random_system, seed, k=k, max_dim=d)
       for k in (2, 3) for d in (2, 3, 8) for seed in range(3)},
    **{"doubled-k%d-d%d-%d" % (k, d, seed): functools.partial(
        _doubled_random, seed, k, d)
       for k in (2, 3) for d in (2, 3) for seed in range(2)},
    **REDUCIBLE,
    **{"block-triangular-%d" % seed: functools.partial(
        block_triangular_system, seed) for seed in range(5)},
    **{"direct-sum-%d" % seed: functools.partial(direct_sum_system, seed)
       for seed in (60, 61, 62)},
    "periodic-peripheral": periodic_peripheral_system,
}


@pytest.mark.parametrize("name", sorted(_SPAN_SAMPLE))
def test_is_irreducible_agrees_with_span_oracle(name):
    sys = _SPAN_SAMPLE[name]()
    verdict = is_irreducible(sys)
    assert verdict == span_oracle(sys)
    assert verdict == name.startswith(("random", "periodic"))


def _draws():
    """The systems the benchmark and the acceptance tests draw: the
    ``wide`` systems, then the acceptance portfolio, which holds the
    benchmark's ``portfolio`` draws."""
    return ([generate.random_system(seed, k=2, max_dim=8)
             for seed in range(12)]
            + [generate.random_system(seed, k=k, max_dim=3)
               for seed, k in PORTFOLIO])


def test_random_system_draws_the_same_blocks_under_the_span_oracle(
        monkeypatch):
    fast = _draws()
    monkeypatch.setattr(generate, "is_irreducible", span_oracle)
    slow = _draws()
    assert len(fast) == len(slow) == 62
    for x, y in zip(fast, slow):
        assert x.dims == y.dims and x.blocks.keys() == y.blocks.keys()
        assert all(np.array_equal(m, y.blocks[key])
                   for key, m in x.blocks.items())


def test_new_rows_scale_is_the_largest_singular_value():
    # ‖cand‖_F ≈ √3 and rank 4 bracket σ_max = 1 by [√3/2, √3]: 1.5e-10
    # falls inside TOL_SPAN times that, so the exact σ_max counts it
    empty = np.zeros((0, 4), dtype=complex)
    for last, count in ((1.5e-10, 4), (0.5e-10, 3)):
        cand = np.diag([1.0, 1.0, 1.0, last]).astype(complex)
        assert len(systems._new_rows(empty, cand)) == count
    # a nonempty basis raises the scale to 1 for small candidates
    rows = np.eye(4, dtype=complex)[:1]
    cand = np.diag([0.0, 1e-3, 1e-3, 0.5e-10]).astype(complex)
    new = systems._new_rows(rows, cand)
    assert len(new) == 2
    assert np.allclose(new @ rows.conj().T, 0.0, atol=1e-15)


def _form_from_vector(vec, dims, target):
    """Hermitian tuple of a row-major vec'd complex eigenvector, trace
    ``target``: the oracle's reading of an eigenvector as a form.  The
    phase comes off the trace, real positive for a definite form."""
    offs = np.cumsum((0,) + tuple(n * n for n in dims))
    t = [vec[offs[c]:offs[c + 1]].reshape(n, n) for c, n in enumerate(dims)]
    total = sum(np.trace(m) for m in t)
    t = [m * (target / total if total else 1.0) for m in t]
    return tuple((m + m.conj().T) / 2 for m in t)


@pytest.mark.parametrize("phase", (1.0, -1.0, 1j, np.exp(2.1j)))
def test_form_from_vector_ignores_eigenvector_phase(phase):
    form = normalize(generate.random_system(720, k=2, max_dim=3)).B
    vec = phase * np.concatenate([m.ravel() for m in form]) / 7.0
    back = _form_from_vector(vec, tuple(len(m) for m in form),
                             sum(len(m) for m in form))
    assert frob_tuple(tuple(x - y for x, y in zip(back, form))) < 1e-13


def test_normalize_rejects_invalid(s0):
    bad = MatrixSystem(s0.alphabet, s0.dims, dict(s0.blocks))
    bad.blocks[(a, ai)] = np.array([[1.0]])
    with pytest.raises(ValueError, match="invalid system"):
        normalize(bad)


def test_transfer_matrix_matches_apply():
    sys = generate.random_system(42, k=2, max_dim=3)
    rng = np.random.default_rng(0)
    t = tuple(
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in sys.dims
    )
    vec = np.concatenate([m.ravel() for m in t])
    direct = transfer_matrix(sys) @ vec
    looped = np.concatenate([m.ravel() for m in transfer_apply(sys, t)])
    assert np.allclose(direct, looped, atol=1e-12 * max(1.0, abs(looped).max()))


def test_normalize_makes_no_eigendecomposition(monkeypatch):
    # ρ comes from a lazy power iteration and Newton steps on the real
    # matrix of T in Hermitian coordinates, B and B̂ from bordered solves,
    # and the Perron gap from one inverse of side Σn² in the frame where
    # B = I; the only other inverses are the Collatz–Wielandt bracket's,
    # of side Σn; one eigh per letter for each of B₀, B and B̂ gives the
    # roots and the extreme eigenvalues, and eigvalsh is the bracket's
    sys = generate.random_system(730, k=2, max_dim=3)
    calls = {name: _recorded(monkeypatch, name)
             for name in ("eig", "eigvals", "inv", "eigh", "eigvalsh")}
    assembled = []
    monkeypatch.setattr(systems, "transfer_matrix",
                        lambda s, _build=systems.transfer_matrix:
                        assembled.append(s) or _build(s))
    normalize(sys)
    assert calls["eig"] == [] and calls["eigvals"] == []
    side = sum(n * n for n in sys.dims)
    shapes = [m.shape for m, _ in calls["inv"]]
    assert shapes.count((side, side)) == 1
    assert set(shapes) == {(side, side), (sum(sys.dims),) * 2}
    assert len(calls["eigh"]) == 3 * sys.alphabet.size
    assert calls["eigvalsh"]
    assert {m.shape for m, _ in calls["eigvalsh"]} == {(sum(sys.dims),) * 2}
    # the system, then its copy in the frame where B = I
    assert assembled[0] is sys and len(assembled) == 2
    assert assembled[1].dims == sys.dims


def test_systems_and_twin_call_no_eig_or_eigvals():
    # the scan of test_spectral_calls_no_eig_or_eigvals, on the modules
    # that normalize a system and build its twin
    for module in (systems, twin_module):
        source = Path(module.__file__).read_text(encoding="utf-8")
        assert _linalg_calls(source, {"eig", "eigvals"}) == [], module


def test_systems_calls_eigvalsh_only_in_the_bracket():
    # the extreme eigenvalues of the forms come from the eigh of
    # _form_roots; eigvalsh is left to the Collatz–Wielandt bracket
    source = Path(systems.__file__).read_text(encoding="utf-8")
    bracket, = [node for node in ast.parse(source).body
                if getattr(node, "name", None) == "_collatz_wielandt"]
    lines = _linalg_calls(source, {"eigvalsh"})
    assert lines
    assert all(bracket.lineno <= n <= bracket.end_lineno for n in lines)


# the eigenvalue-1 pool, and the wide benchmark systems (letter dims up
# to 8, transfer matrices of side up to 256)
_SPECTRUM_NAMES = (["pool-%d" % i for i in range(len(_metamorphic_pool()))]
                   + ["wide-%d" % seed for seed in range(12)])


def _spectrum_system(name):
    kind, index = name.split("-")
    if kind == "pool":
        return _metamorphic_pool()[int(index)]
    return generate.random_system(int(index), k=2, max_dim=8)


@functools.lru_cache(maxsize=None)
def _normalized(name):
    return normalize(_spectrum_system(name))


def _adjoint_perron_forms(sys):
    """The twin's forms from a separate eigensolve of ``T†``: its
    eigenvector at the eigenvalue nearest the radius, read as a form and
    relabelled ``c ↦ c⁻¹``."""
    vals, vecs = np.linalg.eig(transfer_matrix(sys).conj().T)
    rho = np.max(np.abs(vals))
    left = vecs[:, np.argmin(np.abs(vals - rho))]
    S = _form_from_vector(left, sys.dims, float(sum(sys.dims)))
    return tuple(S[c ^ 1] for c in sys.alphabet.letters)


def _dense_radius_and_gap(sys):
    """The oracle's transfer radius ``ρ = max|λ|`` of ``sys`` and its
    relative Perron gap, the distance to ``ρ`` of the nearest other
    eigenvalue over ``ρ``, from a dense eigensolve."""
    vals = np.linalg.eigvals(transfer_matrix(sys))
    rho = np.max(np.abs(vals))
    return rho, np.partition(np.abs(vals - rho), 1)[1] / rho


@pytest.mark.parametrize("name", _SPECTRUM_NAMES)
def test_transfer_spectrum_is_the_spectrum_of_the_stored_system(name):
    # the stored system has transfer radius 1, which rho_certificate
    # reads by construction, and its Perron gap is at least perron_gap,
    # against a dense eigensolve of its transfer matrix
    nsys = _normalized(name)
    rho, gap = _dense_radius_and_gap(nsys.system)
    assert nsys.rho_certificate == 1.0
    assert abs(rho - 1.0) < 1e-12
    assert nsys.perron_gap <= gap * (1 + 1e-12)


_CLASS_NAMES = (["ai-%d" % s for s in range(1, 6)]
                + ["bi-%d" % s for s in range(1, 6)]
                + ["aii-%d" % s for s in range(1, 4)] + ["s0"])


def _class_system(name):
    if name == "s0":
        return generate.s0_system()
    kind, seed = name.split("-")
    return getattr(generate, kind + "_instance")(int(seed))


@pytest.mark.parametrize("name", _SPECTRUM_NAMES + _CLASS_NAMES)
def test_perron_root_and_certificate_are_sound(name):
    # against a dense eigensolve of the input's transfer matrix: ρ, read
    # off the scaling of the blocks, to 1e-13, and the certified gap
    # between the decision threshold 10δ and the true gap
    sys = (_class_system(name) if name in _CLASS_NAMES
           else _spectrum_system(name))
    nsys = normalize(sys)
    rho, gap = _dense_radius_and_gap(sys)
    key = max(sys.blocks, key=lambda k: np.abs(sys.blocks[k]).max())
    scale = sys.blocks[key].ravel() / nsys.system.blocks[key].ravel()
    found = np.abs(scale[np.argmax(np.abs(sys.blocks[key]))]) ** 2
    assert abs(found - rho) <= 1e-13 * rho
    assert GAP_FACTOR * DELTA <= nsys.perron_gap <= gap * (1 + 1e-12)


@pytest.mark.parametrize("name", _SPECTRUM_NAMES)
def test_twin_forms_match_adjoint_eigensolve(name):
    nsys = _normalized(name)
    oracle = _adjoint_perron_forms(_spectrum_system(name))
    diff = frob_tuple(tuple(x - y for x, y in zip(nsys.B_hat, oracle)))
    assert diff < 1e-10 * frob_tuple(oracle)
    assert twin(nsys).fix_residual < 1e-12


def _dense_hermitian_basis(dims):
    """The unitary ``Q`` of the Hermitian coordinates, column by column:
    ``E_jj`` at a diagonal position ``(j, l = j)``, ``(E_jl + E_lj)/√2``
    above the diagonal and ``i(E_lj − E_jl)/√2`` below it."""
    side = sum(n * n for n in dims)
    q = np.zeros((side, side), dtype=complex)
    start = 0
    for n in dims:
        for j in range(n):
            for l in range(n):
                col, mirror = start + j * n + l, start + l * n + j
                if j == l:
                    q[col, col] = 1.0
                elif j < l:
                    q[col, col] = q[mirror, col] = np.sqrt(0.5)
                else:
                    q[mirror, col], q[col, col] = (1j * np.sqrt(0.5),
                                                   -1j * np.sqrt(0.5))
        start += n * n
    return q


@pytest.mark.parametrize("name", _SPECTRUM_NAMES)
def test_hermitian_coordinates_match_dense_basis(name):
    sys = _spectrum_system(name)
    t = transfer_matrix(sys)
    q = _dense_hermitian_basis(sys.dims)
    assert np.allclose(q.conj().T @ q, np.eye(len(q)), atol=1e-15)
    dense = q.conj().T @ t @ q
    scale = np.abs(t).max()
    assert np.abs(dense.imag).max() < 1e-14 * scale
    t_h = systems._hermitian_matrix(t.copy(),
                                    systems._hermitian_basis(sys.dims))
    assert t_h.dtype == np.float64
    assert np.abs(t_h - dense.real).max() < 1e-14 * scale
    nsys = _normalized(name)
    for form in (nsys.B, nsys.B_hat):
        for m in form:
            assert np.array_equal(m, m.conj().T)


def test_singular_bordered_matrix_reads_as_reducible(monkeypatch):
    # an exactly singular Newton or bordered matrix leaves the gap
    # undefined; on a simple root of a positive map both Perron vectors
    # are semidefinite forms of positive trace, so no irreducible input
    # reaches this branch
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ValueError, match="^system is not irreducible: "
                       "Perron gap .* form ratios"):
        normalize(generate.random_system(730, k=2, max_dim=3))


def _np_kron_calls(src):
    """``file:line`` of every ``np.kron`` call, and every import of
    ``kron`` from numpy, in the modules under ``src``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            called = (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "kron"
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id in ("np", "numpy"))
            imported = (isinstance(node, ast.ImportFrom)
                        and node.module == "numpy"
                        and "kron" in [a.name for a in node.names])
            if called or imported:
                found.append("%s:%d" % (path.name, node.lineno))
    return found


def test_kron_matches_numpy():
    # bit for bit, on complex blocks of unequal dims and with the real
    # identity factor of the intertwining operator
    rng = np.random.default_rng(0)

    def draw(rows, cols):
        return (rng.standard_normal((rows, cols))
                + 1j * rng.standard_normal((rows, cols)))

    for p_shape, q_shape in (((2, 3), (4, 1)), ((1, 5), (3, 2)),
                             ((3, 3), (3, 3))):
        p, q = draw(*p_shape), draw(*q_shape)
        for x, y in ((p, q), (p, np.eye(4)), (np.eye(2), q), (p, q.T)):
            got, want = systems.kron(x, y), np.kron(x, y)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_package_calls_no_np_kron():
    # np.kron's overhead is several times the product on the small
    # blocks here; systems.kron stands in for it (the test oracles keep
    # np.kron)
    assert _np_kron_calls(Path(systems.__file__).parent) == []
