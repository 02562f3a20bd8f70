"""Acceptance gate: one test per release criterion.

Each criterion is a single test function, so ``pytest -v`` prints one
pass/fail line per criterion.  Expensive artifacts (the 50-system
portfolio, the intertwiner suites, the sphere-sum bank) are built once
in module fixtures and shared.
"""

import itertools
import time

import numpy as np
import pytest

from freerep import generate
from freerep.cli import DEFAULT_NMAX
from freerep.functions import first_shell, norm
from freerep.intertwiner import (
    _commutation_residual,
    _pair_operator_matrix,
    _pair_parts,
    build_J,
    closed_inverse_residual,
    finite_rank_check,
    split,
    verify_isometry_and_intertwining,
)
from freerep.series import exponent_fit, haagerup_violations, sphere_sums
from freerep.spectral import classify
from freerep.systems import normalize, transfer_matrix
from freerep.twin import solve_equivalence, twin_system

AI_SEEDS = (1, 2, 3, 4, 5)
BI_SEEDS = (1, 2, 3, 4, 5)
AII_SEEDS = (1, 2, 3)

# 25 systems on two generators, 25 on three, dims capped at 3
PORTFOLIO = tuple((seed, 2 if seed < 25 else 3) for seed in range(50))


def unit_edge(nsys):
    """Unit-norm first-shell vector supported on letter 0."""
    v = np.zeros(nsys.dims[0])
    v[0] = 1.0
    f = first_shell(nsys, {0: v})
    return first_shell(nsys, {0: v / norm(f)})


@pytest.fixture(scope="module")
def portfolio():
    raws = [generate.random_system(seed, k=k, max_dim=3)
            for seed, k in PORTFOLIO]
    start = time.perf_counter()
    normed = [normalize(raw) for raw in raws]
    elapsed = time.perf_counter() - start
    return elapsed, normed


@pytest.fixture(scope="module")
def portfolio_reports(portfolio):
    _, normed = portfolio
    return [classify(nsys) for nsys in normed]


@pytest.fixture(scope="module")
def ai_suite():
    suite = []
    for seed in AI_SEEDS:
        rep = classify(normalize(generate.ai_instance(seed)))
        assert rep.class_label == "AI", (seed, rep.class_label)
        suite.append((seed, rep, build_J(rep)))
    return suite


@pytest.fixture(scope="module")
def bi_suite():
    suite = []
    for seed in BI_SEEDS:
        rep = classify(normalize(generate.bi_instance(seed)))
        assert rep.class_label == "BI", (seed, rep.class_label)
        suite.append((seed, rep, build_J(rep)))
    return suite


@pytest.fixture(scope="module")
def aii_reports():
    reps = []
    for seed in AII_SEEDS:
        rep = classify(normalize(generate.aii_instance(seed)))
        assert rep.class_label == "AII", (seed, rep.class_label)
        reps.append(rep)
    return reps


@pytest.fixture(scope="module")
def endpoint():
    """Timed endpoint run: classification plus sphere sums at nmax 12."""
    start = time.perf_counter()
    nsys = normalize(generate.s0_system())
    rep = classify(nsys)
    v = unit_edge(nsys)
    series = sphere_sums(v, v, 12)
    elapsed = time.perf_counter() - start
    return elapsed, rep, series


@pytest.fixture(scope="module")
def series_bank(ai_suite, bi_suite, aii_reports, endpoint):
    """Every class instance's sphere-sum series at the CLI's default
    horizon, with its prediction."""
    named = [("%s-%d" % (label, seed), rep)
             for label, suite in (("ai", ai_suite), ("bi", bi_suite))
             for seed, rep, _ in suite]
    named += [("aii-%d" % seed, rep)
              for seed, rep in zip(AII_SEEDS, aii_reports)]
    named.append(("endpoint", endpoint[1]))
    bank = []
    for name, rep in named:
        v = unit_edge(rep.package.original)
        bank.append((name, sphere_sums(v, v, DEFAULT_NMAX),
                     rep.predicted_exponent))
    return bank


def test_criterion_01_normalization(portfolio):
    elapsed, normed = portfolio
    assert len(normed) == 50
    # the radius normalize certified, against a dense eigensolve of the
    # stored system
    worst_rho = max(abs(np.max(np.abs(np.linalg.eigvals(
        transfer_matrix(n.system)))) - 1.0) for n in normed)
    min_eig = min(n.b_min_eig for n in normed)
    worst_fix = max(n.fix_residual for n in normed)
    print("criterion 1: rho dev %.2e, min B eig %.2e, compat %.2e, %.2f s"
          % (worst_rho, min_eig, worst_fix, elapsed))
    assert worst_rho <= 1e-8
    assert min_eig > 0
    assert worst_fix < 1e-10
    assert elapsed < 10.0


def test_criterion_02_twin_involution(portfolio):
    _, normed = portfolio
    worst = 0.0
    for nsys in normed:
        double = normalize(twin_system(twin_system(nsys.system)))
        eq = solve_equivalence(nsys, double)
        assert eq.status == "equivalent", eq.diagnostic
        assert eq.K is not None
        worst = max(worst, eq.residual)
    print("criterion 2: 50/50 equivalent, worst K residual %.2e" % worst)


def test_criterion_03_multiplicity_dichotomy(portfolio, portfolio_reports):
    _, normed = portfolio
    for nsys, rep in zip(normed, portfolio_reports):
        eq = solve_equivalence(nsys, normalize(twin_system(nsys.system)))
        assert eq.status in ("equivalent", "inequivalent"), eq.diagnostic
        expected = 4 if eq.status == "equivalent" else 2
        assert rep.mult_one == expected, (eq.status, rep.mult_one)
    print("criterion 3: mult_one matches twin equivalence on 50/50")


def test_criterion_04_endpoint_example(endpoint):
    elapsed, rep, series = endpoint
    assert rep.package.equivalent is True
    assert rep.dim_one == 2
    assert rep.class_label == "BII"
    assert rep.predicted_exponent == 3
    assert series.cutoff is False
    assert series.s[0] == pytest.approx(1.0, abs=1e-12)
    assert series.s[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    fit = exponent_fit(series)
    print("criterion 4: BII, p_hat %.3f, s1 %.15f, %.1f s"
          % (fit.p_hat, series.s[1], elapsed))
    assert 2.7 <= fit.p_hat <= 3.3
    assert elapsed < 60.0


def test_criterion_05_q_identity(ai_suite, bi_suite, aii_reports,
                                 portfolio_reports, endpoint):
    worst_q = worst_anti = 0.0
    for _, rep, _ in ai_suite + bi_suite:
        assert rep.Q is not None
        worst_q = max(worst_q, rep.q_residual)
        worst_anti = max(worst_anti, rep.Q.antisymmetry_residual)
    min_reject = np.inf
    rejected = list(aii_reports) + [endpoint[1]]
    rejected += [r for r in portfolio_reports
                 if r.class_label in ("AII", "BII")]
    for rep in rejected:
        assert rep.Q is None
        min_reject = min(min_reject, rep.q_residual)
    print("criterion 5: accept %.2e / anti %.2e on %d, reject >= %.2e on %d"
          % (worst_q, worst_anti, len(ai_suite) + len(bi_suite),
             min_reject, len(rejected)))
    assert worst_q < 1e-9
    assert worst_anti < 1e-9
    assert min_reject > 1e-3


def test_criterion_06_intertwiner_suite(ai_suite, bi_suite):
    assert len(ai_suite) >= 5 and len(bi_suite) >= 5
    worst_inv = worst_gram = worst_int = worst_fin = 0.0
    for _, _, J in ai_suite + bi_suite:
        worst_inv = max(worst_inv, closed_inverse_residual(J))
        iso = verify_isometry_and_intertwining(J, depth=3, word_max=4)
        worst_gram = max(worst_gram, max(iso.gram_residuals))
        worst_int = max(worst_int, iso.intertwine_residual)
        worst_fin = max(worst_fin, iso.fin_residual)
    print("criterion 6: inverse %.2e, isometry %.2e, intertwine %.2e, "
          "words %.2e" % (worst_inv, worst_gram, worst_int, worst_fin))
    assert worst_inv < 1e-9
    assert worst_gram < 1e-8
    assert worst_int < 1e-8
    assert worst_fin < 1e-10


def test_criterion_07_splitting_suite(bi_suite):
    worst_uni = worst_proj = worst_comm = 0.0
    for seed, _, J in bi_suite:
        sp = split(J)
        assert sp.diagnostics == [], (seed, sp.diagnostics)
        assert abs(sp.c) < 2.0
        worst_uni = max(worst_uni, sp.unimodularity)
        worst_proj = max(worst_proj, sp.idempotency, sp.orthogonality,
                         sp.completeness)
        # split certifies W_0 → W_1; W_2 → W_3 is the oracle
        nsys = J.pkg.original
        same, flip = _pair_parts(nsys, sp.p_plus)
        deep = _commutation_residual(nsys, nsys, 2, *(
            _pair_operator_matrix(nsys, nsys, n, same, flip) for n in (2, 3)))
        worst_comm = max(worst_comm, sp.commutation_residual, deep)
    print("criterion 7: unimodular %.2e, projections %.2e, commutation %.2e"
          % (worst_uni, worst_proj, worst_comm))
    assert worst_uni < 1e-9
    assert worst_proj < 1e-9
    assert worst_comm < 1e-8


def test_criterion_08_finite_rank(ai_suite, bi_suite):
    checked = 0
    for seed, rep, J in ai_suite + bi_suite:
        letters = rep.package.original.alphabet.letters
        caps = J.pkg.twin.dims
        for a, b in itertools.permutations(letters, 2):
            fr = finite_rank_check(J, a, b, nmax=6)
            tail = fr.ranks[1:]  # n = 2..6
            assert len(set(tail)) == 1, (seed, a, b, fr.ranks)
            assert tail[0] <= caps[b], (seed, a, b, fr.ranks, caps[b])
            checked += 1
    print("criterion 8: rank constant and capped on %d letter pairs"
          % checked)


def test_criterion_09_haagerup_bound(series_bank):
    for name, series, _ in series_bank:
        assert haagerup_violations(series) == [], name
    print("criterion 9: hard bound holds on %d series" % len(series_bank))


def test_criterion_10_exponent_agreement(series_bank):
    worst = 0.0
    fitted = 0
    for name, series, predicted in series_bank:
        assert not series.cutoff and series.nmax == DEFAULT_NMAX, name
        fitted += 1
        fit = exponent_fit(series)
        gap = abs(fit.p_hat - predicted)
        worst = max(worst, gap)
        assert gap <= 0.3, (name, fit.p_hat, predicted)
    assert fitted >= 14
    print("criterion 10: worst |p_hat - predicted| = %.3f on %d fits"
          % (worst, fitted))
