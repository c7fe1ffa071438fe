"""Numerical bound verification against independent arithmetic.

The Hoeffding bound and the generalization bound are recomputed with mpmath
at 50 digits; the exact majority-vote error with math.comb; the channel
inverse norm with an explicit 2x2 matrix inverse.  The exact majority-vote
error is also checked against a 50-digit mpmath tail, up to the m near 3500
that min_lfs reaches as eps_lambda nears 0.49.
"""
import math

import mpmath
import numpy as np
import pytest

from wsganlab.harness import TheoryGridConfig
from wsganlab.theory import (
    FiniteJoint,
    NoisyChannel,
    TheoryError,
    TheoryInputs,
    TheoryReport,
    apply_channel,
    channel_inf_norm_inverse,
    generalization_bound,
    generalization_bound_entry,
    hellinger_squared,
    hellinger_tv_entry,
    min_lfs,
    min_lfs_entry,
    mv_bound_entry,
    mv_error_bound,
    mv_error_exact,
    random_finite_joint,
    simulate_mv_error,
    tv_distance,
    verify_rcgan_tv_chain,
)

mpmath.mp.dps = 50


# ---------------------------------------------------------------------------
# majority vote


@pytest.mark.parametrize("m,alpha", [(3, 0.1), (7, 0.2), (15, 0.3), (12, 0.25), (1, 0.5)])
def test_hoeffding_bound_against_mpmath(m, alpha):
    oracle = float(mpmath.e ** (-2 * m * mpmath.mpf(alpha) ** 2))
    assert abs(mv_error_bound(m, alpha) - oracle) < 1e-15


def test_mv_bound_edge_cases():
    assert mv_error_bound(0, 0.2) == 1.0
    with pytest.raises(TheoryError):
        mv_error_bound(-1, 0.2)
    with pytest.raises(TheoryError):
        mv_error_bound(3, 0.6)


def comb_tail(m, k, p):
    """P(Bin(m, p) >= k) via math.comb."""
    return sum(math.comb(m, i) * p**i * (1 - p) ** (m - i) for i in range(k, m + 1))


@pytest.mark.parametrize("m,eps", [(1, 0.3), (3, 0.2), (4, 0.2), (7, 0.4), (12, 0.25), (15, 0.1)])
def test_mv_error_exact_against_comb_sum(m, eps):
    # ties count as errors: threshold ceil(m/2) covers the even-m split
    k = math.ceil(m / 2)
    assert abs(mv_error_exact(m, eps) - comb_tail(m, k, eps)) < 1e-12


def mpmath_tail(m, k, p):
    """P(Bin(m, p) >= k) at 50 digits."""
    p = mpmath.mpf(p)
    return sum(mpmath.binomial(m, i) * p**i * (1 - p) ** (m - i) for i in range(k, m + 1))


_GRID = TheoryGridConfig()
_GRID_POINTS = sorted(
    {(m, 0.5 - alpha) for m in _GRID.m_values for alpha in _GRID.alpha_values}
    | {(min_lfs(eps), eps) for eps in _GRID.eps_lambda_values}
)


@pytest.mark.parametrize("m,eps", _GRID_POINTS + [(918, 0.1), (918, 0.48), (3498, 0.4899)])
def test_mv_error_exact_against_mpmath_tail(m, eps):
    # (918, 0.1) underflows eps**k in a float comb sum; m > ~1030 overflows
    # the float conversion of C(m, k); 3498 = min_lfs near the 0.49 cutoff
    oracle = mpmath_tail(m, math.ceil(m / 2), eps)
    assert abs(mpmath.mpf(mv_error_exact(m, eps)) - oracle) <= 1e-12 * oracle


def test_mv_error_exact_zero_noise_is_zero():
    assert [mv_error_exact(m, 0.0) for m in (1, 2, 3, 46, 3498)] == [0.0] * 5


def test_mv_error_exact_monotone_in_m_for_odd():
    vals = [mv_error_exact(m, 0.3) for m in (3, 5, 7, 9, 11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_simulation_close_to_exact():
    m, eps = 7, 0.3
    exact = mv_error_exact(m, eps)
    p_hat, se = simulate_mv_error(m, eps, trials=50_000, seed=4)
    assert abs(p_hat - exact) < 4 * se
    with pytest.raises(TheoryError):
        simulate_mv_error(m, eps, trials=10)


def test_min_lfs_formula_and_minimality():
    for eps in (0.1, 0.2, 0.25, 0.3, 0.4):
        m = min_lfs(eps)
        alpha = 0.5 - eps
        oracle = int(mpmath.ceil(mpmath.log(1 / mpmath.mpf(eps)) / (2 * mpmath.mpf(alpha) ** 2)))
        assert m == oracle
        assert mv_error_bound(m, alpha) <= eps
        if m > 1:
            assert mv_error_bound(m - 1, alpha) > eps
    assert min_lfs(0.25) == 12
    with pytest.raises(TheoryError):
        min_lfs(0.49)
    with pytest.raises(TheoryError):
        min_lfs(0.0)


def test_mv_bound_entry_passes():
    entry = mv_bound_entry(7, 0.2, trials=20_000, seed=1)
    assert entry.passed
    assert "exact" in " ".join(c.name for c in entry.checks)


# ---------------------------------------------------------------------------
# channels and TV


def test_channel_matrix_and_inverse_norm():
    ch = NoisyChannel(0.2)
    M = ch.matrix
    assert np.allclose(M.sum(axis=1), 1.0)
    assert np.allclose(M, [[0.8, 0.2], [0.2, 0.8]])
    inv = np.linalg.inv(M)
    oracle = np.abs(inv).sum(axis=1).max()
    assert abs(channel_inf_norm_inverse(0.2) - oracle) < 1e-12
    assert abs(channel_inf_norm_inverse(0.2) - 1 / 0.6) < 1e-12
    with pytest.raises(TheoryError):
        NoisyChannel(0.5)


def test_finite_joint_validation_and_marginal():
    FiniteJoint(np.array([[0.25, 0.25], [0.25, 0.25]]))
    with pytest.raises(TheoryError):
        FiniteJoint(np.array([[0.6, 0.6], [0.0, 0.0]]))  # sums to 1.2
    with pytest.raises(TheoryError):
        FiniteJoint(np.array([[1.1, -0.1], [0.0, 0.0]]))
    j = FiniteJoint(np.array([[0.1, 0.3], [0.2, 0.4]]))
    assert np.allclose(j.table.sum(axis=1), [0.4, 0.6])


def test_apply_channel_preserves_x_marginal():
    rng = np.random.default_rng(9)
    joint = random_finite_joint(rng, 6)
    noisy = apply_channel(joint, NoisyChannel(0.3))
    assert np.allclose(noisy.table.sum(axis=1), joint.table.sum(axis=1), atol=1e-14)
    assert abs(noisy.table.sum() - 1.0) < 1e-12


def test_tv_distance_hand_values():
    a = FiniteJoint(np.array([[0.5, 0.0], [0.5, 0.0]]))
    b = FiniteJoint(np.array([[0.0, 0.5], [0.0, 0.5]]))
    assert abs(tv_distance(a, b) - 1.0) < 1e-12  # disjoint supports
    assert tv_distance(a, a) == 0.0
    c = FiniteJoint(np.full((3, 2), 1 / 6))
    with pytest.raises(TheoryError):
        tv_distance(a, c)


def test_hellinger_identities():
    a = FiniteJoint(np.array([[0.5, 0.0], [0.5, 0.0]]))
    b = FiniteJoint(np.array([[0.0, 0.5], [0.0, 0.5]]))
    assert abs(hellinger_squared(a, b) - 2.0) < 1e-12  # fully disjoint
    assert hellinger_squared(a, a) == 0.0


def test_rcgan_chain_hand_instance():
    P = FiniteJoint(np.array([[0.4, 0.1], [0.1, 0.4]]))
    Q = FiniteJoint(np.array([[0.25, 0.25], [0.25, 0.25]]))
    entry = verify_rcgan_tv_chain(P, Q, 0.2)
    assert entry.passed
    tv_clean = entry.quantities["tv_clean"]
    tv_noisy = entry.quantities["tv_noisy"]
    assert tv_noisy <= tv_clean <= entry.quantities["multiplier"] * tv_noisy + 1e-12
    with pytest.raises(TheoryError):
        verify_rcgan_tv_chain(P, Q, 0.5)


def test_rcgan_chain_with_mv_multipliers():
    P = FiniteJoint(np.array([[0.4, 0.1], [0.1, 0.4]]))
    Q = FiniteJoint(np.array([[0.25, 0.25], [0.25, 0.25]]))
    m = min_lfs(0.25)
    entry = verify_rcgan_tv_chain(P, Q, 0.2, with_mv=(m, 0.25))
    assert entry.passed
    names = [c.name for c in entry.checks]
    assert any("Hoeffding multiplier <= single-LF multiplier" in n for n in names)
    # degenerate committee: eps_MV >= 1/2 must refuse, not silently pass
    with pytest.raises(TheoryError):
        verify_rcgan_tv_chain(P, Q, 0.2, with_mv=(2, 0.4))


def test_rcgan_chain_random_sweep():
    rng = np.random.default_rng(12)
    for _ in range(30):
        support = int(rng.integers(2, 16))
        P = random_finite_joint(rng, support)
        Q = random_finite_joint(rng, support)
        for eps in (0.05, 0.25, 0.45):
            assert verify_rcgan_tv_chain(P, Q, eps).passed


def test_hellinger_tv_entry_zero_chain_violations():
    entry = hellinger_tv_entry(num_pairs=200, max_support=16, seed=7)
    assert entry.passed
    assert entry.quantities["violations_chain_lower"] == 0
    assert entry.quantities["violations_chain_upper"] == 0
    assert "reading" in entry.notes


# ---------------------------------------------------------------------------
# generalization bound


def test_generalization_bound_against_mpmath():
    inputs = TheoryInputs()
    r = mpmath.mpf("0.05")
    oracle = (
        2 * r
        + mpmath.sqrt(mpmath.log(1 / mpmath.mpf("0.05")) / (2 * 1000))
        + (4 * 1 * 4 * 2**2 / mpmath.mpf(10_000)) ** mpmath.mpf("0.25")
        + mpmath.sqrt(2) * mpmath.e ** (-12 * mpmath.mpf("0.25") ** 2)
    )
    assert abs(generalization_bound(inputs) - float(oracle)) < 1e-14


def test_generalization_bound_monotonicities():
    base = TheoryInputs()
    v = generalization_bound(base)
    import dataclasses

    assert generalization_bound(dataclasses.replace(base, n1=40_000)) < v
    assert generalization_bound(dataclasses.replace(base, n2=4000)) < v
    assert generalization_bound(dataclasses.replace(base, m=24)) < v
    assert generalization_bound(dataclasses.replace(base, rademacher=0.1)) > v


def test_theory_inputs_validation():
    with pytest.raises(TheoryError):
        TheoryInputs(delta=0.0)
    with pytest.raises(TheoryError):
        TheoryInputs(c_g=0.0)


def test_entry_and_report_plumbing():
    entry = min_lfs_entry(0.25)
    assert entry.passed
    report = TheoryReport()
    report.add(entry)
    report.add_rejected("min_lfs", {"eps_lambda": 0.49}, "out of range")
    assert report.passed  # rejected inputs are reported, not failed
    text = report.to_text()
    assert "[PASS]" in text and "rejected_input" in text


def test_report_json_roundtrip(tmp_path):
    report = TheoryReport()
    report.add(mv_bound_entry(3, 0.2, trials=2000, seed=0))
    path = report.save_json(tmp_path / "r.json")
    import json

    with open(path) as fh:
        data = json.load(fh)
    assert data["passed"] is True
    assert data["entries"][0]["kind"] == "mv_bound"
