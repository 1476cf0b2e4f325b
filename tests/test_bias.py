import numpy as np
import pytest

from sievecred import (
    BiasProfile,
    PolishedTailParams,
    bias_profile,
    check_polished_tail,
    generate_truth,
    make_family,
    tradeoff_set,
)
from sievecred.bias import ZERO_BIAS_TOL, polished_tail_verdict

from oracles import l2_bias_profile


def _power_law_coeffs(exponent, length=4096):
    i = np.arange(1, length + 1, dtype=float)
    return i**exponent


# ---------------------------------------------------------------------------
# b(k) and k_n


def test_finite_support_truth_has_zero_tail_bias(reg500):
    truth = generate_truth("explicit", beta=1.0, coefficients=[1.0, 0.5, 0.2, 0.1, 0.05])
    profile = bias_profile(truth, reg500, k_max=10, n=500)
    for k in range(5, 11):
        assert profile.values[k] == pytest.approx(0.0, abs=1e-20)
    assert profile.k_n is not None and profile.k_n <= 5


def test_project_free_function(reg500):
    truth = generate_truth("explicit", beta=1.0, coefficients=[1.0, 0.5, 0.2])
    assert np.allclose(reg500.project(truth, 2), [1.0, 0.5], atol=1e-10)


def test_kn_direct_scan_oracle_power_law():
    coeffs = _power_law_coeffs(-1.5)
    n = 1000
    profile = l2_bias_profile(coeffs, n=n, k_max=50)
    # independent oracle: re-scan b(k) <= k log n / n from scratch
    sq = coeffs**2
    oracle = None
    for k in range(1, 51):
        b_k = sq[k:].sum()
        assert profile.values[k] == pytest.approx(b_k, rel=1e-12)
        if oracle is None and b_k <= k * np.log(n) / n:
            oracle = k
    assert profile.k_n == oracle
    assert profile.values[profile.k_n] <= profile.k_n * np.log(n) / n


def test_zero_truth_bias(reg500):
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.0])
    profile = bias_profile(truth, reg500, k_max=6, n=500)
    assert all(v == pytest.approx(0.0, abs=1e-20) for v in profile.values.values())
    assert profile.k_n == 1


def test_beyond_range_flagged():
    profile = l2_bias_profile([10.0, 10.0, 10.0], n=10, k_max=2)
    assert profile.beyond_range and profile.k_n is None
    with pytest.raises(ValueError):
        tradeoff_set(profile, 2.0)


def test_k_zero_not_allowed():
    with pytest.raises(ValueError):
        BiasProfile(values={0: 1.0}, n=10, k_max=1)


def test_nested_families_bias_non_increasing(reg500, loglin_family, classif500):
    for fam in (reg500, loglin_family, classif500):
        truth = generate_truth("self_similar", beta=1.0, seed=23, family_tag=fam.tag)
        profile = bias_profile(truth, fam, k_max=10, n=500)
        values = [profile.values[k] for k in range(1, 11)]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))


def test_histogram_bias_non_increasing_along_dyadic(hist_family):
    truth = generate_truth("self_similar", beta=1.0, seed=23, family_tag="histogram")
    profile = bias_profile(truth, hist_family, k_max=16, n=500)
    dyadic = [profile.values[k] for k in (1, 2, 4, 8, 16)]
    assert all(a >= b - 1e-12 for a, b in zip(dyadic, dyadic[1:]))


def test_profile_csv_and_json(tmp_path):
    profile = l2_bias_profile(_power_law_coeffs(-1.5), n=1000, k_max=5)
    csv_path = tmp_path / "bias.csv"
    profile.to_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,b_k,eps2_k"
    assert len(lines) == 6
    k, b_k, eps2 = lines[1].split(",")
    assert int(k) == 1
    assert float(eps2) == pytest.approx(float(b_k) + np.log(1000) / 1000)
    payload = profile.to_json()
    assert '"k_n"' in payload


# ---------------------------------------------------------------------------
# trade-off set


def test_tradeoff_contains_kn():
    profile = l2_bias_profile(_power_law_coeffs(-1.5), n=1000, k_max=60)
    assert profile.k_n in tradeoff_set(profile, 1.0)


def test_tradeoff_pure_penalty_case():
    profile = l2_bias_profile([0.0], n=100, k_max=20)
    assert profile.k_n == 1
    assert tradeoff_set(profile, 2.0) == {1, 2, 3, 4}


def test_tradeoff_exhaustive_scan_oracle():
    n = 1000
    profile = l2_bias_profile(_power_law_coeffs(-1.5), n=n, k_max=80)
    got = tradeoff_set(profile, 2.0)
    bound = 4.0 * (profile.values[profile.k_n] + profile.k_n * np.log(n) / n)
    oracle = {
        k for k in range(1, 81) if profile.values[k] + k * np.log(n) / n <= bound
    }
    assert got == oracle
    assert len(got) > 1


def test_tradeoff_lemma_bound_on_random_profiles(rng):
    # every member satisfies k <= 2 M^2 k_n
    for _ in range(20):
        raw = np.sort(rng.gamma(1.0, 1.0, size=120))[::-1] * rng.uniform(0.01, 10)
        n = int(rng.integers(50, 5000))
        profile = BiasProfile(values={k + 1: raw[k] for k in range(120)}, n=n, k_max=120)
        if profile.k_n is None:
            continue
        for M in (1.0, 2.0, 4.0):
            members = tradeoff_set(profile, M)
            assert all(k <= 2 * M**2 * profile.k_n for k in members)


def test_eps_minimizer_lies_in_unit_tradeoff_set(rng):
    for _ in range(10):
        raw = np.sort(rng.uniform(0, 1, size=60))[::-1]
        profile = BiasProfile(values={k + 1: raw[k] for k in range(60)}, n=400, k_max=60)
        if profile.k_n is None:
            continue
        ks = sorted(profile.values)
        argmin = min(ks, key=profile.eps2)
        assert argmin in tradeoff_set(profile, 1.0)


# ---------------------------------------------------------------------------
# polished tail


def test_polished_tail_geometric_bias():
    rho = 0.5
    values = {k: 10.0 * rho**k for k in range(1, 17)}
    profile = BiasProfile(values=values, n=1000, k_max=16)
    assert profile.k_n == 8
    params = PolishedTailParams(r0=2, k0=2, tau=rho ** ((2 - 1) * 2))
    assert check_polished_tail(profile, params).holds
    report = check_polished_tail(profile, PolishedTailParams(r0=2, k0=2, tau=0.2))
    assert not report.holds
    assert report.first_violation == 2  # the ratio rho^k is largest at the smallest k


def test_polished_tail_plateau_construction_fails():
    # support on {1, 4, 16, 64, 256}: b(2k) = b(k) exactly on plateau interiors
    coeffs = np.zeros(300)
    for idx, val in zip([1, 4, 16, 64, 256], [1.0, 0.5, 0.25, 0.125, 0.0625]):
        coeffs[idx - 1] = val
    profile = l2_bias_profile(coeffs, n=10**6, k_max=600)
    assert profile.k_n == 256
    report = check_polished_tail(profile, PolishedTailParams(r0=2, k0=2, tau=0.99))
    assert not report.holds
    # independent enumeration of the first k with b(2k) > tau b(k)
    oracle = None
    for k in range(2, profile.k_n + 1):
        if profile.values[k] > 0 and profile.values[2 * k] > 0.99 * profile.values[k]:
            oracle = k
            break
    assert report.first_violation == oracle == 4


def test_polished_tail_zero_bias_vacuous():
    values = {k: (0.5 if k < 3 else 0.0) for k in range(1, 13)}
    profile = BiasProfile(values=values, n=1000, k_max=12)
    assert check_polished_tail(profile, PolishedTailParams(r0=2, k0=3, tau=0.1)).holds


@pytest.mark.parametrize("tag", ["regression", "loglinear", "classification"])
def test_polished_tail_of_a_truth_inside_the_sieve_holds_at_every_n(tag):
    # b(k) beyond the truth's length is rounding noise (1e-32 to 1e-18), read as 0.0,
    # so the zero-bias terms pass vacuously whatever n is
    params = PolishedTailParams()
    for n in (500, 2000, 8000):
        fam = make_family(tag, n=n)
        for coefficients in ([0.5, -0.3, 0.2], [0.5, -0.3, 0.2, 0.1]):
            truth = generate_truth("explicit", beta=1.0, coefficients=coefficients,
                                   family_tag=tag)
            profile = bias_profile(truth, fam, k_max=8, n=n)
            assert all(profile.values[k] == 0.0 for k in range(len(coefficients), 9))
            verdict = polished_tail_verdict(truth, fam, profile, params)
            assert verdict == {"holds": True, "first_violation": None}, (n, coefficients)
        # a truth outside every sieve is far above the tolerance; its verdict is the hand scan's
        truth = generate_truth("self_similar", beta=1.0, seed=5, family_tag=tag)
        profile = bias_profile(truth, fam, k_max=16, n=n)
        raw = {k: fam.bias_sq(truth, k) for k in range(1, 17)}
        assert all(profile.values[k] == raw[k] > ZERO_BIAS_TOL for k in raw)
        first = next((k for k in range(params.k0, profile.k_n + 1)
                      if raw[k * params.r0] > params.tau * raw[k]), None)
        assert polished_tail_verdict(truth, fam, profile, params) == {
            "holds": first is None, "first_violation": first}


def test_polished_tail_range_error():
    profile = l2_bias_profile(_power_law_coeffs(-1.5), n=1000, k_max=7)
    assert profile.k_n == 4
    with pytest.raises(ValueError):
        check_polished_tail(profile, PolishedTailParams(r0=2, k0=2, tau=0.5))


def test_polished_tail_self_similar_hand_ratio_cross_check():
    # verdicts must agree with the hand ratio scan b(2k)/b(k), k0 <= k <= k_n
    coeffs = _power_law_coeffs(-1.5)
    profile = l2_bias_profile(coeffs, n=1000, k_max=40)
    hand = {}
    for k in range(2, profile.k_n + 1):
        hand[k] = profile.values[2 * k] / profile.values[k]
    worst = max(hand.values())
    # at desk scale the ratios sit above the asymptotic 2^(-2 beta) = 0.25
    assert 0.25 < worst < 0.35
    loose = check_polished_tail(profile, PolishedTailParams(r0=2, k0=2, tau=worst + 0.01))
    assert loose.holds
    tight = check_polished_tail(profile, PolishedTailParams(r0=2, k0=2, tau=worst - 0.01))
    assert not tight.holds
    assert tight.first_violation == max(hand, key=hand.get)
