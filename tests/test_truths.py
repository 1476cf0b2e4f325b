import numpy as np
import pytest

from sievecred import generate_truth, sobolev_norm_sq, truth_to_json

from oracles import truth_from_json, validate_truth


def test_self_similar_magnitudes():
    truth = generate_truth("self_similar", beta=1.0, seed=1)
    # |theta_4| = 4^(-1.5) = 0.125 regardless of sign
    assert abs(truth.coefficients[3]) == pytest.approx(0.125)
    report = validate_truth(truth)
    assert report["in_class"]


def test_sobolev_draw_norm_bound():
    truth = generate_truth("sobolev_draw", beta=1.5, L0=2.0, seed=8)
    norm = sobolev_norm_sq(truth.coefficients, 1.5)
    assert norm == pytest.approx(0.9 * 2.0, rel=1e-12)
    assert norm <= 2.0
    assert validate_truth(truth)["in_class"]


def test_beta_at_most_half_rejected():
    with pytest.raises(ValueError):
        generate_truth("self_similar", beta=0.5)


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        generate_truth("white_noise", beta=1.0)


def test_explicit_passthrough():
    truth = generate_truth("explicit", beta=1.0, coefficients=[0.3, -0.2], family_tag="loglinear")
    assert np.allclose(truth.coefficients, [0.3, -0.2])


def test_histogram_truth_stays_positive():
    truth = generate_truth("self_similar", beta=1.0, seed=2, family_tag="histogram")
    report = validate_truth(truth)
    assert report["density_min"] > 0.05
    assert report["density_max"] < 2.0


def test_histogram_beta_above_one_warns():
    with pytest.warns(UserWarning):
        generate_truth("self_similar", beta=1.5, seed=2, family_tag="histogram")


def test_truth_json_roundtrip(tmp_path):
    truth = generate_truth("sobolev_draw", beta=1.0, seed=5, length=32)
    path = tmp_path / "truth.json"
    truth_to_json(truth, path)
    back = truth_from_json(str(path))
    assert back.family_tag == truth.family_tag
    assert back.generator_tag == truth.generator_tag
    assert np.allclose(back.coefficients, truth.coefficients)
