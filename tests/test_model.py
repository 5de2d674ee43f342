import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treekt import Difficulty, Parameters, default_parameters, emission_prob, transition_prob
from treekt.model import (
    DEFAULT_EPSILON,
    DEFAULT_GAMMA,
    DEFAULT_R_EASY,
    DEFAULT_R_HARD,
    DEFAULT_R_MED,
    EPSILON_CAP,
    PARAM_FLOOR,
    ParameterError,
    clamp_probability,
    ordering_satisfied,
)

from conftest import chain_tree, random_parameters

prob = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def make_params(**overrides):
    base = dict(
        gamma={"n0": 0.1, "n1": 0.3},
        r_easy=0.9,
        r_med=0.8,
        r_hard=0.75,
        epsilon=0.1,
    )
    base.update(overrides)
    return Parameters(**base)


class TestParameters:
    def test_defaults(self):
        params = default_parameters(chain_tree(3))
        assert all(g == DEFAULT_GAMMA for g in params.gamma.values())
        assert params.r_easy == DEFAULT_R_EASY
        assert params.r_med == DEFAULT_R_MED
        assert params.r_hard == DEFAULT_R_HARD
        assert params.epsilon == DEFAULT_EPSILON
        assert ordering_satisfied(params)

    def test_gamma_is_read_only(self):
        params = make_params()
        with pytest.raises(TypeError):
            params.gamma["n0"] = 0.5

    def test_gamma_of_unknown_node(self):
        with pytest.raises(KeyError, match="unknown node"):
            make_params().gamma_of("missing")

    def test_phi_dispatch(self):
        params = make_params()
        assert params.phi(Difficulty.EASY) == params.r_easy
        assert params.phi(Difficulty.MEDIUM) == params.r_med
        assert params.phi(Difficulty.HARD) == params.r_hard

    def test_phi_looks_a_difficulty_up_by_value(self):
        params = make_params()
        for d in Difficulty:
            assert params.phi(d.value) == params.phi(d)
        with pytest.raises(ValueError, match="difficulty must be a Difficulty, got 'weird'"):
            params.phi("weird")

    def test_json_roundtrip_is_lossless(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            params = random_parameters(chain_tree(4), rng)
            back = Parameters.from_json(params.to_json())
            assert back == params
            assert dict(back.gamma) == dict(params.gamma)

    def test_with_gamma_returns_new_instance(self):
        params = make_params()
        updated = params.with_gamma({"n0": 0.4, "n1": 0.6})
        assert params.gamma["n0"] == 0.1
        assert updated.gamma["n0"] == 0.4
        assert updated.r_easy == params.r_easy

    @pytest.mark.parametrize("name, value, message", [
        ("gamma", 1.0, "gamma of node 'n1' is 1.0, outside (0, 1)"),
        ("r_hard", float("nan"), "r_hard is nan, outside (0, 1)"),
        ("epsilon", 0.0, "epsilon is 0.0, outside (0, 1)"),
    ])
    def test_out_of_range_rejected_at_construction(self, name, value, message):
        fields = dict(gamma={"n0": 0.1, "n1": 0.3}, r_easy=0.9, r_med=0.8,
                      r_hard=0.7, epsilon=0.1)
        if name == "gamma":
            fields["gamma"] = {"n0": 0.1, "n1": value}
        else:
            fields[name] = value
        with pytest.raises(ParameterError) as exc:
            Parameters(**fields)
        assert str(exc.value) == message
        doc = json.dumps(fields)  # NaN is written as the JSON extension NaN
        with pytest.raises(ParameterError) as exc:
            Parameters.from_json(doc)
        assert str(exc.value) == message


class TestOrdering:
    def test_violation_detected(self):
        assert not ordering_satisfied(make_params(epsilon=0.76))
        assert not ordering_satisfied(make_params(r_hard=0.85))

    def test_defaults_are_ordered(self):
        assert DEFAULT_EPSILON < DEFAULT_R_HARD < DEFAULT_R_MED < DEFAULT_R_EASY
        assert ordering_satisfied(default_parameters(chain_tree(3)))


class TestClamp:
    def test_floor_and_ceiling(self):
        assert clamp_probability(0.0) == PARAM_FLOOR
        assert clamp_probability(1.0) == 1.0 - PARAM_FLOOR
        assert clamp_probability(-5.0) == PARAM_FLOOR

    @given(prob)
    def test_interior_unchanged(self, p):
        assert clamp_probability(p) == p

    def test_epsilon_cap_below_point_five(self):
        assert EPSILON_CAP == 0.3


class TestTransition:
    def test_mastered_parent_entails_mastery(self):
        params = make_params()
        assert transition_prob(params, "n1", 1, 1) == 1.0
        assert transition_prob(params, "n1", 0, 1) == 0.0

    def test_unmastered_parent_uses_gamma(self):
        params = make_params()
        assert transition_prob(params, "n1", 1, 0) == 0.3
        assert transition_prob(params, "n1", 0, 0) == pytest.approx(0.7)

    def test_root_prior(self):
        params = make_params()
        assert transition_prob(params, "n0", 1, None) == 0.1

    @given(prob, st.sampled_from([None, 0, 1]))
    def test_rows_normalize(self, gamma, parent_state):
        params = make_params(gamma={"n0": gamma})
        total = sum(
            transition_prob(params, "n0", k, parent_state) for k in (0, 1)
        )
        assert total == pytest.approx(1.0)


class TestEmission:
    def test_mastered_uses_difficulty_rate(self):
        params = make_params()
        assert emission_prob(params, Difficulty.EASY, 1, 1) == 0.9
        assert emission_prob(params, Difficulty.HARD, 0, 1) == pytest.approx(0.25)

    def test_unmastered_uses_guess_rate(self):
        params = make_params()
        for d in Difficulty:
            assert emission_prob(params, d, 1, 0) == 0.1
            assert emission_prob(params, d, 0, 0) == pytest.approx(0.9)

    def test_difficulty_by_value(self):
        params = make_params()
        for d in Difficulty:
            for correct in (0, 1):
                for mastery in (0, 1):
                    assert (emission_prob(params, d.value, correct, mastery)
                            == emission_prob(params, d, correct, mastery))
        for mastery in (0, 1):
            with pytest.raises(ValueError, match="got 'weird'"):
                emission_prob(params, "weird", 1, mastery)

    @given(prob, prob, prob, prob, st.sampled_from(list(Difficulty)),
           st.sampled_from([0, 1]))
    def test_rows_normalize(self, re, rm, rh, eps, difficulty, mastery):
        params = make_params(r_easy=re, r_med=rm, r_hard=rh, epsilon=eps)
        total = sum(
            emission_prob(params, difficulty, c, mastery) for c in (0, 1)
        )
        assert total == pytest.approx(1.0)
