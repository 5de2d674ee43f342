import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import treekt
from treekt import (
    Difficulty,
    Interaction,
    observation_set,
    sample_response,
    sample_states,
)
from treekt.simulate import (
    ENUMERATION_LIMIT,
    SimConfig,
    brute_force_posteriors,
    derive_seed,
    expected_correctness,
    generate_classroom,
    random_question_bank,
    random_tree,
)
from treekt.model import emission_prob, transition_prob
from treekt.tree import QuestionMeta, validate_tree

from conftest import chain_tree, random_instance, random_parameters, star_tree


class TestSimConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(n_students=-1)
        with pytest.raises(ValueError):
            SimConfig(ability_std=0.0)


class TestSampling:
    def test_states_respect_entailment(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(2, 15)))
            params = random_parameters(tree, rng)
            states = sample_states(tree, params, rng)
            for node in tree.nodes:
                if states[node] == 1:
                    for child in tree.children(node):
                        assert states[child] == 1

    def test_state_frequencies_match_prior(self):
        # Chain of two nodes: P(child)=g0 + (1-g0)*g1.
        tree = chain_tree(2)
        params = random_parameters(tree, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        n = 20000
        hits_root = hits_child = 0
        for _ in range(n):
            states = sample_states(tree, params, rng)
            hits_root += states["n0"]
            hits_child += states["n1"]
        g0 = params.gamma_of("n0")
        g1 = params.gamma_of("n1")
        assert hits_root / n == pytest.approx(g0, abs=0.02)
        assert hits_child / n == pytest.approx(g0 + (1 - g0) * g1, abs=0.02)

    def test_response_rates(self):
        tree = star_tree(1)
        params = random_parameters(tree, np.random.default_rng(3))
        q = QuestionMeta("q", "l0", Difficulty.MEDIUM)
        rng = np.random.default_rng(4)
        n = 20000
        mastered = sum(
            sample_response(params, q, {"l0": 1}, rng) for _ in range(n)
        )
        unmastered = sum(
            sample_response(params, q, {"l0": 0}, rng) for _ in range(n)
        )
        assert mastered / n == pytest.approx(params.r_med, abs=0.02)
        assert unmastered / n == pytest.approx(params.epsilon, abs=0.02)

    def test_expected_correctness(self):
        tree = star_tree(2)
        params = random_parameters(tree, np.random.default_rng(5))
        bank = [
            QuestionMeta("a", "l0", Difficulty.EASY),
            QuestionMeta("b", "l1", Difficulty.HARD),
        ]
        value = expected_correctness(params, {"l0": 1, "l1": 0}, bank)
        assert value == pytest.approx((params.r_easy + params.epsilon) / 2)


class TestDerivedSeeds:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "s001") == derive_seed(7, "s001")
        assert derive_seed(7, "s001") != derive_seed(7, "s002")
        assert derive_seed(7, "s001") != derive_seed(8, "s001")

    def test_values_are_pinned(self):
        # Simulated streams, the benchmark's inputs among them, follow these.
        assert derive_seed(7, "s001") == 14136917117731390160
        assert derive_seed(0, "s000") == 16809736255235744406

    @staticmethod
    def run_child(code: str, cwd=None) -> list[str]:
        """Run code in a child Python that imports this checkout's treekt."""
        src = str(Path(treekt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_importing_the_cli_leaves_the_simulator_and_hashlib_unloaded(self):
        # Fitting and scoring never simulate, so the CLI imports simulate in
        # the commands that do. hashlib loads OpenSSL; only derive_seed
        # needs it, and imports it when called. The per-student view is
        # loaded on first use too.
        assert self.run_child(
            "import sys, treekt.cli; "
            "print('treekt.simulate' in sys.modules, 'treekt.view' in sys.modules); "
            "import treekt.simulate; print('hashlib' in sys.modules)"
        ) == ["False", "False", "False"]

    def test_only_oracle_check_loads_the_view(self, tmp_path):
        # simulate, fit, eval and validate-tree run the array core alone.
        out = self.run_child(textwrap.dedent("""
            import sys
            from treekt.cli import main
            inputs = ["--tree", "sim/tree.json", "--stream", "sim/stream.jsonl"]
            for argv in (["simulate", "--nodes", "5", "--students", "4",
                          "--interactions", "6", "--out", "sim"],
                         ["fit", *inputs, "--out", "fit", "--max-iters", "3"],
                         ["eval", *inputs, "--out", "eval", "--burn-in", "2", "--max-iters", "3"],
                         ["validate-tree", "--tree", "sim/tree.json"]):
                assert main(argv) == 0, argv
            print("view=%s" % ("treekt.view" in sys.modules))
            assert main(["oracle-check", "--instances", "1"]) == 0
            print("view=%s" % ("treekt.view" in sys.modules))
        """), cwd=tmp_path)
        assert [word for word in out if word.startswith("view=")] == ["view=False", "view=True"]

    def test_package_serves_simulator_names(self):
        assert treekt.random_tree is random_tree
        assert treekt.SimConfig is SimConfig
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            treekt.nonexistent


class TestGenerateClassroom:
    def make(self, seed=0, **overrides):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 8)
        params = random_parameters(tree, rng)
        bank = random_question_bank(rng, tree, per_leaf=2)
        config = SimConfig(n_students=10, n_interactions=15, seed=seed, **overrides)
        return tree, params, bank, config

    def test_shape_and_interleaving(self):
        tree, params, bank, config = self.make()
        stream, truth = generate_classroom(tree, params, bank, config)
        assert len(stream) == 10 * 15
        # Round-robin: sorted by per-student step, students sorted inside.
        for i, rec in enumerate(stream):
            assert rec.seq == i // 10
        assert len(truth.states) == 10
        assert set(truth.states) == {r.student_id for r in stream}

    def test_reproducible(self):
        tree, params, bank, config = self.make(seed=3)
        a, ta = generate_classroom(tree, params, bank, config)
        b, tb = generate_classroom(tree, params, bank, config)
        assert a == b
        assert ta.states == tb.states

    def test_states_static_and_consistent_with_responses(self):
        tree, params, bank, config = self.make(seed=4)
        stream, truth = generate_classroom(tree, params, bank, config)
        for sid, states in truth.states.items():
            assert set(states) == set(tree.nodes)
            for node in tree.nodes:
                if states[node] == 1:
                    for child in tree.children(node):
                        assert states[child] == 1

    def test_ability_matching_tracks_targets(self):
        tree, params, bank, config = self.make(seed=5)
        _, truth = generate_classroom(tree, params, bank, config)
        targets = np.random.default_rng(config.seed).normal(
            config.ability_mean, config.ability_std, config.n_students
        )
        gaps = [
            abs(expected_correctness(params, truth.states[sid], bank) - t)
            for sid, t in zip(sorted(truth.states), targets)
        ]
        unmatched_config = SimConfig(
            n_students=config.n_students,
            n_interactions=config.n_interactions,
            seed=config.seed,
            match_ability=False,
        )
        _, free = generate_classroom(tree, params, bank, unmatched_config)
        free_gaps = [
            abs(expected_correctness(params, free.states[sid], bank) - t)
            for sid, t in zip(sorted(free.states), targets)
        ]
        assert np.mean(gaps) < np.mean(free_gaps)

    def test_empty_bank_rejected(self):
        tree, params, _, config = self.make()
        with pytest.raises(ValueError):
            generate_classroom(tree, params, [], config)

    def test_ground_truth_serializes(self):
        tree, params, bank, config = self.make(seed=6)
        _, truth = generate_classroom(tree, params, bank, config)
        doc = json.loads(truth.to_json())
        assert doc["theta_star"]["epsilon"] == params.epsilon
        assert doc["states"] == truth.states


class TestRandomGenerators:
    def test_random_tree_valid(self):
        rng = np.random.default_rng(7)
        for n in [1, 2, 5, 20, 50]:
            tree = random_tree(rng, n)
            assert len(tree.nodes) == n
            assert validate_tree(tree).valid

    def test_random_question_bank_covers_leaves(self):
        rng = np.random.default_rng(8)
        tree = random_tree(rng, 10)
        bank = random_question_bank(rng, tree, per_leaf=3)
        assert len(bank) == 3 * len(tree.leaves())
        assert {q.kc for q in bank} == set(tree.leaves())


def linear_enumeration(tree, params, obs):
    """The enumeration oracle as products of probabilities, summed in the
    linear domain: (marginals, pairwise cells, log-likelihood). Every
    weight underflows to 0 on long histories."""
    nodes = list(tree.nodes)
    weights = []
    for states in itertools.product((0, 1), repeat=len(nodes)):
        state = dict(zip(nodes, states))
        weight = 1.0
        for node in nodes:
            parent = tree.parent(node)
            weight *= transition_prob(params, node, state[node],
                                      None if parent is None else state[parent])
        for node, node_counts in obs.counts.items():
            for (difficulty, correct), n in node_counts.items():
                weight *= emission_prob(params, difficulty, correct, state[node]) ** n
        weights.append((state, weight))
    total = sum(w for _, w in weights)
    marginal = {n: sum(w for s, w in weights if s[n]) / total for n in nodes}
    pairwise = {n: {(a, b): sum(w for s, w in weights
                                if (s[n], s[tree.parent(n)]) == (a, b)) / total
                    for a in (0, 1) for b in (0, 1)}
                for n in nodes if n != tree.root}
    return marginal, pairwise, math.log(total)


class TestBruteForceOracle:
    def test_size_limit(self):
        rng = np.random.default_rng(9)
        tree = random_tree(rng, ENUMERATION_LIMIT + 1)
        params = random_parameters(tree, rng)
        with pytest.raises(ValueError, match="too large"):
            brute_force_posteriors(tree, params, observation_set(tree, []))

    def test_no_observations_gives_prior(self):
        # Without evidence the chain marginals are the prior reach
        # probabilities, computable in closed form.
        tree = chain_tree(3)
        params = random_parameters(tree, np.random.default_rng(10))
        result = brute_force_posteriors(tree, params, observation_set(tree, []))
        g0 = params.gamma_of("n0")
        g1 = params.gamma_of("n1")
        g2 = params.gamma_of("n2")
        p0 = g0
        p1 = g0 + (1 - g0) * g1
        p2 = p1 + (1 - p1) * g2
        assert result.marginal["n0"] == pytest.approx(p0, abs=1e-12)
        assert result.marginal["n1"] == pytest.approx(p1, abs=1e-12)
        assert result.marginal["n2"] == pytest.approx(p2, abs=1e-12)

    def test_agrees_with_the_linear_domain_where_it_does_not_underflow(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            tree, params, obs = random_instance(rng, max_nodes=8)
            marginal, pairwise, log_z = linear_enumeration(tree, params, obs)
            result = brute_force_posteriors(tree, params, obs)
            assert abs(result.log_likelihood - log_z) <= 1e-12 * max(1.0, abs(log_z))
            for node in tree.nodes:
                assert abs(result.marginal[node] - marginal[node]) <= 1e-12
                for cell, value in pairwise.get(node, {}).items():
                    assert abs(result.pairwise[node][cell] - value) <= 1e-12

    def test_entailment_cell_is_zero(self):
        tree = chain_tree(2)
        params = random_parameters(tree, np.random.default_rng(11))
        obs = observation_set(
            tree, [Interaction("q", "n1", Difficulty.EASY, 1)]
        )
        result = brute_force_posteriors(tree, params, obs)
        assert result.pairwise["n1"][(0, 1)] == 0.0
