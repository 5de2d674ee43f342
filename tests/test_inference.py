import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treekt import (
    Difficulty,
    Interaction,
    Parameters,
    brute_force_posteriors,
    log_likelihood,
    observation_set,
    posteriors,
    predict,
)
from treekt.inference import (
    CELL_KEYS,
    BeliefTable,
    InferenceError,
    ParameterError,
    batch_posteriors,
    kernel_plan,
    pack_counts,
)
from treekt.simulate import random_tree
from treekt.tree import QuestionMeta

from conftest import (
    caterpillar_tree,
    chain_tree,
    random_instance,
    random_observations,
    random_parameters,
    single_node_tree,
    star_tree,
)


def single_node_params(gamma=0.5, epsilon=0.1):
    return Parameters(
        gamma={"only": gamma}, r_easy=0.9, r_med=0.8, r_hard=0.75, epsilon=epsilon
    )


class TestObservationSet:
    def test_groups_and_counts(self):
        tree = star_tree(2)
        obs = observation_set(tree, [
            Interaction("q1", "l0", Difficulty.EASY, 1),
            Interaction("q2", "l0", Difficulty.EASY, 1),
            Interaction("q3", "l1", Difficulty.HARD, 0),
        ])
        assert len(obs) == 3
        assert obs.counts["l0"][(Difficulty.EASY, 1)] == 2
        assert obs.counts["l1"][(Difficulty.HARD, 0)] == 1

    def test_unknown_kc_rejected(self):
        with pytest.raises(InferenceError, match="unknown KC"):
            observation_set(star_tree(2), [
                Interaction("q", "nope", Difficulty.EASY, 1)
            ])

    def test_internal_kc_rejected(self):
        with pytest.raises(InferenceError, match="not a leaf"):
            observation_set(star_tree(2), [
                Interaction("q", "root", Difficulty.EASY, 1)
            ])

    def test_bad_correctness_rejected(self):
        with pytest.raises(InferenceError, match="0 or 1"):
            observation_set(star_tree(2), [
                Interaction("q", "l0", Difficulty.EASY, 2)
            ])


class TestHandValues:
    def test_single_node_no_observations(self):
        tree = single_node_tree()
        params = single_node_params(gamma=0.5)
        belief = posteriors(tree, params, observation_set(tree, []))
        assert belief.marginal["only"] == pytest.approx(0.5)
        assert belief.log_likelihood == pytest.approx(0.0)

    def test_single_node_one_correct_easy(self):
        # P(correct) = 0.5*0.9 + 0.5*0.1 = 0.5; P(mastered|correct) = 0.9.
        tree = single_node_tree()
        params = single_node_params(gamma=0.5)
        obs = observation_set(tree, [Interaction("q", "only", Difficulty.EASY, 1)])
        belief = posteriors(tree, params, obs)
        assert belief.marginal["only"] == pytest.approx(0.9)
        assert belief.log_likelihood == pytest.approx(math.log(0.5))

    def test_single_node_one_incorrect_easy(self):
        # P(wrong) = 0.5*0.1 + 0.5*0.9 = 0.5; P(mastered|wrong) = 0.1.
        tree = single_node_tree()
        params = single_node_params(gamma=0.5)
        obs = observation_set(tree, [Interaction("q", "only", Difficulty.EASY, 0)])
        belief = posteriors(tree, params, obs)
        assert belief.marginal["only"] == pytest.approx(0.1)
        assert belief.log_likelihood == pytest.approx(math.log(0.5))

    def test_two_node_chain_pairwise_by_hand(self):
        # gamma_root=0.4, gamma_child=0.25, one correct easy answer on n1.
        # Joint over (root, child): (1,1)=0.4, (0,1)=0.6*0.25, (0,0)=0.6*0.75.
        # Evidence multiplies 0.9 when child mastered, 0.1 otherwise.
        tree = chain_tree(2)
        params = Parameters(
            gamma={"n0": 0.4, "n1": 0.25},
            r_easy=0.9, r_med=0.8, r_hard=0.75, epsilon=0.1,
        )
        obs = observation_set(tree, [Interaction("q", "n1", Difficulty.EASY, 1)])
        belief = posteriors(tree, params, obs)
        w11 = 0.4 * 1.0 * 0.9
        w01 = 0.6 * 0.25 * 0.9
        w00 = 0.6 * 0.75 * 0.1
        total = w11 + w01 + w00
        assert belief.log_likelihood == pytest.approx(math.log(total))
        assert belief.marginal["n0"] == pytest.approx(w11 / total)
        assert belief.marginal["n1"] == pytest.approx((w11 + w01) / total)
        pair = belief.pairwise["n1"]
        assert pair[(1, 1)] == pytest.approx(w11 / total)
        assert pair[(1, 0)] == pytest.approx(w01 / total)
        assert pair[(0, 0)] == pytest.approx(w00 / total)
        assert pair[(0, 1)] == 0.0


class TestOracleAgreement:
    def test_randomized_cross_check(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            tree, params, obs = random_instance(rng)
            belief = posteriors(tree, params, obs)
            oracle = brute_force_posteriors(tree, params, obs)
            assert belief.log_likelihood == pytest.approx(
                oracle.log_likelihood, abs=1e-12
            )
            for node in tree.nodes:
                assert belief.marginal[node] == pytest.approx(
                    oracle.marginal[node], abs=1e-12
                )
                if node != tree.root:
                    for cell, value in oracle.pairwise[node].items():
                        assert belief.pairwise[node][cell] == pytest.approx(
                            value, abs=1e-12
                        )

    def test_log_likelihood_helper_matches_posteriors(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            tree, params, obs = random_instance(rng)
            assert log_likelihood(tree, params, obs) == pytest.approx(
                posteriors(tree, params, obs).log_likelihood, abs=1e-12
            )


def shaped_tree(shape, n_nodes, rng):
    if shape == "chain":
        return chain_tree(n_nodes)
    if shape == "star":
        return star_tree(n_nodes - 1)
    if shape == "caterpillar":
        return caterpillar_tree(max(1, n_nodes // 2))
    return random_tree(rng, n_nodes)


class TestBatchKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.sampled_from(["random", "chain", "star", "caterpillar"]),
        n_nodes=st.integers(2, 10),
        n_students=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_column_matches_enumeration(self, shape, n_nodes, n_students, seed):
        rng = np.random.default_rng(seed)
        tree = shaped_tree(shape, n_nodes, rng)
        params = random_parameters(tree, rng)
        sets = [random_observations(tree, rng) for _ in range(n_students)]
        result = batch_posteriors(tree, params, pack_counts(tree, sets))
        for column, obs in enumerate(sets):
            belief = BeliefTable(result, column)
            oracle = brute_force_posteriors(tree, params, obs)
            assert abs(belief.log_likelihood - oracle.log_likelihood) <= 1e-10
            # The root's row treats its parent as unmastered.
            m_root = oracle.marginal[tree.root]
            root_cells = result.cells[:, result.plan.index[tree.root], column]
            assert np.allclose(root_cells, [1.0 - m_root, m_root, 0.0], rtol=0.0, atol=1e-10)
            for node in tree.nodes:
                assert abs(belief.marginal[node] - oracle.marginal[node]) <= 1e-10
                if node != tree.root:
                    for cell, value in oracle.pairwise[node].items():
                        assert abs(belief.pairwise[node][cell] - value) <= 1e-10

    @pytest.mark.parametrize("shape, n_nodes", [
        ("random", 30), ("chain", 40), ("star", 25), ("caterpillar", 200),
    ])
    def test_batch_equals_batches_of_one(self, shape, n_nodes):
        rng = np.random.default_rng(n_nodes)
        tree = shaped_tree(shape, n_nodes, rng)
        params = random_parameters(tree, rng)
        counts = pack_counts(
            tree, [random_observations(tree, rng, max_obs=60) for _ in range(9)]
        )
        batch = batch_posteriors(tree, params, counts)
        for s in range(counts.shape[2]):
            one = batch_posteriors(tree, params, counts[:, :, s:s + 1].copy())
            for got, want in [(one.marginal, batch.marginal[:, s:s + 1]),
                              (one.cells, batch.cells[:, :, s:s + 1]),
                              (one.log_likelihood, batch.log_likelihood[s:s + 1])]:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def chain_oracle(depth, params, interactions):
    """Exact posteriors of chain_tree(depth) by enumeration. A mastered node
    entails its whole subtree, so the mastered set is a suffix n_j, ...,
    n_{depth-1}: depth + 1 states, j = depth being "nothing mastered".
    Responses are all on the leaf n_{depth-1}, mastered unless j = depth.
    Returns (marginals, pairwise cells by node index, log-likelihood)."""
    log_e = [0.0, 0.0]  # log P(responses | leaf unmastered / mastered)
    for it in interactions:
        for mastered, p in enumerate((params.epsilon, params.phi(it.difficulty))):
            log_e[mastered] += math.log(p if it.correct else 1.0 - p)
    log_w, prefix = [], 0.0  # prefix: log P(n_0 .. n_{j-1} all unmastered)
    for j in range(depth):
        gamma = params.gamma[f"n{j}"]
        log_w.append(prefix + math.log(gamma) + log_e[1])
        prefix += math.log1p(-gamma)
    log_w.append(prefix + log_e[0])
    top = max(log_w)
    log_z = top + math.log(math.fsum(math.exp(w - top) for w in log_w))
    p = [math.exp(w - log_z) for w in log_w]
    marginal = [math.fsum(p[:i + 1]) for i in range(depth)]
    # (child, parent) = (0, 0), (1, 0), (1, 1) for n_i under n_{i-1}.
    cells = {i: (math.fsum(p[i + 1:]), p[i], math.fsum(p[:i])) for i in range(1, depth)}
    return marginal, cells, log_z


#: 1-18 levels, 2**k +- 1 up to 129, and 1 000.
CHAIN_DEPTHS = sorted({*range(1, 19), *(2**k + d for k in range(2, 8) for d in (-1, 1)),
                       1000})


class TestDeepChains:
    @pytest.mark.parametrize("depth", CHAIN_DEPTHS)
    def test_chain_matches_state_enumeration(self, depth):
        rng = np.random.default_rng(depth)
        tree = chain_tree(depth)
        params = random_parameters(tree, rng)
        leaf = f"n{depth - 1}"
        histories = [[], *(
            [Interaction(f"q{i}", leaf, list(Difficulty)[int(rng.integers(3))],
                         int(rng.integers(2))) for i in range(int(rng.integers(1, 40)))]
            for _ in range(3))]
        result = batch_posteriors(tree, params, pack_counts(tree, histories))
        assert len(result.plan.jumps) == math.ceil(math.log2(depth))
        for column, history in enumerate(histories):
            marginal, cells, log_z = chain_oracle(depth, params, history)
            belief = BeliefTable(result, column)
            assert abs(belief.log_likelihood - log_z) <= 1e-10
            for i in range(depth):
                assert abs(belief.marginal[f"n{i}"] - marginal[i]) <= 1e-10
                if i:
                    pair = belief.pairwise[f"n{i}"]
                    got = (pair[(0, 0)], pair[(1, 0)], pair[(1, 1)])
                    assert max(map(abs, np.subtract(got, cells[i]))) <= 1e-10

    def test_caterpillar_marginal_never_decreases_downward(self):
        rng = np.random.default_rng(101)
        tree = caterpillar_tree(100)
        params = random_parameters(tree, rng)
        sets = [random_observations(tree, rng, max_obs=200) for _ in range(8)]
        result = batch_posteriors(tree, params, pack_counts(tree, sets))
        plan = result.plan
        assert len(plan.jumps) == 7  # depth 101
        child = np.arange(1, len(plan.order))
        # Every edge, so every root-to-leaf path; exact, not within a tolerance.
        assert np.all(result.marginal[child] >= result.marginal[plan.parent[child]])


class TestSlotPacker:
    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(["random", "chain", "star", "caterpillar"]),
        n_nodes=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_observation_set_counts(self, shape, n_nodes, seed):
        rng = np.random.default_rng(seed)
        tree = single_node_tree() if n_nodes == 1 else shaped_tree(shape, n_nodes, rng)
        histories = [random_observations(tree, rng, max_obs=40).interactions
                     for _ in range(3)] + [()]
        index = kernel_plan(tree).index
        expected = np.zeros((len(tree.nodes), len(CELL_KEYS), len(histories)))
        for s, history in enumerate(histories):
            for node, node_counts in observation_set(tree, history).counts.items():
                for key, n in node_counts.items():
                    expected[index[node], CELL_KEYS.index(key), s] = n
        packed = pack_counts(tree, histories)
        assert packed.dtype == np.float64
        np.testing.assert_array_equal(packed, expected)
        sets = [observation_set(tree, history) for history in histories]
        np.testing.assert_array_equal(pack_counts(tree, sets), expected)

    @pytest.mark.parametrize("interaction, needle", [
        (Interaction("q", "nope", Difficulty.EASY, 1), "unknown KC 'nope'"),
        (Interaction("q", "root", Difficulty.EASY, 1), "KC 'root' is not a leaf"),
        (Interaction("q", "l0", Difficulty.EASY, 2), "0 or 1"),
        (Interaction("q", "l0", "weird", 1), "difficulty"),
    ])
    def test_response_outside_the_leaves_rejected(self, interaction, needle):
        tree = star_tree(2)
        ok = Interaction("q", "l1", Difficulty.HARD, 0)
        with pytest.raises(InferenceError, match=needle):
            pack_counts(tree, [[ok], [ok, interaction]])


class TestParameterChecks:
    def test_gamma_missing_a_node(self):
        tree = star_tree(2)
        params = Parameters(gamma={"root": 0.2, "l0": 0.3}, r_easy=0.9,
                            r_med=0.8, r_hard=0.7, epsilon=0.1)
        with pytest.raises(ParameterError, match="'l1'"):
            posteriors(tree, params, observation_set(tree, []))

    @pytest.mark.parametrize("name, value, needle", [
        ("gamma", 0.0, "'l0'"),
        ("gamma", 1.0, "'l0'"),
        ("r_easy", 1.0, "r_easy"),
        ("r_hard", float("nan"), "r_hard"),
        ("epsilon", 0.0, "epsilon"),
    ])
    def test_probability_outside_open_interval(self, name, value, needle):
        tree = star_tree(2)
        fields = dict(gamma={"root": 0.2, "l0": 0.3, "l1": 0.4}, r_easy=0.9,
                      r_med=0.8, r_hard=0.7, epsilon=0.1)
        if name == "gamma":
            fields["gamma"] = {**fields["gamma"], "l0": value}
        else:
            fields[name] = value
        with pytest.raises(ParameterError, match=needle):
            log_likelihood(tree, Parameters(**fields), observation_set(tree, []))


class TestInvariants:
    def test_order_permutation_bit_identical(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            tree, params, obs = random_instance(rng)
            shuffled = list(obs.interactions)
            rng.shuffle(shuffled)
            a = posteriors(tree, params, obs)
            b = posteriors(tree, params, observation_set(tree, shuffled))
            assert a.log_likelihood == b.log_likelihood
            assert a.marginal == b.marginal
            assert a.pairwise == b.pairwise

    def test_hierarchy_entailment(self):
        # A node is mastered only together with its whole subtree, so the
        # posterior can never exceed any descendant's posterior.
        rng = np.random.default_rng(45)
        for _ in range(30):
            tree, params, obs = random_instance(rng)
            belief = posteriors(tree, params, obs)
            for node in tree.nodes:
                for child in tree.children(node):
                    assert (
                        belief.marginal[node] <= belief.marginal[child] + 1e-12
                    )

    def test_pairwise_cells_are_distributions(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            tree, params, obs = random_instance(rng)
            belief = posteriors(tree, params, obs)
            for node in tree.nodes:
                assert 0.0 <= belief.marginal[node] <= 1.0
                if node == tree.root:
                    continue
                cells = belief.pairwise[node]
                assert cells[(0, 1)] == 0.0
                assert all(v >= 0.0 for v in cells.values())
                assert sum(cells.values()) == pytest.approx(1.0)
                # Pairwise marginalizes back to the node and parent marginals.
                assert cells[(1, 0)] + cells[(1, 1)] == pytest.approx(
                    belief.marginal[node], abs=1e-12
                )
                assert cells[(0, 1)] + cells[(1, 1)] == pytest.approx(
                    belief.marginal[tree.parent(node)], abs=1e-12
                )

    def test_long_history_does_not_underflow(self):
        tree = chain_tree(4)
        params = random_parameters(tree, np.random.default_rng(47))
        interactions = [
            Interaction(f"q{i}", "n3", Difficulty.HARD, i % 2) for i in range(5000)
        ]
        belief = posteriors(tree, params, observation_set(tree, interactions))
        assert math.isfinite(belief.log_likelihood)
        assert 0.0 <= belief.marginal["n3"] <= 1.0


class TestPredict:
    def test_blend_formula(self):
        tree = single_node_tree()
        params = single_node_params(gamma=0.5)
        obs = observation_set(tree, [Interaction("q", "only", Difficulty.EASY, 1)])
        belief = posteriors(tree, params, obs)
        pred = predict(params, belief, QuestionMeta("next", "only", Difficulty.MEDIUM))
        assert pred.posterior_mastery == pytest.approx(0.9)
        assert pred.prob_correct == pytest.approx(0.9 * 0.8 + 0.1 * 0.1)

    def test_bounds_between_guess_and_best_rate(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            tree, params, obs = random_instance(rng)
            belief = posteriors(tree, params, obs)
            for leaf in tree.leaves():
                for d in Difficulty:
                    pred = predict(params, belief, QuestionMeta("q", leaf, d))
                    lo = min(params.epsilon, params.phi(d))
                    hi = max(params.epsilon, params.phi(d))
                    assert lo <= pred.prob_correct <= hi

    def test_unknown_kc(self):
        tree = single_node_tree()
        params = single_node_params()
        belief = posteriors(tree, params, observation_set(tree, []))
        with pytest.raises(InferenceError, match="unknown KC"):
            predict(params, belief, QuestionMeta("q", "ghost", Difficulty.EASY))

