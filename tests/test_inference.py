import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treekt import (
    ClassroomSession,
    Difficulty,
    Interaction,
    Parameters,
    brute_force_posteriors,
    build_tree,
    log_likelihood,
    observation_set,
    posteriors,
    predict,
    predict_next,
)
from treekt.inference import (
    CELL_KEYS,
    BeliefTable,
    InferenceError,
    ParameterError,
    count_cells,
    kernel_plan,
    log_form,
    pack_counts,
    pool_posteriors,
    _NARROW,
    _scan_rounds,
)
from treekt.model import PARAM_FLOOR
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

    def test_difficulty_values_agree_with_the_oracle(self):
        # A response's difficulty given as the enum's value is that
        # difficulty, in the kernel's cells and in the oracle's emissions.
        rng = np.random.default_rng(44)
        for _ in range(20):
            tree, params, obs = random_instance(rng)
            obs = observation_set(tree, [
                Interaction(it.question_id, it.kc, it.difficulty.value, it.correct)
                for it in obs])
            belief = posteriors(tree, params, obs)
            oracle = brute_force_posteriors(tree, params, obs)
            assert abs(belief.log_likelihood - oracle.log_likelihood) <= 1e-10
            for node in tree.nodes:
                assert abs(belief.marginal[node] - oracle.marginal[node]) <= 1e-10

    def test_log_likelihood_helper_matches_posteriors(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            tree, params, obs = random_instance(rng)
            assert log_likelihood(tree, params, obs) == pytest.approx(
                posteriors(tree, params, obs).log_likelihood, abs=1e-12
            )


def two_chains_tree(chain, leaves):
    """A root with two chains of chain nodes and leaves leaf children."""
    entries = [("r", "r", None)]
    for side in "ab":
        entries += [(f"{side}{i}", f"{side}{i}", f"{side}{i - 1}" if i else "r")
                    for i in range(chain)]
    entries += [(f"l{i}", f"l{i}", "r") for i in range(leaves)]
    return build_tree(entries)


def shaped_tree(shape, n_nodes, rng):
    if shape == "chain":
        return chain_tree(n_nodes)
    if shape == "star":
        return star_tree(n_nodes - 1)
    if shape == "caterpillar":
        return caterpillar_tree(max(1, n_nodes // 2))
    return random_tree(rng, n_nodes)


def shared_posteriors(tree, params, counts):
    """The kernel at one θ shared by every counts column [V, 6, C]: one
    target over a pool of the columns, as [V, 1, C]."""
    log_theta = log_form(params.column(kernel_plan(tree).order)[:, None])
    return pool_posteriors(tree, log_theta, counts)


def kernel_cells(result):
    """A one-target result's (child, parent) cells (0, 0), (1, 0) and
    (1, 1), [3, V, 1, C]: pair, then the parent's marginal (0 above the
    root)."""
    marginal = np.concatenate((result.marginal, np.zeros_like(result.marginal[:1])))
    return np.concatenate((result.pair, marginal[result.plan.parent][None]))


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
        result = shared_posteriors(tree, params, pack_counts(tree, sets))
        for column, obs in enumerate(sets):
            belief = BeliefTable(result, column)
            oracle = brute_force_posteriors(tree, params, obs)
            assert abs(belief.log_likelihood - oracle.log_likelihood) <= 1e-10
            # The root's row treats its parent as unmastered.
            m_root = oracle.marginal[tree.root]
            root_cells = kernel_cells(result)[:, result.plan.index[tree.root], 0, column]
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
        # A batch this wide runs plan.levels, each column alone plan.scan
        # where the tree has one.
        counts = pack_counts(
            tree, [random_observations(tree, rng, max_obs=60) for _ in range(_NARROW + 4)]
        )
        batch = shared_posteriors(tree, params, counts)
        for s in range(counts.shape[2]):
            one = shared_posteriors(tree, params, counts[:, :, s:s + 1].copy())
            for got, want in [(one.marginal, batch.marginal[:, :, s:s + 1]),
                              (kernel_cells(one), kernel_cells(batch)[..., s:s + 1]),
                              (one.log_likelihood, batch.log_likelihood[:, s:s + 1])]:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestPoolRule:
    """pool_posteriors runs T targets over one pool of S columns; a
    target's own column replaces its pool column at[t] < S, so the result
    keeps the pool's width."""

    @staticmethod
    def setup(seed, n_columns=5, n_targets=3):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 9)
        order = kernel_plan(tree).order
        params = [random_parameters(tree, rng) for _ in range(n_targets)]
        log_theta = log_form(np.stack([p.column(order) for p in params], axis=1))
        pool = pack_counts(tree, [random_observations(tree, rng) for _ in range(n_columns)])
        own = pack_counts(tree, [random_observations(tree, rng) for _ in range(n_targets)])
        return tree, params, log_theta, pool, own

    @pytest.mark.parametrize("at", [[4, 0, 2], [1, 4, 3], [0, 0, 0]])
    def test_own_columns_keep_the_pool_width(self, at):
        tree, _, log_theta, pool, own = self.setup(61)
        result = pool_posteriors(tree, log_theta, pool, (np.array(at), own))
        assert result.marginal.shape == (len(tree.nodes), 3, 5)
        assert result.pair.shape == (2, len(tree.nodes), 3, 5)

    @pytest.mark.parametrize("at", [[4, 0, 2], [1, 4, 3], [0, 0, 0]])
    def test_own_columns_equal_their_own_calls(self, at):
        # Each target's own column, wherever it stands, has the posteriors
        # of a call on that column alone at the target's θ; every other
        # column has those of the target's θ over the pool.
        tree, params, log_theta, pool, own = self.setup(63)
        at = np.array(at)
        result = pool_posteriors(tree, log_theta, pool, (at, own))
        for t, j in enumerate(at):
            want = pool.copy()
            want[:, :, j] = own[:, :, t]
            one = shared_posteriors(tree, params[t], want)
            np.testing.assert_allclose(result.marginal[:, t], one.marginal[:, 0],
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(result.pair[:, :, t], one.pair[:, :, 0],
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("at", [[4, 5, 2], [0, 0, -1]])
    def test_own_column_outside_the_pool_raises(self, at):
        # at[t] = S is the old newcomer form; a negative at[t] would
        # silently replace a column counted from the end.
        tree, _, log_theta, pool, own = self.setup(62)
        with pytest.raises(InferenceError, match=r"0 <= at\[t\] < S = 5"):
            pool_posteriors(tree, log_theta, pool, (np.array(at), own))

    @pytest.mark.parametrize("n_columns, n_targets", [(1, 1), (1, 4), (6, 1), (6, 4)])
    def test_every_call_gives_targets_by_columns(self, n_columns, n_targets):
        tree, _, log_theta, pool, _ = self.setup(64, n_columns, n_targets)
        result = pool_posteriors(tree, log_theta, pool)
        v = len(tree.nodes)
        assert result.marginal.shape == (v, n_targets, n_columns)
        assert result.pair.shape == (2, v, n_targets, n_columns)
        assert result.log_likelihood.shape == (n_targets, n_columns)


def chain_oracle(depth, params, interactions):
    """Exact posteriors of chain_tree(depth) by enumeration. A mastered node
    entails its whole subtree, so the mastered set is a suffix n_j, ...,
    n_{depth-1}: depth + 1 states, j = depth being "nothing mastered".
    Responses are all on the leaf n_{depth-1}, mastered unless j = depth.
    Returns (marginals, pairwise cells by node index, log-likelihood)."""
    terms = [[], []]  # log P(response | leaf unmastered / mastered)
    for it in interactions:
        for mastered, p in enumerate((params.epsilon, params.phi(it.difficulty))):
            terms[mastered].append(math.log(p if it.correct else 1.0 - p))
    log_e = [math.fsum(t) for t in terms]
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
    @staticmethod
    def leaf_history(rng, depth, n):
        """n responses of random difficulty and outcome on the chain's leaf."""
        return [Interaction(f"q{i}", f"n{depth - 1}", list(Difficulty)[int(rng.integers(3))],
                            int(rng.integers(2))) for i in range(n)]

    @pytest.mark.parametrize("depth", CHAIN_DEPTHS)
    def test_chain_matches_state_enumeration(self, depth):
        rng = np.random.default_rng(depth)
        tree = chain_tree(depth)
        params = random_parameters(tree, rng)
        histories = [[], *(self.leaf_history(rng, depth, int(rng.integers(1, 40)))
                           for _ in range(3))]
        self.assert_matches_enumeration(tree, params, histories)

    @pytest.mark.parametrize("depth", [3, 17, 129])
    @pytest.mark.parametrize("n", [10**3, 10**4])
    def test_long_history_matches_state_enumeration(self, depth, n):
        rng = np.random.default_rng([depth, n])
        tree = chain_tree(depth)
        params = random_parameters(tree, rng)
        self.assert_matches_enumeration(tree, params, [self.leaf_history(rng, depth, n)])

    @staticmethod
    def assert_matches_enumeration(tree, params, histories):
        depth = len(tree.nodes)
        result = shared_posteriors(tree, params, pack_counts(tree, histories))
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
        result = shared_posteriors(tree, params, pack_counts(tree, sets))
        plan = result.plan
        assert len(plan.jumps) == 7  # depth 101
        child = np.arange(1, len(plan.order))
        # Every edge, so every root-to-leaf path; exact, not within a tolerance.
        assert np.all(result.marginal[child] >= result.marginal[plan.parent[child]])


class TestFarOutOfRange:
    """Thousands of responses at the deepest leaf put the messages along its
    heavy path near +-1e4, where exp of a raw message overflows. Each oracle
    test runs narrow (three columns: the heavy-path scan where the tree has
    one) and wide (the same histories cycled to _NARROW columns:
    plan.levels with the vectorized log-sum-exp)."""

    @staticmethod
    def histories(leaf, n=5000):
        half = n * 3 // 5
        return [
            [Interaction(f"w{i}", leaf, Difficulty.EASY, 0) for i in range(n)],
            [Interaction(f"c{i}", leaf, Difficulty.EASY, 1) for i in range(n)],
            [Interaction(f"m{i}", leaf, Difficulty.EASY, i % 2) for i in range(half)]
            + [Interaction(f"h{i}", leaf, Difficulty.HARD, 0) for i in range(half)],
        ]

    @staticmethod
    def packed(tree, histories, width):
        """Counts of the histories, cycled to width columns."""
        return pack_counts(tree, (histories * width)[:width])

    @staticmethod
    def assert_finite(result):
        for values in (result.marginal, kernel_cells(result), result.log_likelihood):
            assert np.all(np.isfinite(values))

    def check_chain(self, depth, wide):
        tree = chain_tree(depth)
        params = random_parameters(tree, np.random.default_rng(depth))
        histories = self.histories(f"n{depth - 1}")
        log_ratio = math.log(1 - params.epsilon) - math.log(1 - params.r_easy)
        assert 5000 * log_ratio > 1000  # exp of the leaf's message overflows
        width = _NARROW if wide else len(histories)
        result = shared_posteriors(tree, params, self.packed(tree, histories, width))
        self.assert_finite(result)
        for column in range(width):
            marginal, cells, log_z = chain_oracle(depth, params,
                                                  histories[column % len(histories)])
            belief = BeliefTable(result, column)
            assert abs(belief.log_likelihood - log_z) <= 1e-10
            for i in range(depth):
                assert abs(belief.marginal[f"n{i}"] - marginal[i]) <= 1e-10
                if i:
                    pair = belief.pairwise[f"n{i}"]
                    got = (pair[(0, 0)], pair[(1, 0)], pair[(1, 1)])
                    assert max(map(abs, np.subtract(got, cells[i]))) <= 1e-10

    def check_caterpillar(self, wide):
        tree = caterpillar_tree(6)
        plan = kernel_plan(tree)
        assert plan.scan is not None
        params = random_parameters(tree, np.random.default_rng(6))
        histories = self.histories("l5")
        width = _NARROW if wide else len(histories)
        result = shared_posteriors(tree, params, self.packed(tree, histories, width))
        self.assert_finite(result)
        oracles = [brute_force_posteriors(tree, params, observation_set(tree, history))
                   for history in histories]
        for column in range(width):
            oracle = oracles[column % len(histories)]
            belief = BeliefTable(result, column)
            assert abs(belief.log_likelihood - oracle.log_likelihood) <= 1e-10
            for node in tree.nodes:
                assert abs(belief.marginal[node] - oracle.marginal[node]) <= 1e-10
                if node != tree.root:
                    for cell, value in oracle.pairwise[node].items():
                        assert abs(belief.pairwise[node][cell] - value) <= 1e-10

    @pytest.mark.parametrize("depth", [5, 101])
    def test_chain_matches_state_enumeration(self, depth):
        assert kernel_plan(chain_tree(depth)).scan is not None
        self.check_chain(depth, wide=False)

    @pytest.mark.parametrize("depth", [5, 101])
    def test_wide_chain_matches_state_enumeration(self, depth):
        self.check_chain(depth, wide=True)

    def test_caterpillar_matches_log_enumeration(self):
        self.check_caterpillar(wide=False)

    def test_wide_caterpillar_matches_log_enumeration(self):
        self.check_caterpillar(wide=True)

    @pytest.mark.parametrize("n", [5000, 20000])
    def test_deep_caterpillar_scan_agrees_with_levels(self, n):
        # The scan's up = S + A cancels two sums of thousands of responses.
        tree = caterpillar_tree(100)
        assert kernel_plan(tree).scan is not None
        params = random_parameters(tree, np.random.default_rng(n))
        counts = self.packed(tree, self.histories("l99", n), _NARROW + 4)
        wide = shared_posteriors(tree, params, counts)
        self.assert_finite(wide)
        for s in range(3):  # all wrong, all correct, mixed
            one = shared_posteriors(tree, params, counts[:, :, s:s + 1].copy())
            self.assert_finite(one)
            for got, want in [(one.marginal, wide.marginal[:, :, s:s + 1]),
                              (kernel_cells(one), kernel_cells(wide)[..., s:s + 1]),
                              (one.log_likelihood, wide.log_likelihood[:, s:s + 1])]:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


class TestOracleAtTheEdges:
    """The kernel against the enumeration oracle where every configuration's
    weight underflows in the linear domain: 10^3-10^5 mixed responses, γ and
    ε both at PARAM_FLOOR or both at 1 - PARAM_FLOOR, and each rate as it is
    or at either edge."""

    @staticmethod
    def history(leaves, n):
        difficulties = list(Difficulty)
        return [Interaction(f"q{i}", leaves[i % len(leaves)], difficulties[i % 3], i % 2)
                for i in range(n)]

    @pytest.mark.parametrize("rate", [None] + [(name, value)
                                               for name in ("r_easy", "r_med", "r_hard")
                                               for value in (PARAM_FLOOR, 1 - PARAM_FLOOR)],
                             ids=lambda rate: "rates" if rate is None else "%s=%g" % rate)
    @pytest.mark.parametrize("layout", ["one leaf", "every leaf"])
    @pytest.mark.parametrize("edge", [PARAM_FLOOR, 1 - PARAM_FLOOR])
    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    def test_kernel_matches_the_oracle(self, n, edge, layout, rate):
        tree = random_tree(np.random.default_rng(n), 7)
        leaves = tree.leaves()[-1:] if layout == "one leaf" else tree.leaves()
        rates = {"r_easy": 0.9, "r_med": 0.8, "r_hard": 0.75}
        rates.update([rate] if rate else [])
        params = Parameters(gamma=dict.fromkeys(tree.nodes, edge), epsilon=edge, **rates)
        obs = observation_set(tree, self.history(leaves, n))
        belief = posteriors(tree, params, obs)
        oracle = brute_force_posteriors(tree, params, obs)
        assert abs(belief.log_likelihood - oracle.log_likelihood) <= (
            1e-12 * abs(oracle.log_likelihood))
        for node in tree.nodes:
            assert abs(belief.marginal[node] - oracle.marginal[node]) <= 1e-10
            if node != tree.root:
                for cell, value in oracle.pairwise[node].items():
                    assert abs(belief.pairwise[node][cell] - value) <= 1e-10


class TestUpwardSchedule:
    def test_caterpillar_scans_in_two_rounds(self):
        plan = kernel_plan(caterpillar_tree(100))
        assert len(plan.levels) == 101
        # The 99 light leaves, then the root's path of 100 spine nodes and
        # the last leaf, one column of 101 nodes over the sentinel row.
        assert len(plan.scan) == 2
        leaves, spine = plan.scan
        assert leaves.grid is None and len(leaves.nodes) == 99
        assert spine.grid.shape == (102, 1) and len(spine.nodes) == 101
        assert list(spine.nodes[:-1]) == [plan.index[f"c{i}"] for i in range(100)]

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(["random", "chain", "star", "caterpillar"]),
        n_nodes=st.integers(2, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scan_on_any_tree_matches_enumeration(self, shape, n_nodes, seed):
        # Run every tree through the heavy-path scan, also trees where the
        # plan keeps levels: paths of mixed lengths per round, several
        # light children per parent.
        rng = np.random.default_rng(seed)
        tree = shaped_tree(shape, n_nodes, rng)
        plan = kernel_plan(tree)
        plan.scan = _scan_rounds(plan.parent)
        params = random_parameters(tree, rng)
        sets = [random_observations(tree, rng) for _ in range(3)]
        result = shared_posteriors(tree, params, pack_counts(tree, sets))
        for column, obs in enumerate(sets):
            belief = BeliefTable(result, column)
            oracle = brute_force_posteriors(tree, params, obs)
            assert abs(belief.log_likelihood - oracle.log_likelihood) <= 1e-10
            for node in tree.nodes:
                assert abs(belief.marginal[node] - oracle.marginal[node]) <= 1e-10
                if node != tree.root:
                    for cell, value in oracle.pairwise[node].items():
                        assert abs(belief.pairwise[node][cell] - value) <= 1e-10

    @pytest.mark.parametrize("tree", [
        two_chains_tree(1000, 500),
        two_chains_tree(30, 7),
        *(random_tree(np.random.default_rng(seed), 400) for seed in range(5)),
    ])
    def test_grids_hold_fewer_than_twice_their_nodes(self, tree):
        # Rank 0 of two_chains_tree holds a whole chain and every leaf of the
        # root: one grid for all of them would take chain x leaves cells.
        plan = kernel_plan(tree)
        grids = [r for r in _scan_rounds(plan.parent) if r.grid is not None]
        for r in grids:
            rows, n_paths = r.grid.shape
            assert rows <= 2 * np.bincount(r.cells % n_paths).min()
        assert sum(r.grid.size for r in grids) < 2 * len(plan.order)

    def test_two_chains_scan_in_three_rounds(self):
        tree = two_chains_tree(1000, 500)
        plan = kernel_plan(tree)
        # The 500 leaves, the light chain, then the root's path.
        assert [r.grid is None or r.grid.shape for r in plan.scan] == [
            True, (1001, 1), (1002, 1)]
        rng = np.random.default_rng(1000)
        params = random_parameters(tree, rng)
        histories = [random_observations(tree, rng, max_obs=200) for _ in range(3)]
        wide = shared_posteriors(tree, params, pack_counts(tree, histories * _NARROW))
        narrow = shared_posteriors(tree, params, pack_counts(tree, histories))
        for got, want in [(narrow.marginal, wide.marginal[:, :, :3]),
                          (kernel_cells(narrow), kernel_cells(wide)[..., :3]),
                          (narrow.log_likelihood, wide.log_likelihood[:, :3])]:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("tree", [
        *(star_tree(n) for n in (1, 5, 24)),
        *(random_tree(np.random.default_rng(seed), n)
          for n in (12, 60) for seed in range(10)),
    ])
    def test_shallow_trees_take_no_more_steps_than_levels(self, tree):
        plan = kernel_plan(tree)
        assert len(plan.levels) == tree.depth()
        assert plan.scan is None  # narrow calls keep levels too


class TestSlotPacker:
    @pytest.mark.parametrize("lengths", [[], [0], [9], [0, 0], [4, 0, 11, 1]])
    def test_count_cells_equals_a_bincount_per_column(self, lengths):
        tree = caterpillar_tree(3)
        rng = np.random.default_rng(len(lengths))
        cells = sorted(kernel_plan(tree).slots.values())
        columns = [rng.choice(cells, size=n).tolist() for n in lengths]
        got = count_cells(tree, columns)
        size = len(tree.nodes) * len(CELL_KEYS)
        want = np.zeros((size, 0)) if not columns else np.stack(
            [np.bincount(column, minlength=size).astype(np.float64) for column in columns],
            axis=1)
        assert got.dtype == np.float64
        assert got.shape == (len(tree.nodes), len(CELL_KEYS), len(columns))
        np.testing.assert_array_equal(got, want.reshape(got.shape))

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

    def test_difficulty_by_value_equals_predict_next(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            tree, params, obs = random_instance(rng)
            belief = posteriors(tree, params, obs)
            session = ClassroomSession(tree=tree, burn_in={"s": list(obs)},
                                       theta_init=params, update_batch=None)
            for leaf in tree.leaves():
                for d in Difficulty:
                    by_value = QuestionMeta("q", leaf, d.value)
                    got = predict(params, belief, by_value)
                    assert got == predict(params, belief, QuestionMeta("q", leaf, d))
                    assert got == predict_next(session, "s", by_value)

    def test_difficulty_that_is_not_one(self):
        tree = single_node_tree()
        params = single_node_params()
        belief = posteriors(tree, params, observation_set(tree, []))
        with pytest.raises(InferenceError,
                           match="^difficulty must be a Difficulty, got 'weird'$"):
            predict(params, belief, QuestionMeta("q", "only", "weird"))

