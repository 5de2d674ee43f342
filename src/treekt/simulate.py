"""Generative sampling for synthetic classrooms and brute-force oracles.

Mastery is static per student: one hidden assignment is drawn ancestrally
(a mastered parent forces all children mastered), then responses are
Bernoulli draws conditioned on mastery of the labeled concept. Classroom
generation matches drawn ability targets by rejection-sampling hidden
assignments. All randomness derives from a single master seed; per-student
streams use seeds hashed from (master seed, student id) so the output is
identical under any parallelization.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import Parameters, emission_prob, transition_prob
from .online import StreamRecord
from .tree import ConceptTree, Difficulty, QuestionMeta, build_tree

if TYPE_CHECKING:
    from .view import ObservationSet

#: Largest tree the exhaustive oracle will enumerate (2^n configurations).
ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class SimConfig:
    n_students: int = 100
    n_interactions: int = 50
    ability_mean: float = 0.65
    ability_std: float = 0.15
    seed: int = 0
    ability_tol: float = 0.03
    max_attempts: int = 200
    match_ability: bool = True

    def __post_init__(self):
        if self.n_students < 0 or self.n_interactions < 0:
            raise ValueError("counts must be non-negative")
        if self.ability_std <= 0:
            raise ValueError("ability_std must be positive")


@dataclass
class GroundTruth:
    tree: ConceptTree
    theta_star: Parameters
    states: dict[str, dict[str, int]]
    question_bank: list[QuestionMeta]

    def to_json(self) -> str:
        doc = {
            "theta_star": json.loads(self.theta_star.to_json()),
            "states": self.states,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def derive_seed(master_seed: int, student_id: str) -> int:
    # Imported here: hashlib loads OpenSSL, which no other treekt path needs.
    import hashlib

    digest = hashlib.sha256(f"{master_seed}:{student_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_states(
    tree: ConceptTree, params: Parameters, rng: np.random.Generator
) -> dict[str, int]:
    """Ancestral draw of one mastery assignment, root to leaves."""
    states: dict[str, int] = {}
    for node in tree.downward_order():
        parent = tree.parent(node)
        if parent is not None and states[parent] == 1:
            states[node] = 1
        else:
            states[node] = int(rng.random() < params.gamma_of(node))
    return states


def sample_response(
    params: Parameters,
    question: QuestionMeta,
    states: dict[str, int],
    rng: np.random.Generator,
) -> int:
    p = params.phi(question.difficulty) if states[question.kc] else params.epsilon
    return int(rng.random() < p)


def expected_correctness(
    params: Parameters, states: dict[str, int], bank: list[QuestionMeta]
) -> float:
    """Model-implied mean correctness over the bank for a fixed assignment."""
    total = 0.0
    for q in bank:
        total += params.phi(q.difficulty) if states[q.kc] else params.epsilon
    return total / len(bank)


def _sample_matched_states(
    tree: ConceptTree,
    params: Parameters,
    bank: list[QuestionMeta],
    target: float,
    config: SimConfig,
    rng: np.random.Generator,
) -> dict[str, int]:
    best = None
    best_gap = math.inf
    for _ in range(config.max_attempts):
        states = sample_states(tree, params, rng)
        gap = abs(expected_correctness(params, states, bank) - target)
        if gap < best_gap:
            best, best_gap = states, gap
        if gap <= config.ability_tol:
            break
    return best


def generate_classroom(
    tree: ConceptTree,
    theta_star: Parameters,
    question_bank: list[QuestionMeta],
    config: SimConfig,
) -> tuple[list[StreamRecord], GroundTruth]:
    """Synthesize an interaction stream plus its generating hidden states.

    The stream is interleaved round-robin by per-student step so it is
    time-ordered and sorted within each student.
    """
    if not question_bank:
        raise ValueError("question bank must be non-empty")
    master = np.random.default_rng(config.seed)
    targets = master.normal(
        config.ability_mean, config.ability_std, config.n_students
    )

    width = max(3, len(str(max(config.n_students - 1, 0))))
    per_student: dict[str, list[StreamRecord]] = {}
    states: dict[str, dict[str, int]] = {}
    for idx in range(config.n_students):
        sid = f"s{idx:0{width}d}"
        rng = np.random.default_rng(derive_seed(config.seed, sid))
        if config.match_ability:
            student_states = _sample_matched_states(
                tree, theta_star, question_bank, float(targets[idx]), config, rng
            )
        else:
            student_states = sample_states(tree, theta_star, rng)
        states[sid] = student_states
        records = []
        for seq in range(config.n_interactions):
            q = question_bank[int(rng.integers(len(question_bank)))]
            correct = sample_response(theta_star, q, student_states, rng)
            records.append(
                StreamRecord(sid, q.question_id, q.kc, q.difficulty, correct, seq)
            )
        per_student[sid] = records

    stream = []
    for seq in range(config.n_interactions):
        for sid in sorted(per_student):
            stream.append(per_student[sid][seq])
    truth = GroundTruth(
        tree=tree, theta_star=theta_star, states=states, question_bank=question_bank
    )
    return stream, truth


def random_tree(rng: np.random.Generator, n_nodes: int) -> ConceptTree:
    """Uniform random recursive tree; handy for randomized checks."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    ids = [f"n{i}" for i in range(n_nodes)]
    parents = [None] + [ids[int(rng.integers(i))] for i in range(1, n_nodes)]
    return build_tree(zip(ids, ids, parents))


def random_question_bank(
    rng: np.random.Generator, tree: ConceptTree, per_leaf: int = 3
) -> list[QuestionMeta]:
    """A bank with a uniform difficulty mix across the tree's leaves."""
    difficulties = list(Difficulty)
    bank = []
    for leaf in tree.leaves():
        for j in range(per_leaf):
            d = difficulties[int(rng.integers(len(difficulties)))]
            bank.append(QuestionMeta(f"q_{leaf}_{j}", leaf, d))
    return bank


@dataclass
class OracleResult:
    marginal: dict[str, float]
    pairwise: dict[str, dict[tuple[int, int], float]]
    log_likelihood: float


def brute_force_posteriors(
    tree: ConceptTree, params: Parameters, obs: ObservationSet
) -> OracleResult:
    """Exact posteriors by enumerating every hidden configuration.

    Independent of the message-passing implementation; used as the oracle
    in cross-checks. Limited to small trees. Weights are summed in the log
    domain, each sum kept relative to the largest weight so far (a running
    log-sum-exp), so a history of any length or parameters at PARAM_FLOOR
    cannot underflow every weight to 0.
    """
    node_ids = list(tree.nodes)
    if len(node_ids) > ENUMERATION_LIMIT:
        raise ValueError(
            f"tree too large for enumeration: {len(node_ids)} > {ENUMERATION_LIMIT}"
        )

    marginal = {node: 0.0 for node in node_ids}
    pairwise = {
        node: {(a, b): 0.0 for a in (0, 1) for b in (0, 1)}
        for node in node_ids
        if node != tree.root
    }
    # The log-probability of each observed node's responses, by its state.
    log_evidence = {
        node: [sum(n * math.log(emission_prob(params, difficulty, correct, state))
                   for (difficulty, correct), n in node_counts.items())
               for state in (0, 1)]
        for node, node_counts in obs.counts.items()
    }
    total, top = 0.0, -math.inf
    for assignment in itertools.product((0, 1), repeat=len(node_ids)):
        states = dict(zip(node_ids, assignment))
        transitions = [
            transition_prob(params, node, states[node],
                            None if node == tree.root else states[tree.parent(node)])
            for node in node_ids
        ]
        if 0.0 in transitions:
            continue  # an unmastered child of a mastered parent
        log_weight = sum(map(math.log, transitions)) + sum(
            evidence[states[node]] for node, evidence in log_evidence.items())
        if log_weight > top:
            scale = math.exp(top - log_weight)
            total *= scale
            for node in node_ids:
                marginal[node] *= scale
            for cells in pairwise.values():
                for cell in cells:
                    cells[cell] *= scale
            top = log_weight
        weight = math.exp(log_weight - top)
        total += weight
        for node in node_ids:
            if states[node] == 1:
                marginal[node] += weight
            parent = tree.parent(node)
            if parent is not None:
                pairwise[node][(states[node], states[parent])] += weight

    marginal = {node: v / total for node, v in marginal.items()}
    pairwise = {
        node: {k: v / total for k, v in cells.items()}
        for node, cells in pairwise.items()
    }
    return OracleResult(
        marginal=marginal, pairwise=pairwise, log_likelihood=top + math.log(total)
    )
