"""The per-student view: one student's responses, posteriors and EM
statistics by node id, over the array core that every command runs. Its
names are also read from treekt and inference or em (treekt._LAZY),
which import it on the first such read; of the commands, only oracle-check
loads it."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .em import Accumulators, _em_step, _theta, batch_m_step, pooled_e_step
from .inference import (CELL_KEYS, BatchPosteriors, InferenceError, Interaction, Prediction,
                        blend, cell_slots, count_cells, kernel_plan, log_form,
                        pool_posteriors)
from .model import Parameters
from .tree import ConceptTree, Difficulty, QuestionMeta


@dataclass(frozen=True)
class ObservationSet:
    """A student's response history, grouped by concept.

    counts maps node id -> {(difficulty, correct): multiplicity}, an
    order-free form for readers by node id, such as the enumeration oracle;
    the kernel counts the interactions through cell_slots instead.
    """

    interactions: tuple[Interaction, ...]
    counts: dict[str, dict[tuple[Difficulty, int], int]]

    def __len__(self) -> int:
        return len(self.interactions)

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self.interactions)


def observation_set(
    tree: ConceptTree, interactions: Iterable[Interaction]
) -> ObservationSet:
    interactions = tuple(interactions)
    cell_slots(tree, interactions)  # every response is checked against the tree
    counts: dict[str, dict[tuple[Difficulty, int], int]] = {}
    for it in interactions:
        node_counts = counts.setdefault(it.kc, {})
        key = (it.difficulty, it.correct)
        node_counts[key] = node_counts.get(key, 0) + 1
    return ObservationSet(interactions=interactions, counts=counts)


def pack_counts(
    tree: ConceptTree, histories: Sequence[Collection[Interaction]]
) -> np.ndarray:
    """Response counts of each history, one column each, as [V, 6, S],
    through the tree's slot table. A history is an ObservationSet or a
    collection of anything with kc, difficulty and correct (see
    inference.cell_slots)."""
    return count_cells(tree, [cell_slots(tree, history) for history in histories])


@dataclass(frozen=True, eq=False)
class BeliefTable:
    """One student's posteriors by node id: a read-only view of one column
    of a kernel result of one target."""

    result: BatchPosteriors
    column: int = 0

    @property
    def log_likelihood(self) -> float:
        return float(self.result.log_likelihood[0, self.column])

    def posterior_mastery(self, node_id: str) -> float:
        if node_id not in self.result.plan.index:
            raise InferenceError(f"unknown KC: {node_id!r}")
        return float(self.result.marginal[self.result.plan.index[node_id], 0, self.column])

    @cached_property
    def marginal(self) -> Mapping[str, float]:
        values = self.result.marginal[:, 0, self.column].tolist()
        return MappingProxyType(dict(zip(self.result.plan.order, values)))

    @cached_property
    def pairwise(self) -> Mapping[str, Mapping[tuple[int, int], float]]:
        """(child state, parent state) -> posterior, for every non-root node:
        (1, 1) is the parent's marginal."""
        plan, marginal = self.result.plan, self.result.marginal[:, 0, self.column]
        rows = zip(plan.order[1:], *self.result.pair[:, 1:, 0, self.column].tolist(),
                   marginal[plan.parent[1:]].tolist())
        return MappingProxyType({
            node: MappingProxyType({(0, 0): p00, (1, 0): p10, (0, 1): 0.0, (1, 1): p11})
            for node, p00, p10, p11 in rows
        })


def posteriors(
    tree: ConceptTree, params: Parameters, obs: ObservationSet
) -> BeliefTable:
    """Full table for one student: marginals, pairwise posteriors, and data
    log-likelihood; one target over a pool of one column."""
    log_theta = log_form(params.column(kernel_plan(tree).order)[:, None])
    return BeliefTable(pool_posteriors(tree, log_theta, pack_counts(tree, [obs])))


def predict(
    params: Parameters, belief: BeliefTable, question: QuestionMeta
) -> Prediction:
    """Blend mastered/unmastered correctness rates with the posterior.
    InferenceError names an unknown KC or a difficulty that is not a
    Difficulty or its value."""
    p1 = belief.posterior_mastery(question.kc)
    try:
        phi = params.phi(question.difficulty)
    except ValueError as exc:
        raise InferenceError(*exc.args) from None
    return Prediction(
        question_id=question.question_id,
        prob_correct=blend(p1, params.epsilon, phi),
        posterior_mastery=p1,
    )


def log_likelihood(
    tree: ConceptTree, params: Parameters, obs: ObservationSet
) -> float:
    """Log-probability of the observed responses under the model."""
    return posteriors(tree, params, obs).log_likelihood


@dataclass(frozen=True)
class StudentObservations:
    student_id: str
    obs: ObservationSet


def pack_dataset(tree: ConceptTree, dataset: Sequence[StudentObservations]) -> np.ndarray:
    """Kernel counts [V, 6, S], a column per student in student-id order."""
    ordered = sorted(dataset, key=lambda s: s.student_id)
    return pack_counts(tree, [s.obs for s in ordered])


@dataclass
class SufficientStats:
    """Posterior accumulators summed over students: one target's
    Accumulators by node id and difficulty, as e_step gives and m_step
    takes them.

    gamma_num[c] collects mass on (child mastered, parent not); the extra
    denominator term collects (child not, parent not). root_num collects the
    root mastery marginal. eps_* and r_* collect unmastered/mastered mass on
    correctly (pos) and incorrectly (neg) answered questions.
    """

    gamma_num: dict[str, float] = field(default_factory=dict)
    gamma_den_extra: dict[str, float] = field(default_factory=dict)
    root_num: float = 0.0
    n_students: int = 0
    eps_pos: float = 0.0
    eps_neg: float = 0.0
    r_pos: dict[Difficulty, float] = field(
        default_factory=lambda: dict.fromkeys(Difficulty, 0.0))
    r_neg: dict[Difficulty, float] = field(
        default_factory=lambda: dict.fromkeys(Difficulty, 0.0))


def e_step(
    tree: ConceptTree,
    params: Parameters,
    dataset: Sequence[StudentObservations],
) -> tuple[SufficientStats, float]:
    """Accumulate sufficient statistics; also returns the total data
    log-likelihood at the current parameters (a free by-product).

    This is em.pooled_e_step with one target, over the students in
    student-id order, so the order of the dataset does not matter.
    """
    order, theta = _theta(tree, params)
    acc = pooled_e_step(tree, log_form(theta), pack_dataset(tree, dataset))
    pair = acc.pair[:, 1:, 0].tolist()
    u, m = acc.unmastered[0].tolist(), acc.mastered[0].tolist()
    return SufficientStats(
        gamma_num=dict(zip(order[1:], pair[1])),
        gamma_den_extra=dict(zip(order[1:], pair[0])),
        root_num=float(acc.root[0]),
        n_students=acc.n_students,
        eps_pos=u[1] + u[3] + u[5],
        eps_neg=u[0] + u[2] + u[4],
        r_pos=dict(zip(Difficulty, m[1::2])),
        r_neg=dict(zip(Difficulty, m[0::2])),
    ), float(acc.ll[0])


def m_step(stats: SufficientStats, prev: Parameters) -> Parameters:
    """em.batch_m_step for one target given as SufficientStats: every node
    of prev that has no pairwise cell in stats gets the root's update, the
    mean root marginal."""
    inner = list(stats.gamma_num)
    acc = Accumulators(
        unmastered=np.array([[stats.eps_neg, stats.eps_pos, 0.0, 0.0, 0.0, 0.0]]),
        mastered=np.array([[stats.r_pos[d] if c else stats.r_neg[d] for d, c in CELL_KEYS]]),
        pair=np.array([[0.0, *(stats.gamma_den_extra.get(n, 0.0) for n in inner)],
                       [0.0, *(stats.gamma_num[n] for n in inner)]])[:, :, None],
        root=np.array([stats.root_num]),
        n_students=stats.n_students,
    )
    # Row 0 stands for the root, whose previous γ is never kept.
    theta = batch_m_step(acc, np.insert(prev.column(inner), 0, 0.5)[:, None])
    theta = theta[:, 0].tolist()
    gamma = dict.fromkeys(prev.gamma, theta[0])
    gamma.update(zip(inner, theta[1:-4]))
    return Parameters(gamma, *theta[-4:])


def one_step_update(
    tree: ConceptTree,
    params: Parameters,
    dataset: Sequence[StudentObservations],
) -> Parameters:
    """Exactly one EM iteration, as em.fit runs it; never decreases the
    dataset likelihood. An empty dataset is rejected by the M-step."""
    order, theta = _theta(tree, params)
    _, update = _em_step(tree, theta, pack_dataset(tree, dataset))
    return Parameters.from_column(order, update[:, 0])
