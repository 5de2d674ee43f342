"""EM parameter estimation with closed-form updates.

The E-step sums the kernel's output over the student axis into a few
accumulators, for one target dataset or for many at once, each at its own
parameters; the M-step turns those into new parameters by simple ratios.
Every update keeps the guessing probability capped and all probabilities
strictly inside (0,1), which preserves the EM monotonicity guarantee.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .inference import (
    CELL_KEYS,
    ObservationSet,
    batch_posteriors,
    log_parameters,
    pack_counts,
)
from .model import EPSILON_CAP, Parameters, clamp_probability, ordering_satisfied
from .tree import ConceptTree, Difficulty

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StudentObservations:
    student_id: str
    obs: ObservationSet


def pack_dataset(
    tree: ConceptTree, dataset: Sequence[StudentObservations] | np.ndarray
) -> np.ndarray:
    """Kernel counts [V, 6, S], a column per student in student-id order."""
    if isinstance(dataset, np.ndarray):
        return dataset
    ordered = sorted(dataset, key=lambda s: s.student_id)
    return pack_counts(tree, [s.obs for s in ordered])


@dataclass
class SufficientStats:
    """Posterior accumulators summed over students.

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
        default_factory=lambda: {d: 0.0 for d in Difficulty}
    )
    r_neg: dict[Difficulty, float] = field(
        default_factory=lambda: {d: 0.0 for d in Difficulty}
    )


@dataclass
class FitReport:
    params: Parameters
    log_likelihood_trace: list[float]
    iterations: int
    converged: bool

    def to_json(self) -> str:
        doc = {
            "log_likelihood_trace": self.log_likelihood_trace,
            "iterations": self.iterations,
            "converged": self.converged,
            "parameters": json.loads(self.params.to_json()),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def batch_e_step(
    tree: ConceptTree, params: Sequence[Parameters], counts: np.ndarray
) -> list[tuple[SufficientStats, float]]:
    """The E-steps of T targets in one kernel pass: target t's dataset is
    counts[:, :, t] ([V, 6, T, S]) at params[t]. Returns each target's
    accumulators and total data log-likelihood; a target's sums run over
    its S columns in column order."""
    n_nodes, n_cells, n_targets, n_students = counts.shape
    post = batch_posteriors(
        tree, log_parameters(tree, params, repeat=n_students),
        counts.reshape(n_nodes, n_cells, n_targets * n_students))
    marginal = post.marginal.reshape(n_nodes, n_targets, n_students)
    cells = post.cells.reshape(3, n_nodes, n_targets, n_students)
    unmastered = np.einsum("vkts,vts->tk", counts, cells[0]).tolist()
    mastered = np.einsum("vkts,vts->tk", counts, marginal).tolist()
    pair = cells.sum(axis=3).transpose(2, 0, 1).tolist()
    root = marginal[0].sum(axis=1).tolist()
    ll = post.log_likelihood.reshape(n_targets, n_students).sum(axis=1).tolist()
    non_root = post.plan.order[1:]
    results = []
    for t in range(n_targets):
        stats = SufficientStats(
            gamma_num=dict(zip(non_root, pair[t][1][1:])),
            gamma_den_extra=dict(zip(non_root, pair[t][0][1:])),
            root_num=root[t],
            n_students=n_students,
        )
        for k, (difficulty, correct) in enumerate(CELL_KEYS):
            if correct == 1:
                stats.eps_pos += unmastered[t][k]
                stats.r_pos[difficulty] += mastered[t][k]
            else:
                stats.eps_neg += unmastered[t][k]
                stats.r_neg[difficulty] += mastered[t][k]
        results.append((stats, ll[t]))
    return results


def e_step(
    tree: ConceptTree,
    params: Parameters,
    dataset: Sequence[StudentObservations] | np.ndarray,
) -> tuple[SufficientStats, float]:
    """Accumulate sufficient statistics; also returns the total data
    log-likelihood at the current parameters (a free by-product).

    The dataset may come packed (see pack_dataset). This is batch_e_step
    with one target, so sums run in student-id order and the order of the
    dataset does not matter.
    """
    counts = pack_dataset(tree, dataset)
    return batch_e_step(tree, [params], counts[:, :, None, :])[0]


def m_step(stats: SufficientStats, prev: Parameters) -> Parameters:
    """Closed-form maximizer of the expected complete-data log-likelihood.

    Accumulator cells with no mass leave the corresponding parameter at its
    previous value (the update is undefined there and retention is the only
    choice that keeps the likelihood monotone).
    """
    if stats.n_students == 0:
        raise ValueError("m_step requires statistics from a non-empty dataset")

    gamma = dict(prev.gamma)
    for node, num in stats.gamma_num.items():
        den = num + stats.gamma_den_extra.get(node, 0.0)
        if den > 0.0:
            gamma[node] = clamp_probability(num / den)
    # The root has no pairwise cell; its prior is the mean root marginal.
    for node in gamma:
        if node not in stats.gamma_num:
            gamma[node] = clamp_probability(stats.root_num / stats.n_students)

    def ratio(pos: float, neg: float, fallback: float) -> float:
        den = pos + neg
        if den <= 0.0:
            return fallback
        return clamp_probability(pos / den)

    epsilon = ratio(stats.eps_pos, stats.eps_neg, prev.epsilon)
    epsilon = min(epsilon, EPSILON_CAP)
    r_easy = ratio(stats.r_pos[Difficulty.EASY], stats.r_neg[Difficulty.EASY],
                   prev.r_easy)
    r_med = ratio(stats.r_pos[Difficulty.MEDIUM], stats.r_neg[Difficulty.MEDIUM],
                  prev.r_med)
    r_hard = ratio(stats.r_pos[Difficulty.HARD], stats.r_neg[Difficulty.HARD],
                   prev.r_hard)

    return Parameters(
        gamma=gamma, r_easy=r_easy, r_med=r_med, r_hard=r_hard, epsilon=epsilon
    )


def fit(
    tree: ConceptTree,
    dataset: Sequence[StudentObservations] | np.ndarray,
    init: Parameters,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> FitReport:
    """Alternate E and M steps until the log-likelihood improvement drops
    below tol or max_iters iterations have been applied. Logs one warning
    summarizing the M-steps that broke the emission ordering, and one if
    max_iters was reached without converging."""
    counts = pack_dataset(tree, dataset)
    if counts.shape[2] == 0:
        raise ValueError("fit requires a non-empty dataset")
    params = init
    trace: list[float] = []
    prev_ll: float | None = None
    converged = False
    iterations = 0
    unordered: list[int] = []
    for _ in range(max_iters):
        stats, ll = e_step(tree, params, counts)
        trace.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) < tol:
            converged = True
            break
        params = m_step(stats, params)
        iterations += 1
        prev_ll = ll
        if not ordering_satisfied(params):
            unordered.append(iterations)
    if unordered:
        logger.warning(
            "emission ordering epsilon < r_hard < r_med < r_easy violated after "
            "%d of %d M-steps, first after M-step %d; final epsilon=%.6g "
            "r_hard=%.6g r_med=%.6g r_easy=%.6g", len(unordered), iterations,
            unordered[0], params.epsilon, params.r_hard, params.r_med, params.r_easy)
    if not converged:
        logger.warning("EM did not converge within max_iters=%d (tol=%g)", max_iters, tol)
    return FitReport(
        params=params,
        log_likelihood_trace=trace,
        iterations=iterations,
        converged=converged,
    )


def one_step_update(
    tree: ConceptTree,
    params: Parameters,
    dataset: Sequence[StudentObservations] | np.ndarray,
) -> Parameters:
    """Exactly one EM iteration; never decreases the dataset likelihood.
    An empty dataset is rejected by m_step."""
    stats, _ = e_step(tree, params, dataset)
    return m_step(stats, params)
