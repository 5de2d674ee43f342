"""Exact posterior inference: one array kernel over a batch of students.

The kernel takes response counts packed as [V, 6, S] (nodes in breadth-first
order x CELL_KEYS x students) and runs the upward-downward recursion of the
hidden Markov tree on every student at once: upward one tree level at a
time, downward in ceil(log2 depth) pointer-doubling steps. A single student
is a batch of one. Responses are packed through one slot table built with
the tree's plan. Counts make every posterior independent of the order
responses arrived in, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .model import ParameterError, Parameters
from .tree import ConceptTree, Difficulty, QuestionMeta

#: The (difficulty, correct) cell of each slot on axis 1 of packed counts.
CELL_KEYS = tuple((d, c) for d in Difficulty for c in (0, 1))
#: Per cell: its rate's position in (r_easy, r_med, r_hard), and whether
#: it is a correct response.
_CELL_RATE_CORRECT = tuple((list(Difficulty).index(d), c) for d, c in CELL_KEYS)


class InferenceError(ValueError):
    """Raised for observations outside the tree."""


@dataclass(frozen=True)
class Interaction:
    """One observed response to a question labeled with a leaf concept."""

    question_id: str
    kc: str
    difficulty: Difficulty
    correct: int


@dataclass(frozen=True)
class ObservationSet:
    """A student's response history, grouped by concept.

    counts maps node id -> {(difficulty, correct): multiplicity}; it is the
    canonical order-free form the kernel packs.
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


class KernelPlan:
    """Breadth-first numbering of a tree, so each level is a contiguous slice.

    levels: root first, (slice, parent level's slice, dense 0/1 incidence
    [parent level, level]); the root level has only its slice. Index V
    stands for "above the root" and is its own ancestor. parent: each node's
    parent index (V for the root). jumps: per pointer-doubling step k, the
    2**k-th ancestor of each node; there are ceil(log2 depth) steps. slots:
    (leaf, difficulty, correct) -> its flat cell in a [V, 6] column of
    packed counts."""

    def __init__(self, tree: ConceptTree):
        order, bounds = [tree.root], [(0, 1)]
        while True:
            a, b = bounds[-1]
            order.extend(c for node in order[a:b] for c in tree.children(node))
            if len(order) == b:
                break
            bounds.append((b, len(order)))
        self.order = tuple(order)
        self.index = {node: v for v, node in enumerate(order)}
        above = len(order)
        parents = [self.index[tree.parent(node)] for node in order[1:]]
        ancestor = np.array([above] + parents + [above], dtype=np.intp)
        self.parent = ancestor[:above]
        self.levels = [(slice(0, 1), None, None)]
        for (a, b), (pa, pb) in zip(bounds[1:], bounds):
            incidence = np.zeros((pb - pa, b - a))
            incidence[self.parent[a:b] - pa, np.arange(b - a)] = 1.0
            self.levels.append((slice(a, b), slice(pa, pb), incidence))
        self.jumps = []
        for _ in range((len(bounds) - 1).bit_length()):
            self.jumps.append(ancestor[:above])
            ancestor = ancestor[ancestor]
        self.slots = {
            (node, difficulty, correct): v * len(CELL_KEYS) + k
            for v, node in enumerate(order) if tree.is_leaf(node)
            for k, (difficulty, correct) in enumerate(CELL_KEYS)
        }


def kernel_plan(tree: ConceptTree) -> KernelPlan:
    """The tree's plan, built on first use and kept with the (immutable) tree."""
    if "_kernel_plan" not in tree.__dict__:
        tree.__dict__["_kernel_plan"] = KernelPlan(tree)
    return tree.__dict__["_kernel_plan"]


def leaf_error(tree: ConceptTree, kc: str) -> InferenceError:
    """The error for a response labeled with kc, which is not a leaf."""
    if kc not in tree:
        return InferenceError(f"observation references unknown KC {kc!r}")
    return InferenceError(f"observation KC {kc!r} is not a leaf")


def _slot_error(tree: ConceptTree, it: Interaction) -> InferenceError:
    """Why a response has no cell in the tree's slot table."""
    if it.kc not in tree or not tree.is_leaf(it.kc):
        return leaf_error(tree, it.kc)
    if it.correct not in (0, 1):
        return InferenceError(f"correct must be 0 or 1, got {it.correct!r}")
    return InferenceError(f"difficulty must be a Difficulty, got {it.difficulty!r}")


def cell_slots(tree: ConceptTree, interactions: Collection[Interaction]) -> list[int]:
    """Each response's flat cell in a [V, 6] column of packed counts.
    Raises InferenceError for a response outside the tree's leaves."""
    slots = kernel_plan(tree).slots
    try:
        return [slots[it.kc, it.difficulty, it.correct] for it in interactions]
    except KeyError:
        for it in interactions:
            if (it.kc, it.difficulty, it.correct) not in slots:
                raise _slot_error(tree, it) from None
        raise


def pack_counts(
    tree: ConceptTree, histories: Sequence[Collection[Interaction]]
) -> np.ndarray:
    """Response counts of each history (interactions or an ObservationSet),
    one column each, as [V, 6, S], through the tree's slot table."""
    plan = kernel_plan(tree)
    n = len(histories)
    counts = np.zeros((len(plan.order), len(CELL_KEYS), n))
    flat = [slot * n + s for s, history in enumerate(histories)
            for slot in cell_slots(tree, history)]
    np.add.at(counts.reshape(-1), flat, 1.0)
    return counts


class LogParameters(NamedTuple):
    """Parameters in the kernel's log form, one column per parameter set:
    a single column is shared by every counts column, K columns give each
    counts column its own set."""

    log_gamma: np.ndarray  # [V, K], nodes in plan order
    log1m_gamma: np.ndarray  # [V, K]
    log_e1: np.ndarray  # [6, K], log-emission at mastery per cell
    log_ratio: np.ndarray  # [6, K], unmastered minus mastered


def _log_column(plan: KernelPlan, params: Parameters) -> np.ndarray:
    """One parameter set in log form, [2V + 12]: log gamma, log(1 - gamma),
    log_e1 and log_ratio. Every node must have a gamma (Parameters checks
    the ranges); the column is built once and kept with the (immutable)
    parameters."""
    cached = params.__dict__.get("_log_column")
    if cached is not None and cached[0] is plan:
        return cached[1]
    try:
        probs = [params.gamma[node] for node in plan.order]
    except KeyError as exc:
        raise ParameterError(f"gamma has no value for node {exc.args[0]!r}") from None
    probs += [params.r_easy, params.r_med, params.r_hard, params.epsilon]
    log_p = [math.log(p) for p in probs]
    log_q = [math.log1p(-p) for p in probs]
    v = len(plan.order)
    log_e1 = [log_p[v + r] if c else log_q[v + r] for r, c in _CELL_RATE_CORRECT]
    log_e0 = [log_p[-1] if c else log_q[-1] for _, c in _CELL_RATE_CORRECT]
    column = np.array(log_p[:v] + log_q[:v] + log_e1
                      + [e0 - e1 for e0, e1 in zip(log_e0, log_e1)])
    params.__dict__["_log_column"] = (plan, column)
    return column


def log_parameters(
    tree: ConceptTree, params: Parameters | Sequence[Parameters], repeat: int = 1
) -> LogParameters:
    """One column for a parameter set; for a sequence, one per set, each
    repeated for `repeat` consecutive counts columns (one shared column if
    every entry is the same set)."""
    plan = kernel_plan(tree)
    many = params if isinstance(params, Sequence) else [params]
    if all(p is many[0] for p in many):
        stacked = _log_column(plan, many[0])[:, None]
    else:
        stacked = np.stack([_log_column(plan, p) for p in many], axis=1)
        stacked = stacked.repeat(repeat, axis=1)
    v = len(plan.order)
    return LogParameters(stacked[:v], stacked[v:2 * v], stacked[2 * v:2 * v + 6],
                         stacked[2 * v + 6:])


@dataclass(frozen=True, eq=False)
class BatchPosteriors:
    """Kernel output, node axis in plan order. cells holds the (child,
    parent) cells (0, 0), (1, 0), (1, 1); (0, 1) is zero, as a mastered
    parent entails the child. The root's parent counts as unmastered."""

    plan: KernelPlan
    marginal: np.ndarray  # [V, S]
    cells: np.ndarray  # [3, V, S]
    log_likelihood: np.ndarray  # [S]


def batch_posteriors(
    tree: ConceptTree, params: Parameters | LogParameters, counts: np.ndarray
) -> BatchPosteriors:
    """The kernel: posteriors of every column of packed counts [V, 6, C],
    under log-parameters with one shared column or one column per counts
    column (a Parameters value is one shared column).

    A mastered node forces its subtree, so its upward message lb1 is a sum
    of log-emissions and only the message bt0 to an unmastered parent needs
    a log-sum-exp; both are kept relative to lb1. The upward pass runs one
    tree level at a time. The downward pass runs on conditional
    probabilities (Durand, Goncalves & Guedon, IEEE TSP 2004): a node's
    log-probability of being unmastered is a sum along its root path, which
    pointer doubling forms in ceil(log2 depth) steps.
    """
    plan = kernel_plan(tree)
    if not isinstance(params, LogParameters):
        params = log_parameters(tree, params)
    log_gamma, log1m_gamma, log_e1, log_ratio = params
    # shifted = lb0 - lb1 + log(1 - gamma) and up = bt0 - lb1, per node.
    shared = log_ratio.shape[1] == 1  # then a matmul does the emission sums
    if shared:
        shifted = log_ratio[:, 0] @ counts
    else:
        shifted = np.einsum("vkc,kc->vc", counts, log_ratio)
    shifted += log1m_gamma
    up = np.empty_like(shifted)
    for here, above, incidence in reversed(plan.levels):
        # Every child of this level has already added its message.
        level_up = up[here]
        np.logaddexp(log_gamma[here], shifted[here], out=level_up)
        if incidence is not None:
            parents = shifted[above]
            np.add(parents, incidence.dot(level_up), out=parents)
    # lb1 of the root is every response's log-emission at mastery.
    if shared:
        log_likelihood = log_e1[:, 0] @ counts.sum(axis=0)
    else:
        log_likelihood = np.einsum("kc,kc->c", counts.sum(axis=0), log_e1)
    log_likelihood += up[0]

    # log P(v unmastered) sums log P(u unmastered | parent unmastered, data)
    # = shifted - up over v and its ancestors; each is <= 0 exactly. Row V,
    # above the root, stays 0. After doubling step k a node's row holds the
    # sum over the node and its 2**(k+1) - 1 nearest ancestors.
    buf = np.empty((len(plan.order) + 1, shifted.shape[1]))
    buf[-1] = 0.0
    log_p0 = np.subtract(shifted, up, out=buf[:-1])
    for jump in plan.jumps:
        log_p0 += buf.take(jump, axis=0)  # a copy: every row reads step k - 1
    parent_log_p0 = buf.take(plan.parent, axis=0)
    cells = np.stack([np.exp(log_p0), np.exp(parent_log_p0 + log_gamma - up),
                      -np.expm1(parent_log_p0)])
    return BatchPosteriors(plan, -np.expm1(log_p0), cells, log_likelihood)


@dataclass(frozen=True, eq=False)
class BeliefTable:
    """One student's posteriors by node id: a read-only view of one column
    of a kernel result."""

    result: BatchPosteriors
    column: int = 0

    @property
    def log_likelihood(self) -> float:
        return float(self.result.log_likelihood[self.column])

    def posterior_mastery(self, node_id: str) -> float:
        if node_id not in self.result.plan.index:
            raise InferenceError(f"unknown KC: {node_id!r}")
        return float(self.result.marginal[self.result.plan.index[node_id], self.column])

    @cached_property
    def marginal(self) -> Mapping[str, float]:
        values = self.result.marginal[:, self.column].tolist()
        return MappingProxyType(dict(zip(self.result.plan.order, values)))

    @cached_property
    def pairwise(self) -> Mapping[str, Mapping[tuple[int, int], float]]:
        """(child state, parent state) -> posterior, for every non-root node."""
        rows = zip(self.result.plan.order, *self.result.cells[:, :, self.column].tolist())
        next(rows)  # the root
        return MappingProxyType({
            node: MappingProxyType({(0, 0): p00, (1, 0): p10, (0, 1): 0.0, (1, 1): p11})
            for node, p00, p10, p11 in rows
        })


@dataclass(frozen=True)
class Prediction:
    question_id: str
    prob_correct: float
    posterior_mastery: float


def posteriors(
    tree: ConceptTree, params: Parameters, obs: ObservationSet
) -> BeliefTable:
    """Full table for one student: marginals, pairwise posteriors, and data
    log-likelihood."""
    return BeliefTable(batch_posteriors(tree, params, pack_counts(tree, [obs])))


def predict(
    params: Parameters, belief: BeliefTable, question: QuestionMeta
) -> Prediction:
    """Blend mastered/unmastered correctness rates with the posterior."""
    p1 = belief.posterior_mastery(question.kc)
    phi = params.phi(question.difficulty)
    prob = (1.0 - p1) * params.epsilon + p1 * phi
    return Prediction(
        question_id=question.question_id,
        prob_correct=prob,
        posterior_mastery=p1,
    )


def log_likelihood(
    tree: ConceptTree, params: Parameters, obs: ObservationSet
) -> float:
    """Log-probability of the observed responses under the model."""
    return posteriors(tree, params, obs).log_likelihood

