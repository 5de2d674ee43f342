"""Model parameters and transition/emission kernels.

The parameter vector holds one mastery-transmission probability per concept
node, three correctness-given-mastery probabilities (one per difficulty
class), and a single guessing probability for unmastered concepts. EM and
the kernel carry it as a float column (Parameters.column); a Parameters
value is what the API hands out and reads in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .tree import ConceptTree, Difficulty

#: All probabilities are kept strictly inside (0,1) to avoid absorbing states.
PARAM_FLOOR = 1e-6
#: Hard ceiling on the guessing probability after every EM update.
EPSILON_CAP = 0.3

DEFAULT_GAMMA = 0.1
DEFAULT_R_EASY = 0.9
DEFAULT_R_MED = 0.8
DEFAULT_R_HARD = 0.75
DEFAULT_EPSILON = 0.1

#: Each difficulty's success rate by its position in (r_easy, r_med,
#: r_hard). A Difficulty is a str, so its value finds the same entry.
RATE_INDEX = {d: r for r, d in enumerate(Difficulty)}


class ParameterError(ValueError):
    """A parameter is missing for a node or lies outside (0, 1)."""


@dataclass(frozen=True)
class Parameters:
    """Immutable parameter value; updates produce new instances. Every
    probability must lie in (0, 1); ParameterError names the one that
    does not."""

    gamma: Mapping[str, float]
    r_easy: float
    r_med: float
    r_hard: float
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", MappingProxyType(dict(self.gamma)))
        bad = [(f"gamma of node {node!r}", p) for node, p in self.gamma.items()
               if not 0.0 < p < 1.0]
        bad += [(name, getattr(self, name))
                for name in ("r_easy", "r_med", "r_hard", "epsilon")
                if not 0.0 < getattr(self, name) < 1.0]
        if bad:
            raise ParameterError("{} is {!r}, outside (0, 1)".format(*bad[0]))

    def gamma_of(self, node_id: str) -> float:
        try:
            return self.gamma[node_id]
        except KeyError:
            raise KeyError(f"unknown node: {node_id!r}") from None

    def phi(self, difficulty: Difficulty) -> float:
        """The success rate at mastery; ValueError names a non-difficulty."""
        try:
            return (self.r_easy, self.r_med, self.r_hard)[RATE_INDEX[difficulty]]
        except KeyError:
            raise ValueError(f"difficulty must be a Difficulty, got {difficulty!r}") from None

    def column(self, order: Sequence[str]) -> np.ndarray:
        """θ as one float column [V + 4]: γ of each node in order, then
        r_easy, r_med, r_hard and ε. ParameterError names the first node of
        order with no γ."""
        try:
            gamma = [self.gamma[node] for node in order]
        except KeyError as exc:
            raise ParameterError(f"gamma has no value for node {exc.args[0]!r}") from None
        return np.array(gamma + [self.r_easy, self.r_med, self.r_hard, self.epsilon])

    @classmethod
    def from_column(cls, order: Sequence[str], column: np.ndarray) -> "Parameters":
        """The value of a θ column whose γ rows follow order."""
        *gamma, r_easy, r_med, r_hard, epsilon = column.tolist()
        return cls(dict(zip(order, gamma)), r_easy, r_med, r_hard, epsilon)

    def with_gamma(self, gamma: Mapping[str, float]) -> "Parameters":
        return replace(self, gamma=dict(gamma))

    def to_json(self) -> str:
        doc = {
            "gamma": dict(self.gamma),
            "r_easy": self.r_easy,
            "r_med": self.r_med,
            "r_hard": self.r_hard,
            "epsilon": self.epsilon,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, document: str) -> "Parameters":
        doc = json.loads(document)
        return cls(
            gamma={str(k): float(v) for k, v in doc["gamma"].items()},
            r_easy=float(doc["r_easy"]),
            r_med=float(doc["r_med"]),
            r_hard=float(doc["r_hard"]),
            epsilon=float(doc["epsilon"]),
        )


def default_parameters(tree: ConceptTree) -> Parameters:
    """Standard initialization used before any fitting."""
    return Parameters(
        gamma={node: DEFAULT_GAMMA for node in tree.nodes},
        r_easy=DEFAULT_R_EASY,
        r_med=DEFAULT_R_MED,
        r_hard=DEFAULT_R_HARD,
        epsilon=DEFAULT_EPSILON,
    )


def ordering_satisfied(params: Parameters) -> bool:
    """epsilon < r_hard < r_med < r_easy."""
    return params.epsilon < params.r_hard < params.r_med < params.r_easy


def clamp_probability(p):
    """p, or each element of an array p, held to [PARAM_FLOOR, 1 - PARAM_FLOOR]."""
    return np.minimum(np.maximum(p, PARAM_FLOOR), 1.0 - PARAM_FLOOR)


def transition_prob(
    params: Parameters,
    node: str,
    child_state: int,
    parent_state: int | None,
) -> float:
    """P(child mastery state | parent mastery state).

    A mastered parent entails mastery of the child. For the root the parent
    state is None and the value is the root prior.
    """
    gamma = params.gamma_of(node)
    if parent_state is None or parent_state == 0:
        p_mastered = gamma
    else:
        p_mastered = 1.0
    return p_mastered if child_state == 1 else 1.0 - p_mastered


def emission_prob(
    params: Parameters,
    difficulty: Difficulty,
    correct: int,
    mastery: int,
) -> float:
    """P(answer correctness | mastery of the labeled concept). ValueError
    names a difficulty that is not a Difficulty or its value."""
    phi = params.phi(difficulty)
    p_correct = phi if mastery == 1 else params.epsilon
    return p_correct if correct == 1 else 1.0 - p_correct
