from pathlib import Path

import numpy as np

from treekt import (
    ConceptTree,
    Difficulty,
    Interaction,
    Parameters,
    build_tree,
    observation_set,
)

DATA_DIR = Path(__file__).parent / "data"


def chain_tree(n: int) -> ConceptTree:
    entries = [("n0", "n0", None)]
    entries += [(f"n{i}", f"n{i}", f"n{i-1}") for i in range(1, n)]
    return build_tree(entries)


def star_tree(n_leaves: int) -> ConceptTree:
    entries = [("root", "root", None)]
    entries += [(f"l{i}", f"l{i}", "root") for i in range(n_leaves)]
    return build_tree(entries)


def caterpillar_tree(spine: int) -> ConceptTree:
    """A path of spine nodes with one leaf under each: depth spine + 1."""
    entries = []
    for i in range(spine):
        entries.append((f"c{i}", f"c{i}", f"c{i-1}" if i else None))
        entries.append((f"l{i}", f"l{i}", f"c{i}"))
    return build_tree(entries)


def single_node_tree() -> ConceptTree:
    return build_tree([("only", "only", None)])


def random_parameters(tree: ConceptTree, rng: np.random.Generator) -> Parameters:
    return Parameters(
        gamma={n: float(rng.uniform(0.05, 0.7)) for n in tree.nodes},
        r_easy=float(rng.uniform(0.82, 0.97)),
        r_med=float(rng.uniform(0.66, 0.86)),
        r_hard=float(rng.uniform(0.45, 0.72)),
        epsilon=float(rng.uniform(0.02, 0.3)),
    )


def random_instance(rng: np.random.Generator, max_nodes=12, max_obs=30):
    """A random (tree, params, observations) triple for oracle cross-checks."""
    from treekt.simulate import random_tree

    n_nodes = int(rng.integers(2, max_nodes + 1))
    tree = random_tree(rng, n_nodes)
    params = random_parameters(tree, rng)
    return tree, params, random_observations(tree, rng, max_obs)


def random_observations(tree: ConceptTree, rng: np.random.Generator, max_obs=30):
    """Up to max_obs random responses on random leaves."""
    leaves = tree.leaves()
    difficulties = list(Difficulty)
    interactions = []
    for i in range(int(rng.integers(0, max_obs + 1))):
        leaf = leaves[int(rng.integers(len(leaves)))]
        d = difficulties[int(rng.integers(3))]
        interactions.append(
            Interaction(f"q{i}", leaf, d, int(rng.integers(2)))
        )
    return observation_set(tree, interactions)
