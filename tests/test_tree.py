import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treekt import (
    ConceptNode,
    ConceptTree,
    Difficulty,
    TreeFormatError,
    assign_difficulty,
    load_tree,
    merge_sparse_leaves,
    parse_questions,
    parse_tree,
    serialize_tree,
    traversal_orders,
    validate_tree,
)
from treekt.simulate import random_tree

from conftest import DATA_DIR, chain_tree, single_node_tree, star_tree


def doc(*entries):
    nodes = []
    for e in entries:
        node = {"id": e[0], "label": e[0]}
        if len(e) > 1:
            node["parent"] = e[1]
        nodes.append(node)
    return json.dumps({"nodes": nodes})


class TestParseTree:
    def test_minimal_tree(self):
        tree = parse_tree(doc(("A",), ("B", "A"), ("C", "A")))
        assert tree.root == "A"
        assert sorted(tree.leaves()) == ["B", "C"]

    def test_two_node_cycle_rejected(self):
        with pytest.raises(TreeFormatError):
            parse_tree(doc(("B", "A"), ("A", "B")))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TreeFormatError, match="duplicate"):
            parse_tree(doc(("A",), ("B", "A"), ("B", "A")))

    def test_dangling_parent_rejected(self):
        with pytest.raises(TreeFormatError, match="unknown parent"):
            parse_tree(doc(("A",), ("B", "Z")))

    def test_malformed_document(self):
        with pytest.raises(TreeFormatError):
            parse_tree("{not json")
        with pytest.raises(TreeFormatError):
            parse_tree('{"nodes": "nope"}')

    def test_counting_module_statistics(self):
        tree = parse_tree((DATA_DIR / "counting_module.json").read_text())
        assert len(tree.nodes) == 69
        assert len(tree.leaves()) == 46
        assert tree.depth() == 5

    def test_roundtrip_is_stable(self):
        text = (DATA_DIR / "counting_module.json").read_text()
        tree = parse_tree(text)
        serialized = serialize_tree(tree)
        assert parse_tree(serialized) == tree
        assert serialize_tree(parse_tree(serialized)) == serialized


class TestTreeFileErrors:
    @pytest.mark.parametrize("node, needle", [
        ({"id": ["a"], "parent": "A"}, "nodes[1]: id must be a string, got ['a']"),
        ({"id": 7, "parent": "A"}, "nodes[1]: id must be a string, got 7"),
        ({"id": "B", "label": None, "parent": "A"}, "nodes[1]: label must be a string"),
        ({"id": "B", "parent": 3}, "nodes[1]: parent must be a string, got 3"),
        ({"id": "B", "parent": ["A"]}, "nodes[1]: parent must be a string"),
        ("B", "nodes[1]: bad node entry"),
    ])
    def test_non_string_field_names_the_node(self, node, needle):
        with pytest.raises(TreeFormatError) as exc:
            parse_tree(json.dumps({"nodes": [{"id": "A"}, node]}))
        assert str(exc.value).startswith(needle)

    def test_null_parent_is_the_root(self):
        tree = parse_tree(json.dumps({"nodes": [{"id": "A", "parent": None},
                                                {"id": "B", "parent": "A"}]}))
        assert tree.root == "A"

    @pytest.mark.parametrize("document", [
        "{not json",
        '{"nodes": "nope"}',
        json.dumps({"nodes": [{"id": ["a"]}]}),
        doc(("A",), ("B", "Z")),
        doc(("B", "A"), ("A", "B")),
    ])
    def test_load_tree_starts_every_error_with_the_path(self, tmp_path, document):
        path = tmp_path / "tree.json"
        path.write_text(document)
        with pytest.raises(TreeFormatError) as exc:
            load_tree(str(path))
        assert str(exc.value).startswith(f"{path}: ")
        # An unparseable document stays distinguishable (exit 2, not 1).
        assert isinstance(exc.value.__cause__, json.JSONDecodeError) == (
            document == "{not json")


class TestValidateTree:
    def test_single_node_valid(self):
        assert validate_tree(single_node_tree()).valid

    def test_multiple_parents_reported(self):
        # Hand-assembled inconsistency: C appears under both A and B.
        nodes = {
            "A": ConceptNode("A", "A", None, ("B", "C")),
            "B": ConceptNode("B", "B", "A", ("C",)),
            "C": ConceptNode("C", "C", "A", ()),
        }
        report = validate_tree(ConceptTree(nodes=nodes, root="A"))
        assert any("multiple parents" in v for v in report.violations)

    def test_disconnected_forest_reported(self):
        nodes = {
            "A": ConceptNode("A", "A", None, ()),
            "B": ConceptNode("B", "B", None, ("C",)),
            "C": ConceptNode("C", "C", "B", ()),
        }
        report = validate_tree(ConceptTree(nodes=nodes, root="A"))
        assert any("not connected" in v for v in report.violations)
        assert any("parentless" in v for v in report.violations)

    def test_edge_count_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(1, 40)))
            edges = sum(len(n.children) for n in tree.nodes.values())
            assert edges == len(tree.nodes) - 1
            assert validate_tree(tree).valid


class TestAssignDifficulty:
    def test_default_bins(self):
        assert assign_difficulty(0.80) is Difficulty.EASY
        assert assign_difficulty(0.50) is Difficulty.MEDIUM
        assert assign_difficulty(0.0) is Difficulty.HARD

    def test_boundaries_go_to_easier_bin(self):
        assert assign_difficulty(0.75) is Difficulty.EASY
        assert assign_difficulty(0.50) is Difficulty.MEDIUM

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            assign_difficulty(0.5, thresholds=(0.4, 0.6))

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_total_on_unit_interval(self, rate):
        assert assign_difficulty(rate) in set(Difficulty)


class TestMergeSparseLeaves:
    def test_sparse_leaf_merged_into_parent(self):
        tree = parse_tree(doc(("A",), ("B", "A"), ("C", "A")))
        merged, remap = merge_sparse_leaves(tree, {"B": 3, "C": 12}, min_count=10)
        assert "B" not in merged.nodes
        assert remap["B"] == "A"

    def test_no_sparse_leaves_is_fixpoint(self):
        tree = parse_tree(doc(("A",), ("B", "A"), ("C", "A")))
        merged, remap = merge_sparse_leaves(tree, {"B": 15, "C": 12}, min_count=10)
        assert merged == tree
        assert all(remap[n] == n for n in tree.nodes)

    def test_lone_survivor_pruned(self):
        tree = parse_tree(doc(("A",), ("P", "A"), ("X", "P"), ("Y", "P"), ("Z", "A")))
        counts = {"X": 12, "Y": 4, "Z": 20}
        merged, remap = merge_sparse_leaves(tree, counts, min_count=10)
        # Y merges into P; X is the lone remaining child and is pruned too.
        assert "Y" not in merged.nodes and "X" not in merged.nodes
        assert remap["Y"] == "P" and remap["X"] == "P"
        assert "Z" in merged.nodes

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 30)))
            counts = {n: int(rng.integers(0, 25)) for n in tree.leaves()}
            once, remap1 = merge_sparse_leaves(tree, counts, min_count=10)
            counts_after = {}
            for old, new in remap1.items():
                counts_after[new] = counts_after.get(new, 0) + counts.get(old, 0)
            twice, remap2 = merge_sparse_leaves(once, counts_after, min_count=10)
            assert twice == once
            assert all(remap2[n] == n for n in once.nodes)

    def test_merged_tree_stays_valid(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 30)))
            counts = {n: int(rng.integers(0, 25)) for n in tree.leaves()}
            merged, remap = merge_sparse_leaves(tree, counts, min_count=10)
            assert validate_tree(merged).valid
            assert set(remap.values()) <= set(merged.nodes)


class TestTraversalOrders:
    def test_chain(self):
        up, down = traversal_orders(chain_tree(3))
        assert up == ["n2", "n1", "n0"]
        assert down == ["n0", "n1", "n2"]

    def test_single_node(self):
        up, down = traversal_orders(single_node_tree())
        assert up == ["only"] and down == ["only"]

    def test_star_downward_starts_at_root(self):
        _, down = traversal_orders(star_tree(3))
        assert down[0] == "root"

    def test_orders_are_consistent_permutations(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(1, 40)))
            up, down = traversal_orders(tree)
            assert sorted(up) == sorted(tree.nodes) == sorted(down)
            pos = {n: i for i, n in enumerate(up)}
            for node in tree.nodes:
                for child in tree.children(node):
                    assert pos[child] < pos[node]
            pos = {n: i for i, n in enumerate(down)}
            for node in tree.nodes:
                for child in tree.children(node):
                    assert pos[child] > pos[node]


class TestParseQuestions:
    TREE = parse_tree(doc(("A",), ("B", "A"), ("C", "A")))

    def test_jsonl_with_solve_rate(self):
        text = (
            '{"question_id": "q1", "kc_id": "B", "solve_rate": 0.8}\n'
            '{"question_id": "q2", "kc_id": "C", "solve_rate": 0.2}\n'
        )
        questions = parse_questions(text, self.TREE)
        assert questions[0].difficulty is Difficulty.EASY
        assert questions[1].difficulty is Difficulty.HARD

    def test_csv_with_explicit_difficulty(self):
        text = "question_id,kc_id,difficulty\nq1,B,medium\n"
        (q,) = parse_questions(text, self.TREE)
        assert q.difficulty is Difficulty.MEDIUM

    def test_inconsistent_difficulty_and_rate(self):
        text = '{"question_id": "q1", "kc_id": "B", "solve_rate": 0.9, "difficulty": "hard"}'
        with pytest.raises(TreeFormatError, match="inconsistent"):
            parse_questions(text, self.TREE)

    def test_non_leaf_kc_rejected(self):
        text = '{"question_id": "q1", "kc_id": "A", "difficulty": "easy"}'
        with pytest.raises(TreeFormatError, match="not a leaf"):
            parse_questions(text, self.TREE)

    def test_multi_kc_rejected_by_default(self):
        text = (
            '{"question_id": "q1", "kc_id": "B", "difficulty": "easy"}\n'
            '{"question_id": "q1", "kc_id": "C", "difficulty": "easy"}\n'
            '{"question_id": "q2", "kc_id": "C", "difficulty": "easy"}\n'
        )
        with pytest.raises(TreeFormatError, match="multiple KCs"):
            parse_questions(text, self.TREE)
        questions = parse_questions(text, self.TREE, keep_most_frequent_kc=True)
        assert [q.kc for q in questions] == ["C", "C"]
