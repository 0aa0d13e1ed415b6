"""Genre-clique graph, normalization, sampling, and attachment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from genregraph.graph import (
    GENRE_NAMES,
    AttachmentMode,
    GenreLabel,
    IsolatedNodeError,
    UnknownNodeError,
    attach_unseen,
    build_graph,
    draw_neighbor_positions,
    draw_neighbors,
    extended_adjacency_row,
    normalize,
)


def labels_for(counts):
    """counts: dict genre_index -> node count, in insertion order."""
    out = []
    for gi, n in counts.items():
        out.extend(GenreLabel.from_index(gi) for _ in range(n))
    return out


def dense_normalized(graph, self_loops):
    """Brute-force dense D^-1/2 A D^-1/2 oracle."""
    n = graph.n_nodes
    a = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            if u != v and graph.label_indices[u] == graph.label_indices[v]:
                a[u, v] = 1.0
    if self_loops:
        a += np.eye(n)
    d = a.sum(axis=1)
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def dense_of(graph, self_loops=False):
    """The normalized adjacency as a dense matrix: its product with I."""
    return normalize(graph, add_self_loops=self_loops).apply(np.eye(graph.n_nodes))


class TestGenreLabel:
    def test_bijection(self):
        assert len(GENRE_NAMES) == 8
        for i, name in enumerate(GENRE_NAMES):
            label = GenreLabel.from_index(i)
            assert label.name == name
            assert GenreLabel.from_name(name).index == i

    def test_names(self):
        assert GENRE_NAMES == (
            "Electronic",
            "Experimental",
            "Folk",
            "Hip-Hop",
            "Instrumental",
            "International",
            "Pop",
            "Rock",
        )

    def test_bad_index(self):
        with pytest.raises(ValueError):
            GenreLabel.from_index(8)

    def test_bad_name(self):
        with pytest.raises(ValueError):
            GenreLabel.from_name("Jazz")

    def test_mismatched_pair_rejected(self):
        with pytest.raises(ValueError):
            GenreLabel(index=0, name="Rock")


class TestBuildGraph:
    def test_large_catalog_counts(self):
        graph = build_graph(labels_for({g: 1000 for g in range(8)}))
        assert graph.n_nodes == 8000
        assert graph.edge_count == 3_996_000

    def test_single_genre_is_complete(self):
        graph = build_graph(labels_for({2: 5}))
        assert graph.edge_count == 10
        for u in range(5):
            assert sorted(graph.neighbors(u)) == [v for v in range(5) if v != u]
            assert graph.degrees[u] == 4

    def test_one_song_per_genre_is_edgeless(self):
        graph = build_graph(labels_for({g: 1 for g in range(8)}))
        assert graph.n_nodes == 8
        assert graph.edge_count == 0
        assert not graph.degrees.any()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_graph([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build_graph(labels_for({0: 2}), node_ids=["a", "a"])

    def test_edges_iff_same_genre(self):
        graph = build_graph(labels_for({0: 3, 4: 2}))
        for u in range(5):
            for v in range(5):
                expected = u != v and (u < 3) == (v < 3)
                assert (v in graph.neighbors(u)) == expected

    def test_degrees_vector(self):
        graph = build_graph(labels_for({0: 3, 4: 2}))
        np.testing.assert_array_equal(graph.degrees, [2, 2, 2, 1, 1])

    def test_unknown_id_lookup(self):
        graph = build_graph(labels_for({0: 2}))
        with pytest.raises(UnknownNodeError):
            graph.index_of("nope")


class TestNormalize:
    def test_triangle_no_self_loops(self):
        graph = build_graph(labels_for({0: 3}))
        mat = dense_of(graph)
        expected = np.full((3, 3), 0.5)
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_allclose(mat, expected)

    def test_triangle_with_self_loops(self):
        graph = build_graph(labels_for({0: 3}))
        mat = dense_of(graph, self_loops=True)
        np.testing.assert_allclose(mat, np.full((3, 3), 1.0 / 3.0))

    def test_two_cliques_against_dense_oracle(self):
        graph = build_graph(labels_for({1: 3, 6: 5}))
        rng = np.random.default_rng(1)
        shuffled = build_graph(
            [GenreLabel.from_index(int(g)) for g in rng.permutation([0] * 2 + [3] * 7 + [5] * 4)]
        )
        for g in (graph, shuffled):
            for self_loops in (False, True):
                ours = dense_of(g, self_loops)
                np.testing.assert_allclose(ours, dense_normalized(g, self_loops), atol=1e-12)
        mat = dense_of(graph)
        assert np.all(mat[:3, 3:] == 0.0) and np.all(mat[3:, :3] == 0.0)
        assert mat[0, 1] == pytest.approx(0.5)
        assert mat[3, 4] == pytest.approx(0.25)

    def test_isolated_node_without_self_loops_named(self):
        graph = build_graph(labels_for({0: 2, 3: 1}), node_ids=["a", "b", "lonely"])
        with pytest.raises(IsolatedNodeError, match="lonely"):
            normalize(graph)
        # self-loops make the degree positive again
        mat = dense_of(graph, self_loops=True)
        assert mat[2, 2] == pytest.approx(1.0)

    def test_row_sums_exactly_one_within_cliques(self):
        graph = build_graph(labels_for({0: 10, 1: 4, 5: 7}))
        sums = normalize(graph).apply(np.ones((graph.n_nodes, 1))).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_row_sums_bounded_with_self_loops(self):
        graph = build_graph(labels_for({0: 10, 1: 4}))
        sums = normalize(graph, add_self_loops=True).apply(np.ones((graph.n_nodes, 1)))
        assert np.all(sums <= 1.0 + 1e-9)

    def test_block_diagonal_under_shuffled_order(self):
        # interleave genres; cross-genre entries must still be exactly zero
        labels = [GenreLabel.from_index(i % 3) for i in range(12)]
        graph = build_graph(labels)
        mat = dense_of(graph)
        for u in range(12):
            for v in range(12):
                if u % 3 != v % 3:
                    assert mat[u, v] == 0.0

    def test_apply_matches_dense_matmul(self):
        graph = build_graph(labels_for({0: 4, 2: 3}))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 5))
        for self_loops in (False, True):
            adj = normalize(graph, add_self_loops=self_loops)
            expected = dense_normalized(graph, self_loops) @ x
            np.testing.assert_allclose(adj.apply(x), expected, atol=1e-12)
        with pytest.raises(ValueError):
            adj.apply(x[:-1])


class TestSampleNeighbors:
    """draw_neighbors, the sampler behind SAGE catalog and query rows."""

    def test_degree_below_k_returns_all(self):
        graph = build_graph(labels_for({0: 4}), node_ids=list("abcd"))
        picks = draw_neighbors(graph.neighbors(0), 10, np.random.default_rng(0))
        assert picks.tolist() == [1, 2, 3]

    def test_isolated_node_empty(self):
        graph = build_graph(labels_for({0: 1, 1: 2}), node_ids=["solo", "x", "y"])
        assert len(draw_neighbors(graph.neighbors(0), 5, np.random.default_rng(0))) == 0

    def test_no_duplicates_never_self(self):
        graph = build_graph(labels_for({0: 30}))
        for seed in range(50):
            picks = draw_neighbors(graph.neighbors(7), 10, np.random.default_rng(seed))
            assert len(picks) == len(set(picks.tolist())) == 10
            assert 7 not in picks

    def test_deterministic(self):
        graph = build_graph(labels_for({0: 30}))
        a = draw_neighbors(graph.neighbors(0), 5, np.random.default_rng(42))
        assert np.array_equal(a, draw_neighbors(graph.neighbors(0), 5, np.random.default_rng(42)))

    def test_uniformity_in_k1000(self):
        # 10000 seeds, k=25 over 999 neighbors; chi-square on selection
        # counts plus a generous per-neighbor z bound (a hard 3-sigma cap
        # fails under perfect uniformity once 999 bins are compared)
        graph = build_graph(labels_for({0: 1000}))
        counts = np.zeros(1000)
        n_draws, k = 10_000, 25
        neighbors = graph.neighbors(0)
        for seed in range(n_draws):
            counts[draw_neighbors(neighbors, k, np.random.default_rng(seed))] += 1
        counts = np.delete(counts, 0)
        expected = n_draws * k / 999
        assert chisquare(counts).pvalue > 0.01
        sigma = np.sqrt(n_draws * (k / 999) * (1 - k / 999))
        assert np.max(np.abs(counts - expected) / sigma) < 4.5


class TestDrawNeighborPositions:
    """draw_neighbor_positions, the batched sampler behind SAGE catalog rows."""

    @staticmethod
    def choice_loop(degrees, k, seed):
        rng = np.random.default_rng(seed)
        rows = [rng.choice(int(d), size=k, replace=False) for d in degrees]
        return np.array(rows, dtype=np.int64).reshape(len(degrees), k)

    @settings(max_examples=40, deadline=None)
    @given(
        degrees=st.lists(
            st.sampled_from([3, 11, 12, 10_001, 2**31 + 1, 3 * 2**30, 2**32 - 1]), max_size=80
        ),
        k=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_huge_degrees_reject_often_and_still_match_choice(self, degrees, k, seed):
        # a top bound of 2**31 + 1 rejects about half of its draws, often
        # twice in a row, and each rejection shifts every later row
        out = draw_neighbor_positions(np.array(degrees, dtype=np.int64), k, seed)
        assert out.tobytes() == self.choice_loop(degrees, k, seed).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(
        degrees=st.lists(st.sampled_from([300, 511, 10_002, 10_050, 2**31 + 1]), max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_of_every_kind_in_one_call_match_choice(self, degrees, seed):
        # at k = 201, 10,002 takes numpy's tail shuffle, 10,050 is a Floyd
        # row just past that threshold, and 2**31 + 1 rejects about half of
        # its draws, so block rows, rows after a rejection and tail rows mix
        out = draw_neighbor_positions(np.array(degrees, dtype=np.int64), 201, seed)
        assert out.tobytes() == self.choice_loop(degrees, 201, seed).tobytes()

    def test_blocks_join_on_the_stream(self):
        degrees = np.random.default_rng(3).integers(11, 40, size=10_000)
        out = draw_neighbor_positions(degrees, 10, seed=5)
        assert out.tobytes() == self.choice_loop(degrees, 10, 5).tobytes()

    def test_degree_not_above_k_rejected(self):
        with pytest.raises(ValueError):
            draw_neighbor_positions(np.array([5, 3]), 3, seed=0)


class TestAttachUnseen:
    def test_oracle_returns_full_genre(self):
        labels = labels_for({2: 50, 3: 30})
        graph = build_graph(labels)
        picked = attach_unseen(
            graph, np.zeros(30), AttachmentMode.ORACLE, true_label=GenreLabel.from_name("Folk")
        )
        assert picked.tolist() == list(range(50))
        assert all(graph.labels[p].name == "Folk" for p in picked)

    def test_oracle_requires_label(self):
        graph = build_graph(labels_for({0: 3}))
        with pytest.raises(ValueError):
            attach_unseen(graph, np.zeros(30), AttachmentMode.ORACLE)

    def test_knn_exact_match_is_single_neighbor(self):
        graph = build_graph(labels_for({0: 3, 1: 2}))
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((5, 30))
        picked = attach_unseen(
            graph, feats[3].copy(), AttachmentMode.FEATURE_KNN, k=1, train_features=feats
        )
        assert picked.tolist() == [3]

    def test_knn_matches_brute_force_sort(self):
        rng = np.random.default_rng(8)
        labels = labels_for({0: 10, 1: 10, 2: 10, 3: 10})
        graph = build_graph(labels)
        feats = rng.standard_normal((40, 30))
        query = rng.standard_normal(30)
        picked = attach_unseen(
            graph, query, AttachmentMode.FEATURE_KNN, k=5, train_features=feats
        )
        dists = np.linalg.norm(feats - query, axis=1)
        expected = sorted(np.argsort(dists, kind="stable")[:5])
        assert picked.tolist() == expected

    def test_knn_exact_ties_break_by_node_index(self):
        # rows 20..39 repeat rows 0..19, so every distance comes twice; with
        # k odd, the last pick is a tie between i and i + 20 and takes i
        rng = np.random.default_rng(8)
        graph = build_graph(labels_for({0: 10, 1: 10, 2: 10, 3: 10}))
        half = rng.standard_normal((20, 30))
        feats = np.vstack([half, half])
        query = rng.standard_normal(30)
        picked = attach_unseen(graph, query, AttachmentMode.FEATURE_KNN, k=5, train_features=feats)
        dists = [sum((a - b) ** 2 for a, b in zip(row, query)) for row in half]
        nearest_three = sorted(range(20), key=dists.__getitem__)[:3]
        assert picked.tolist() == sorted([*nearest_three, *(i + 20 for i in nearest_three[:2])])

    def test_knn_overflowing_distance_names_the_node(self):
        # 1e155 squared overflows: one ValueError, no numpy warning
        graph = build_graph(labels_for({0: 3, 1: 3}), node_ids=[f"s{i}" for i in range(6)])
        feats = np.zeros((6, 30))
        feats[4] = 1e155
        with pytest.raises(ValueError, match="'s4' is not finite"):
            attach_unseen(graph, np.ones(30), AttachmentMode.FEATURE_KNN, k=2, train_features=feats)

    def test_knn_requires_features(self):
        graph = build_graph(labels_for({0: 3}))
        with pytest.raises(ValueError):
            attach_unseen(graph, np.zeros(30), AttachmentMode.FEATURE_KNN, k=2)


class TestExtendedAdjacencyRow:
    def test_oracle_attachment_weights_are_uniform(self):
        # attaching to all n members of a clique gives each 1/n
        graph = build_graph(labels_for({0: 6}))
        members = graph.genre_members(0)
        weights, self_w = extended_adjacency_row(len(members), self_loops=False)
        np.testing.assert_allclose(weights, 1.0 / 6.0, atol=1e-15)
        assert self_w == 0.0

    def test_empty_neighbor_set(self):
        weights, self_w = extended_adjacency_row(0, False)
        assert weights.size == 0 and self_w == 0.0
        weights, self_w = extended_adjacency_row(0, True)
        assert weights.size == 0 and self_w == 1.0

    def test_matches_dense_extended_graph(self):
        # oracle: build the (n+1)-node graph densely; the new node's row of
        # D^-1 A is the mean over its neighbors (and itself, with self-loops)
        graph = build_graph(labels_for({0: 4, 1: 3}))
        chosen = np.array([0, 1, 4], dtype=np.int64)
        n = graph.n_nodes
        for self_loops in (False, True):
            a = np.zeros((n + 1, n + 1))
            for u in range(n):
                for v in range(n):
                    if v in graph.neighbors(u):
                        a[u, v] = 1.0
            for c in chosen:
                a[n, c] = a[c, n] = 1.0
            if self_loops:
                a += np.eye(n + 1)
            row = a[n] / a[n].sum()
            weights, self_w = extended_adjacency_row(len(chosen), self_loops)
            np.testing.assert_allclose(weights, row[chosen], rtol=0, atol=1e-15)
            assert self_w == row[n]
