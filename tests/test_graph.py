"""Genre-clique graph, normalization, sampling, and attachment."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from genregraph.graph import (
    GENRE_NAMES,
    AttachmentMode,
    GenreLabel,
    IsolatedNodeError,
    NormalizedAdjacency,
    UnknownNodeError,
    attach_unseen,
    build_graph,
    draw_neighbor_positions,
    _NORM_LIMIT,
    extended_adjacency_row,
    genre_cliques,
    nearest,
    normalize,
    row_norms,
)

from conftest import clique_neighbors, draw_neighbors, reference_nearest, reference_normalized_apply


def labels_for(counts):
    """counts: dict genre_index -> node count, in insertion order."""
    out = []
    for gi, n in counts.items():
        out.extend(GenreLabel.from_index(gi) for _ in range(n))
    return out


def edge_count(graph):
    """Edges of the union of cliques: n(n-1)/2 per genre of n songs."""
    sizes = np.bincount(graph.label_indices)
    return int((sizes * (sizes - 1) // 2).sum())


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

    def test_converts_to_its_index(self):
        for i in range(len(GENRE_NAMES)):
            label = GenreLabel.from_index(i)
            assert GENRE_NAMES[label] == label.name
            assert np.asarray([label], dtype=np.int64).tolist() == [i]


class TestGenreCliques:
    """The one grouping of a genre column, which does without np.unique
    because np.unique imports numpy.ma."""

    @given(
        st.lists(
            st.one_of(st.integers(-3, 9), st.integers(-(2**63), 2**63 - 1)), max_size=300
        )
    )
    @example([])
    @example([-(2**63), 2**63 - 1, -1, 0, -(2**63)])
    def test_equals_flatnonzero_per_np_unique_value_for_any_int64_array(self, values):
        genres = np.array(values, dtype=np.int64)
        got = genre_cliques(genres)
        expected = [np.flatnonzero(genres == v) for v in np.unique(genres)]
        assert len(got) == len(expected)
        for members, want in zip(got, expected):
            assert (members.dtype, members.shape) == (want.dtype, want.shape)
            assert members.tobytes() == want.tobytes()
            assert not members.flags.writeable


class TestBuildGraph:
    def test_large_catalog_counts(self):
        graph = build_graph(labels_for({g: 1000 for g in range(8)}))
        assert graph.n_nodes == 8000
        assert edge_count(graph) == 3_996_000

    def test_single_genre_is_complete(self):
        graph = build_graph(labels_for({2: 5}))
        assert edge_count(graph) == 10
        for u in range(5):
            assert sorted(clique_neighbors(graph, u)) == [v for v in range(5) if v != u]
            assert graph.degrees[u] == 4

    def test_one_song_per_genre_is_edgeless(self):
        graph = build_graph(labels_for({g: 1 for g in range(8)}))
        assert graph.n_nodes == 8
        assert edge_count(graph) == 0
        assert not graph.degrees.any()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_graph([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            build_graph(labels_for({0: 2}), node_ids=["a", "a"])

    @pytest.mark.parametrize(
        "genres, node_ids, message",
        [
            ([0, 1, 1], ["a", "b"], "2 ids for 3 genres"),
            ([0, 1], ["a", "a"], "node ids must be unique"),
            ([0, 8, 1], ["a", "b", "c"], "genre index 8 out of range 0..7"),
            ([-1, 0], ["a", "b"], "genre index -1 out of range 0..7"),
        ],
    )
    def test_bad_input_is_one_line_value_error(self, genres, node_ids, message):
        with pytest.raises(ValueError) as info:
            build_graph(np.array(genres), node_ids=node_ids)
        assert str(info.value) == message

    @settings(max_examples=60, deadline=None)
    @given(
        genres=st.lists(st.integers(0, len(GENRE_NAMES) - 1), min_size=1, max_size=60),
        self_loops=st.booleans(),
    )
    def test_label_list_and_index_array_build_the_same_graph(self, genres, self_loops):
        if not self_loops:
            genres = genres + genres  # every clique needs company without self-loops
        from_labels = build_graph([GenreLabel.from_index(g) for g in genres])
        from_indices = build_graph(np.array(genres, dtype=np.int64))
        assert from_labels.label_indices.dtype == from_indices.label_indices.dtype == np.int64
        assert np.array_equal(from_labels.label_indices, from_indices.label_indices)
        assert np.array_equal(from_labels.degrees, from_indices.degrees)
        for g in range(len(GENRE_NAMES)):
            assert np.array_equal(from_labels.genre_members(g), from_indices.genre_members(g))
        x = np.random.default_rng(len(genres)).normal(size=(len(genres), 3))
        a, b = (normalize(g, add_self_loops=self_loops).apply(x) for g in (from_labels, from_indices))
        assert a.tobytes() == b.tobytes()

    def test_the_callers_genre_column_is_copied(self):
        # the counts and cliques are built from the column, so it must not change under them
        genres = np.array([0, 0, 1, 1])
        graph = build_graph(genres)
        genres[0] = 1
        assert graph.label_indices.tolist() == [0, 0, 1, 1]
        assert graph.genre_members(1).tolist() == [2, 3]
        with pytest.raises(ValueError, match="read-only"):
            graph.label_indices[0] = 1

    def test_edges_iff_same_genre(self):
        graph = build_graph(labels_for({0: 3, 4: 2}))
        for u in range(5):
            for v in range(5):
                expected = u != v and (u < 3) == (v < 3)
                assert (v in clique_neighbors(graph, u)) == expected

    def test_degrees_vector(self):
        graph = build_graph(labels_for({0: 3, 4: 2}))
        np.testing.assert_array_equal(graph.degrees, [2, 2, 2, 1, 1])

    def test_unknown_id_lookup(self):
        graph = build_graph(labels_for({0: 2}))
        with pytest.raises(UnknownNodeError):
            graph.index_of("nope")
        assert "nope" not in graph and "song_000001" in graph


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
            rng.permutation([0] * 2 + [3] * 7 + [5] * 4)
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
        # the type itself refuses, so one built directly has no 0/0 row either
        for build in (normalize, lambda g: NormalizedAdjacency(g, self_loops=False)):
            with pytest.raises(IsolatedNodeError, match="lonely"):
                build(graph)
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
        graph = build_graph(np.arange(12) % 3)
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


def genre_columns(self_loops):
    """Shuffled genre columns of up to 12 songs per genre, with their
    seed; without self-loops no genre has a single song."""
    count = st.one_of(st.just(0), st.integers(1 if self_loops else 2, 12))
    counts = st.lists(count, min_size=len(GENRE_NAMES), max_size=len(GENRE_NAMES)).filter(any)
    return st.tuples(counts, st.integers(0, 2**32 - 1))


def column_and_features(counts, seed):
    """The genre column of `counts`, shuffled, and features of widely
    varying magnitude, both drawn from `seed`."""
    rng = np.random.default_rng(seed)
    genres = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    width = int(rng.integers(1, 6))
    features = rng.standard_normal((len(genres), width)) * 10.0 ** rng.uniform(-3, 3, (len(genres), width))
    return genres, features


class TestGcnBlock:
    """normalize(graph).apply(X), the GCN block, from the per-genre sums."""

    @settings(deadline=None)
    @given(self_loops=st.booleans(), data=st.data())
    def test_equals_the_per_clique_loop_byte_for_byte(self, self_loops, data):
        genres, features = column_and_features(*data.draw(genre_columns(self_loops)))
        block = normalize(build_graph(genres), add_self_loops=self_loops).apply(features)
        assert block.tobytes() == reference_normalized_apply(genres, features, self_loops).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(self_loops=st.booleans(), column=genre_columns(self_loops=False))
    def test_equals_the_dense_normalized_adjacency(self, self_loops, column):
        graph = build_graph(column_and_features(*column)[0])
        x = np.random.default_rng(column[1]).standard_normal((graph.n_nodes, 5))
        block = normalize(graph, add_self_loops=self_loops).apply(x)
        np.testing.assert_allclose(block, dense_normalized(graph, self_loops) @ x, atol=1e-12)


class TestSampleNeighbors:
    """draw_neighbors, the reference of the SAGE sampler: a uniform sample."""

    def test_degree_below_k_returns_all(self):
        graph = build_graph(labels_for({0: 4}), node_ids=list("abcd"))
        picks = draw_neighbors(clique_neighbors(graph, 0), 10, np.random.default_rng(0))
        assert picks.tolist() == [1, 2, 3]

    def test_isolated_node_empty(self):
        graph = build_graph(labels_for({0: 1, 1: 2}), node_ids=["solo", "x", "y"])
        assert len(draw_neighbors(clique_neighbors(graph, 0), 5, np.random.default_rng(0))) == 0

    def test_no_duplicates_never_self(self):
        graph = build_graph(labels_for({0: 30}))
        for seed in range(50):
            picks = draw_neighbors(clique_neighbors(graph, 7), 10, np.random.default_rng(seed))
            assert len(picks) == len(set(picks.tolist())) == 10
            assert 7 not in picks

    def test_deterministic(self):
        graph = build_graph(labels_for({0: 30}))
        neighbors = clique_neighbors(graph, 0)
        a = draw_neighbors(neighbors, 5, np.random.default_rng(42))
        assert np.array_equal(a, draw_neighbors(neighbors, 5, np.random.default_rng(42)))

    def test_uniformity_in_k1000(self):
        # 10000 seeds, k=25 over 999 neighbors; chi-square on selection
        # counts plus a generous per-neighbor z bound (a hard 3-sigma cap
        # fails under perfect uniformity once 999 bins are compared)
        graph = build_graph(labels_for({0: 1000}))
        counts = np.zeros(1000)
        n_draws, k = 10_000, 25
        neighbors = clique_neighbors(graph, 0)
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
        k=st.sampled_from([1, 2, 10]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_huge_degrees_reject_often_and_still_match_choice(self, degrees, k, seed):
        # a top bound of 2**31 + 1 rejects about half of its draws, often
        # twice in a row, and each rejection shifts every later row
        degrees = [d for d in degrees if d > k]
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
        folk = GENRE_NAMES.index("Folk")
        picked = attach_unseen(graph, np.zeros(30), AttachmentMode.ORACLE, true_label=folk)
        assert picked.tolist() == list(range(50))
        assert (graph.label_indices[picked] == folk).all()

    def test_oracle_neighbors_cannot_be_written(self):
        # the graph's own member array: a write would corrupt every later aggregation
        graph = build_graph(labels_for({2: 5, 3: 4}))
        picked = attach_unseen(graph, np.zeros(30), AttachmentMode.ORACLE, true_label=3)
        with pytest.raises(ValueError, match="read-only"):
            picked[0] = 0
        assert graph.genre_members(3).tolist() == [5, 6, 7, 8]

    def test_oracle_requires_label(self):
        graph = build_graph(labels_for({0: 3}))
        with pytest.raises(ValueError):
            attach_unseen(graph, np.zeros(30), AttachmentMode.ORACLE)

    def test_oracle_genre_absent_from_the_graph_is_named(self):
        # an empty neighbor set has no mean to embed by
        graph = build_graph(labels_for({0: 3, 1: 2}))
        pop = GENRE_NAMES.index("Pop")
        with pytest.raises(ValueError, match="^no Pop song in the graph to attach to$"):
            attach_unseen(graph, np.zeros(30), AttachmentMode.ORACLE, true_label=pop)

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


class TestNearest:
    @staticmethod
    def full_sort(query, vectors, k, exclude):
        """Reference top-k: a stable argsort of every distance."""
        distances = np.sqrt(((vectors - query) ** 2).sum(axis=1))
        order = np.argsort(distances, kind="stable")[: k + 1]
        order = order[order != exclude][:k]
        return order, distances[order]

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 1)), min_size=1, max_size=30),
        query=st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
        k=st.integers(0, 35),
        exclude=st.integers(-1, 29),
    )
    # every distance ties; the row excluded sits inside, at and past the cut
    @example(rows=[(1, 0)] * 6, query=(0, 0), k=2, exclude=1)
    @example(rows=[(1, 0)] * 6, query=(0, 0), k=2, exclude=2)
    @example(rows=[(1, 0)] * 6, query=(0, 0), k=2, exclude=4)
    @example(rows=[(0, 0), (1, 0), (1, 0), (2, 0)], query=(0, 0), k=4, exclude=2)
    def test_matches_a_full_stable_argsort(self, rows, query, k, exclude):
        # integer-valued vectors in a small box tie often, and k reaches
        # past the row count
        vectors = np.array(rows, dtype=np.float64)
        query = np.array(query, dtype=np.float64)
        ids = [f"s{i}" for i in range(len(rows))]
        order, distances = nearest(query, vectors, ids, k, exclude)
        expected_order, expected_distances = self.full_sort(query, vectors, k, exclude)
        assert order.tobytes() == expected_order.tobytes()
        assert distances.tobytes() == expected_distances.tobytes()
        self.assert_like_reference(query, vectors, k, exclude)

    @staticmethod
    def outcome(search, query, vectors, k, exclude, **norms):
        """A search's row indices and distances as bytes, or its ValueError."""
        ids = [f"s{i}" for i in range(len(vectors))]
        try:
            order, distances = search(query, vectors, ids, k, exclude, **norms)
        except ValueError as exc:
            return str(exc)
        return order.tobytes(), distances.tobytes()

    def assert_like_reference(self, query, vectors, k, exclude):
        """nearest, with its norms given or not, returns what the exhaustive
        reference search returns, or raises its error."""
        expected = self.outcome(reference_nearest, query, vectors, k, exclude)
        assert self.outcome(nearest, query, vectors, k, exclude) == expected
        norms = row_norms(vectors)
        assert self.outcome(nearest, query, vectors, k, exclude, norms=norms) == expected
        return expected

    @staticmethod
    def scene(case, rng, n, dim):
        """Rows and a query where the candidate pass is hardest to get right."""
        if case == "ulps":
            # rows on one ray from the query, a few ulps apart around one distance
            query = rng.standard_normal(dim)
            direction = rng.standard_normal(dim)
            return query, query + direction * (1.0 + rng.integers(-4, 5, size=(n, 1)) * 2.0**-52)
        if case in ("far", "tiny"):
            # a tight cluster of tied rows; from far away the rounding of
            # ‖v‖² - 2v·q dwarfs the gaps between the distances, and near the
            # underflow range it loses them to subnormals
            scale = 10.0 ** (rng.uniform(0, 8) if case == "far" else rng.uniform(-165, -150))
            centre = rng.standard_normal(dim) * scale
            spread = 10.0 ** rng.uniform(-14, -2) * scale
            vectors = centre + spread * rng.integers(-2, 3, size=(n, dim))
            offset = rng.choice([0.0, 1.0, 10.0 ** rng.uniform(0, 4)])
            return centre + offset * spread * rng.standard_normal(dim), vectors
        if case == "guard":
            # squared norms on both sides of the overflow guard
            size = np.sqrt(_NORM_LIMIT / dim)
            vectors = rng.choice([-1.0, 1.0], size=(n, dim)) * size * rng.uniform(0.3, 1.2, (n, 1))
            return rng.choice([-1.0, 1.0], size=dim) * size * rng.uniform(0.0, 0.8), vectors
        # a NaN or infinite query, sometimes a non-finite row too
        vectors, query = rng.standard_normal((n, dim)), rng.standard_normal(dim)
        query[rng.integers(dim)] = rng.choice([np.nan, np.inf, -np.inf])
        if rng.integers(2):
            vectors[rng.integers(n), rng.integers(dim)] = rng.choice([np.nan, np.inf])
        return query, vectors

    @settings(max_examples=500, deadline=None)
    @given(
        case=st.sampled_from(["ulps", "far", "tiny", "guard", "nonfinite"]),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        dim=st.integers(1, 8),
        k=st.integers(0, 45),
        exclude=st.integers(-1, 39),
    )
    def test_matches_the_exhaustive_reference(self, case, seed, n, dim, k, exclude):
        # k + 1 reaches past the row count in some examples: every row is a candidate
        query, vectors = self.scene(case, np.random.default_rng(seed), n, dim)
        self.assert_like_reference(query, vectors, k, exclude)

    @pytest.mark.parametrize("fraction", [0.25, 0.499, 0.501, 0.999, 1.001, 2.0])
    def test_at_the_overflow_guard(self, fraction):
        # the last row's ‖v‖² is fraction * limit and the query is its
        # opposite: S = 2 * fraction * limit passes the guard from 0.5 on,
        # and the last row's squared distance, 4 * fraction * limit, passes
        # the largest float past 1
        dim = 4
        size = np.sqrt(fraction * _NORM_LIMIT / dim)
        steps = np.arange(5.0)[:, None] * np.ones(dim)
        vectors = np.vstack([np.zeros((5, dim)), steps, np.full(dim, size)])
        expected = self.assert_like_reference(-vectors[-1], vectors, 2, -1)
        overflows = fraction > 1
        assert isinstance(expected, str) == overflows
        if overflows:
            assert expected == "distance from the query to 's10' is not finite"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_query_names_the_first_row(self, bad):
        vectors = np.random.default_rng(4).standard_normal((20, 3))
        query = np.array([0.0, bad, 1.0])
        expected = self.assert_like_reference(query, vectors, 3, -1)
        assert expected == "distance from the query to 's0' is not finite"


class TestExtendedAdjacencyRow:
    def test_oracle_attachment_weights_are_uniform(self):
        # attaching to all n members of a clique gives each 1/n
        graph = build_graph(labels_for({0: 6}))
        members = graph.genre_members(0)
        weights, self_w = extended_adjacency_row(len(members), self_loops=False)
        np.testing.assert_allclose(weights, 1.0 / 6.0, atol=1e-15)
        assert self_w == 0.0

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
                    if v in clique_neighbors(graph, u):
                        a[u, v] = 1.0
            for c in chosen:
                a[n, c] = a[c, n] = 1.0
            if self_loops:
                a += np.eye(n + 1)
            row = a[n] / a[n].sum()
            weights, self_w = extended_adjacency_row(len(chosen), self_loops)
            np.testing.assert_allclose(weights, row[chosen], rtol=0, atol=1e-15)
            assert self_w == row[n]
