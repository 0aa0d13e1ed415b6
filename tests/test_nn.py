"""Layer forward passes, softmax cross-entropy, manual backprop, and Adam."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genregraph.graph import GenreLabel, build_graph, normalize
from genregraph.nn import (
    ARCHITECTURE,
    EMBED_DIM,
    GCN_GRAPH_PARAM_COUNT,
    INPUT_DIM,
    MLP_HIDDEN,
    N_GENRES,
    PLAIN_MLP_PARAM_COUNT,
    SAGE_GRAPH_PARAM_COUNT,
    AdamState,
    EmbeddingModel,
    LayerParams,
    Variant,
    adam_step,
    build_model,
    embedding_forward,
    embedding_loss_and_grads,
    init_layer,
    mlp_forward,
    mlp_loss_and_grads,
    sampled_neighbor_means,
    softmax_cross_entropy,
)
from genregraph.train import TrainConfig, graph_block

from conftest import (
    clique_neighbors,
    draw_neighbors,
    reference_mlp_forward,
    reference_mlp_loss_and_grads,
)


def labels_for(counts):
    """counts: dict genre_index -> node count, in insertion order."""
    out = []
    for gi, n in counts.items():
        out.extend(GenreLabel.from_index(gi) for _ in range(n))
    return out


def dense_normalized(graph, self_loops=False):
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


def random_layer(in_dim, out_dim, rng, scale=1.0):
    """Layer with nonzero weights AND nonzero bias, unlike init_layer."""
    return LayerParams(
        weight=rng.normal(scale=scale, size=(in_dim, out_dim)),
        bias=rng.normal(scale=scale, size=out_dim),
    )


def naive_affine_relu(block, layer, relu=True):
    """Row-by-row, unit-by-unit affine layer; the slow reference."""
    n = block.shape[0]
    out = np.zeros((n, layer.out_dim))
    for v in range(n):
        for j in range(layer.out_dim):
            acc = layer.bias[j]
            for i in range(layer.in_dim):
                acc += block[v, i] * layer.weight[i, j]
            out[v, j] = max(acc, 0.0) if relu else acc
    return out


def gcn_forward(graph, feats, layer, self_loops=False):
    return embedding_forward(normalize(graph, add_self_loops=self_loops).apply(feats), layer)


def sage_forward(graph, feats, layer, sample_k, seed):
    cfg = TrainConfig(variant=Variant.SAGE, sage_sample_k=sample_k)
    return embedding_forward(graph_block(Variant.SAGE, graph, feats, cfg, seed), layer)


def stable_loss(logits, targets):
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), targets].mean())


class TestGcnForward:
    def test_single_self_loop_node_zero_features(self):
        graph = build_graph(labels_for({0: 1}))
        layer = random_layer(INPUT_DIM, EMBED_DIM, np.random.default_rng(0))
        out = gcn_forward(graph, np.zeros((1, INPUT_DIM)), layer, self_loops=True)
        assert np.array_equal(out[0], np.maximum(layer.bias, 0.0))

    def test_identical_rows_are_a_fixed_point_of_aggregation(self):
        # In K_3 each normalized row sums to 1, so A_hat X == X when all
        # feature rows coincide and the layer sees x itself.
        rng = np.random.default_rng(1)
        x = rng.normal(size=INPUT_DIM)
        graph = build_graph(labels_for({2: 3}))
        layer = random_layer(INPUT_DIM, EMBED_DIM, rng)
        out = gcn_forward(graph, np.tile(x, (3, 1)), layer)
        expected = np.maximum(x @ layer.weight + layer.bias, 0.0)
        for row in out:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_matches_naive_loops_on_two_cliques(self):
        rng = np.random.default_rng(2)
        graph = build_graph(labels_for({0: 2, 5: 3}))
        feats = rng.normal(size=(5, INPUT_DIM))
        layer = random_layer(INPUT_DIM, EMBED_DIM, rng)
        out = gcn_forward(graph, feats, layer)
        expected = naive_affine_relu(dense_normalized(graph) @ feats, layer)
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_rejects_mismatched_shapes(self):
        graph = build_graph(labels_for({0: 3}))
        layer = random_layer(INPUT_DIM, EMBED_DIM, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gcn_forward(graph, np.zeros((3, INPUT_DIM + 1)), layer)
        with pytest.raises(ValueError):
            gcn_forward(graph, np.zeros((4, INPUT_DIM)), layer)

    def test_repeat_calls_are_bit_identical(self):
        rng = np.random.default_rng(3)
        graph = build_graph(labels_for({1: 4, 3: 4}))
        feats = rng.normal(size=(8, INPUT_DIM))
        layer = random_layer(INPUT_DIM, EMBED_DIM, rng)
        first = gcn_forward(graph, feats, layer)
        second = gcn_forward(graph, feats, layer)
        assert np.array_equal(first, second)

    @settings(max_examples=50, deadline=None)
    @given(
        genres=st.lists(st.integers(0, N_GENRES - 1), min_size=2, max_size=40),
        self_loops=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuting_nodes_permutes_embeddings(self, genres, self_loops, seed):
        if not self_loops and min(np.bincount(genres)[np.unique(genres)]) < 2:
            genres = genres + genres  # every clique needs company without self-loops
        rng = np.random.default_rng(seed)
        labels = [GenreLabel.from_index(g) for g in genres]
        feats = rng.normal(size=(len(labels), INPUT_DIM))
        layer = random_layer(INPUT_DIM, EMBED_DIM, rng)
        perm = rng.permutation(len(labels))
        out = gcn_forward(build_graph(labels), feats, layer, self_loops)
        permuted = gcn_forward(build_graph([labels[i] for i in perm]), feats[perm], layer, self_loops)
        np.testing.assert_allclose(permuted, out[perm], rtol=0, atol=1e-12)


class TestSampledNeighborMeans:
    def test_sample_is_a_k_subset_of_neighbors(self):
        # One-hot feature rows turn each mean into a membership indicator:
        # exactly sample_k entries of value 1/k, none of them the node itself.
        graph = build_graph(labels_for({0: 10}))
        feats = np.eye(10)
        k = 4
        means = sampled_neighbor_means(graph, feats, sample_k=k, seed=7)
        for v in range(10):
            chosen = np.nonzero(means[v])[0]
            assert len(chosen) == k
            assert v not in chosen
            np.testing.assert_allclose(means[v][chosen], 1.0 / k)

    def test_degree_at_most_k_uses_every_neighbor(self):
        graph = build_graph(labels_for({0: 3, 1: 1}))
        feats = np.arange(8.0).reshape(4, 2)
        means = sampled_neighbor_means(graph, feats, sample_k=5, seed=0)
        np.testing.assert_allclose(means[0], feats[[1, 2]].mean(axis=0))
        assert np.array_equal(means[3], np.zeros(2))

    def test_same_seed_same_sample(self):
        graph = build_graph(labels_for({0: 12}))
        feats = np.random.default_rng(4).normal(size=(12, 6))
        a = sampled_neighbor_means(graph, feats, sample_k=3, seed=11)
        b = sampled_neighbor_means(graph, feats, sample_k=3, seed=11)
        assert np.array_equal(a, b)

    def test_rejects_sample_k_below_one(self):
        graph = build_graph(labels_for({0: 3}))
        with pytest.raises(ValueError):
            sampled_neighbor_means(graph, np.zeros((3, 2)), sample_k=0, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([1, 10, 25]),
        sizes=st.lists(st.sampled_from(["1", "2", "k", "k+1", "512"]), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_node_draw_neighbors_loop(self, k, sizes, seed):
        # Shuffled cliques interleave the genres, so the per-node draws must
        # come in node order, not clique by clique, to match the reference.
        counts = [{"1": 1, "2": 2, "k": k, "k+1": k + 1, "512": 512}[s] for s in sizes]
        rng = np.random.default_rng(seed)
        genres = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        graph = build_graph(genres)
        feats = rng.normal(size=(len(genres), 5)) * 10.0 ** rng.uniform(-3, 3, size=5)

        reference = np.zeros_like(feats)
        draws = np.random.default_rng(seed)
        for v in range(graph.n_nodes):
            neighbors = clique_neighbors(graph, v)
            if len(neighbors):
                reference[v] = feats[draw_neighbors(neighbors, k, draws)].mean(axis=0)

        means = sampled_neighbor_means(graph, feats, sample_k=k, seed=seed)
        assert means.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "clique, k, seed, alone",
        [
            (10_001, 10, 1, 0),  # one draw that numpy rejects and redoes inside integers
            (10_002, 201, 0, 10_002),  # degree > 10,000, k > degree // 50: the tail shuffle
            (3, 1, 0, 0),  # k = 1, degree = k + 1
            (12, 10, 0, 0),  # degree = k + 1
        ],
    )
    def test_rows_walked_alone_equal_the_per_node_loop(self, monkeypatch, clique, k, seed, alone):
        graph = build_graph(labels_for({0: clique, 1: 3}))
        feats = np.random.default_rng(seed).normal(size=(graph.n_nodes, 3))

        reference = np.zeros_like(feats)
        draws = np.random.default_rng(seed)
        for v in range(graph.n_nodes):
            reference[v] = feats[draw_neighbors(clique_neighbors(graph, v), k, draws)].mean(axis=0)

        # rows the sampler does not vectorize go to the generator's own choice
        chosen = []

        class CountingGenerator(np.random.Generator):
            def choice(self, *args, **kwargs):
                chosen.append(args[0])
                return super().choice(*args, **kwargs)

        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: CountingGenerator(np.random.PCG64(seed))
        )
        means = sampled_neighbor_means(graph, feats, sample_k=k, seed=seed)
        assert len(chosen) == alone
        assert means.tobytes() == reference.tobytes()


class TestSageForward:
    def test_isolated_node_sees_zero_neighbor_half(self):
        rng = np.random.default_rng(5)
        graph = build_graph(labels_for({0: 1, 4: 3}))
        feats = rng.normal(size=(4, INPUT_DIM))
        layer = random_layer(2 * INPUT_DIM, EMBED_DIM, rng)
        out = sage_forward(graph, feats, layer, sample_k=10, seed=0)
        concat = np.concatenate([feats[0], np.zeros(INPUT_DIM)])
        expected = np.maximum(concat @ layer.weight + layer.bias, 0.0)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)
        assert np.all(np.isfinite(out))

    def test_identical_rows_in_clique_concat_self_with_self(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=INPUT_DIM)
        graph = build_graph(labels_for({3: 5}))
        layer = random_layer(2 * INPUT_DIM, EMBED_DIM, rng)
        out = sage_forward(graph, np.tile(x, (5, 1)), layer, sample_k=4, seed=9)
        expected = np.maximum(np.concatenate([x, x]) @ layer.weight + layer.bias, 0.0)
        for row in out:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_matches_naive_loops_with_full_neighborhoods(self):
        # sample_k equals the max degree, so no sampling happens and the
        # neighbor mean is an exact average we can recompute by hand.
        rng = np.random.default_rng(7)
        graph = build_graph(labels_for({1: 3, 6: 3}))
        feats = rng.normal(size=(6, INPUT_DIM))
        layer = random_layer(2 * INPUT_DIM, EMBED_DIM, rng)
        out = sage_forward(graph, feats, layer, sample_k=2, seed=123)

        block = np.zeros((6, 2 * INPUT_DIM))
        for v in range(6):
            neighbors = [u for u in range(6) if u != v and graph.label_indices[u] == graph.label_indices[v]]
            block[v, :INPUT_DIM] = feats[v]
            block[v, INPUT_DIM:] = feats[neighbors].mean(axis=0)
        expected = naive_affine_relu(block, layer)
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_same_seed_is_bit_identical_under_sampling(self):
        rng = np.random.default_rng(8)
        graph = build_graph(labels_for({0: 20}))
        feats = rng.normal(size=(20, INPUT_DIM))
        layer = random_layer(2 * INPUT_DIM, EMBED_DIM, rng)
        a = sage_forward(graph, feats, layer, sample_k=3, seed=42)
        b = sage_forward(graph, feats, layer, sample_k=3, seed=42)
        assert np.array_equal(a, b)


FORWARD_THREADS_SCRIPT = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "2"
import time
import numpy as np
from genregraph.nn import embedding_forward, init_layer

rng = np.random.default_rng(0)
layer, block = init_layer(60, 60, rng), rng.standard_normal((4096, 60))
time.sleep(0.5)  # the BLAS threads started at import are asleep by now
process, thread = time.process_time(), time.thread_time()
embedding_forward(block, layer)
time.sleep(0.05)  # a helper thread woken by the product would spin here
print((time.process_time() - process) - (time.thread_time() - thread))
"""


class TestEmbeddingForward:
    """The forward takes block W in row blocks: 145 rows at 30 inputs and
    72 at 60, so row counts around those cover one, several and a partial
    last block."""

    @pytest.mark.parametrize("rows", [0, 1, 71, 72, 73, 145, 146, 300])
    @pytest.mark.parametrize("in_dim", [INPUT_DIM, 2 * INPUT_DIM])
    def test_matches_a_blas_free_product_and_leaves_its_inputs(self, rows, in_dim):
        rng = np.random.default_rng(rows + in_dim)
        block = rng.normal(size=(rows, in_dim))
        layer = random_layer(in_dim, EMBED_DIM, rng)
        inputs = [block, layer.weight, layer.bias]
        before = [a.tobytes() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        out = embedding_forward(block, layer)
        expected = np.maximum(np.einsum("ij,jk->ik", block, layer.weight) + layer.bias, 0.0)
        np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)
        assert [a.tobytes() for a in inputs] == before

    def test_leaves_the_blas_helper_threads_asleep(self, fresh_python):
        # a 4,096 x 60 product in one call is past OpenBLAS's one-thread
        # cutoff; a helper thread it wakes spins on after the call returns
        done = fresh_python(FORWARD_THREADS_SCRIPT)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 0.005


class TestMlpForward:
    def test_zero_inputs_and_zero_biases_give_zero_logits(self):
        model = build_model(Variant.PLAIN, seed=0)
        logits = mlp_forward(np.zeros((4, INPUT_DIM)), model.mlp)
        assert np.array_equal(logits, np.zeros((4, N_GENRES)))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(9)
        mlp = [
            random_layer(INPUT_DIM, MLP_HIDDEN[0], rng),
            random_layer(MLP_HIDDEN[0], MLP_HIDDEN[1], rng),
            random_layer(MLP_HIDDEN[1], N_GENRES, rng),
        ]
        inputs = rng.normal(size=(3, INPUT_DIM))
        out = mlp_forward(inputs, mlp)
        hidden = naive_affine_relu(inputs, mlp[0])
        hidden = naive_affine_relu(hidden, mlp[1])
        expected = naive_affine_relu(hidden, mlp[2], relu=False)
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_rejects_wrong_input_width(self):
        model = build_model(Variant.PLAIN, seed=0)
        with pytest.raises(ValueError):
            mlp_forward(np.zeros((2, INPUT_DIM + 3)), model.mlp)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_cost_log_n_classes(self):
        loss, dlogits = softmax_cross_entropy(np.zeros((5, N_GENRES)), np.arange(5) % N_GENRES)
        assert abs(loss - np.log(N_GENRES)) < 1e-12
        assert dlogits.shape == (5, N_GENRES)

    def test_probabilities_recovered_from_gradient_sum_to_one(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(scale=3.0, size=(6, N_GENRES))
        targets = rng.integers(0, N_GENRES, size=6)
        _, dlogits = softmax_cross_entropy(logits, targets)
        onehot = np.zeros((6, N_GENRES))
        onehot[np.arange(6), targets] = 1.0
        probs = dlogits * 6 + onehot
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_saturated_correct_class(self):
        logits = np.zeros((1, N_GENRES))
        logits[0, 3] = 50.0
        loss, dlogits = softmax_cross_entropy(logits, np.array([3]))
        assert loss < 1e-12
        assert np.max(np.abs(dlogits)) < 1e-12

    def test_exactly_fitted_batch_costs_positive_zero(self):
        # every target's log-probability is exactly 0.0, and so is the mean
        logits = np.zeros((2, N_GENRES))
        logits[[0, 1], [3, 5]] = 1e3
        loss, _ = softmax_cross_entropy(logits, np.array([3, 5]))
        assert loss == 0.0 and np.copysign(1.0, loss) == 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(4, N_GENRES))
        targets = rng.integers(0, N_GENRES, size=4)
        _, dlogits = softmax_cross_entropy(logits, targets)
        h = 1e-5
        for idx in np.ndindex(logits.shape):
            bumped = logits.copy()
            bumped[idx] += h
            up, _ = softmax_cross_entropy(bumped, targets)
            bumped[idx] -= 2 * h
            down, _ = softmax_cross_entropy(bumped, targets)
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(dlogits[idx]), 1e-8)
            assert abs(numeric - dlogits[idx]) / denom < 1e-6

    def test_huge_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        loss, dlogits = softmax_cross_entropy(logits, np.array([1]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(dlogits))

    def test_rejects_bad_targets(self):
        logits = np.zeros((2, N_GENRES))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([0, N_GENRES]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([-1, 0]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([0, 1, 2]))


class TestAdam:
    def test_first_step_moves_each_coordinate_by_about_lr(self):
        rng = np.random.default_rng(12)
        grad = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-3, 4, size=(3, 4))
        params = [np.zeros((3, 4))]
        state = AdamState.for_params(params, lr=0.01)
        adam_step(params, [grad], state)
        # m_hat/sqrt(v_hat) == g/|g| after one step, so every coordinate
        # moves by lr regardless of gradient magnitude.
        np.testing.assert_allclose(params[0], -0.01 * np.sign(grad), rtol=1e-5)

    def test_zero_gradient_leaves_params_untouched(self):
        params = [np.full((2, 2), 7.0)]
        state = AdamState.for_params(params, lr=0.5)
        adam_step(params, [np.zeros((2, 2))], state)
        assert np.array_equal(params[0], np.full((2, 2), 7.0))
        assert state.t == 1

    def test_updates_happen_in_place(self):
        weight = np.ones((2, 3))
        params = [weight]
        state = AdamState.for_params(params, lr=0.1)
        out, _ = adam_step(params, [np.ones((2, 3))], state)
        assert out[0] is weight
        assert not np.array_equal(weight, np.ones((2, 3)))

    def test_descends_a_quadratic(self):
        theta = np.array([1.0])
        params = [theta]
        state = AdamState.for_params(params, lr=0.01)
        history = [theta[0]]
        for _ in range(10):
            adam_step(params, [2.0 * theta], state)
            history.append(theta[0])
        diffs = np.diff(np.abs(history))
        assert np.all(diffs < 0.0)
        assert np.all(np.array(history) > 0.0)

    def test_rejects_mismatched_shapes_and_lengths(self):
        params = [np.zeros(3)]
        state = AdamState.for_params(params, lr=0.1)
        with pytest.raises(ValueError):
            adam_step(params, [np.zeros(4)], state)
        with pytest.raises(ValueError):
            adam_step(params, [np.zeros(3), np.zeros(3)], state)


class TestParameterCounts:
    def test_gcn_layer_is_30_by_60_plus_bias(self):
        model = build_model(Variant.GCN, seed=0)
        assert model.graph_layer.weight.shape == (INPUT_DIM, EMBED_DIM)
        assert model.graph_layer.param_count == GCN_GRAPH_PARAM_COUNT == 1860
        assert model.embed_head.param_count == EMBED_DIM * N_GENRES + N_GENRES == 488

    def test_sage_layer_doubles_the_input_width(self):
        model = build_model(Variant.SAGE, seed=0)
        assert model.graph_layer.weight.shape == (2 * INPUT_DIM, EMBED_DIM)
        assert model.graph_layer.param_count == SAGE_GRAPH_PARAM_COUNT == 3660

    def test_plain_mlp_total(self):
        model = build_model(Variant.PLAIN, seed=0)
        assert model.graph_layer is None and model.embed_head is None
        shapes = [(l.weight.shape, l.bias.shape) for l in model.mlp]
        assert shapes == [
            ((INPUT_DIM, 128), (128,)),
            ((128, 32), (32,)),
            ((32, N_GENRES), (N_GENRES,)),
        ]
        assert sum(l.param_count for l in model.mlp) == PLAIN_MLP_PARAM_COUNT == 8360

    def test_graph_variants_classify_from_60_dims(self):
        for variant in (Variant.GCN, Variant.SAGE):
            model = build_model(variant, seed=0)
            assert model.mlp[0].weight.shape == (EMBED_DIM, 128)
            assert sum(l.param_count for l in model.mlp) == 12200
            assert model.graph_layer.out_dim == EMBED_DIM

    def test_architecture_table_holds_the_pinned_counts(self):
        def count(shape):
            return shape[0] * shape[1] + shape[1]

        assert count(ARCHITECTURE[Variant.GCN][0]) == GCN_GRAPH_PARAM_COUNT
        assert count(ARCHITECTURE[Variant.SAGE][0]) == SAGE_GRAPH_PARAM_COUNT
        assert sum(map(count, ARCHITECTURE[Variant.PLAIN][2:])) == PLAIN_MLP_PARAM_COUNT
        for variant in Variant:
            model = build_model(variant, seed=0)
            layers = (model.graph_layer, model.embed_head, *model.mlp)
            assert tuple(layer and layer.weight.shape for layer in layers) == ARCHITECTURE[variant]

    def test_wrong_graph_layer_size_is_rejected(self):
        # 61 x 30 + 30 parameters: the GCN graph layer's count in another shape
        model = build_model(Variant.GCN, seed=0)
        bad = random_layer(INPUT_DIM + 31, INPUT_DIM, np.random.default_rng(0))
        assert bad.param_count == GCN_GRAPH_PARAM_COUNT
        message = "gcn layers must be 30x60, 60x8, 60x128, 128x32, 32x8, not 61x30, 60x8, 60x128, 128x32, 32x8"
        with pytest.raises(ValueError, match=f"^{message}$"):
            EmbeddingModel(model.cfg, graph_layer=bad, embed_head=model.embed_head, mlp=model.mlp)
        with pytest.raises(ValueError, match="^gcn layers must be"):
            EmbeddingModel(model.cfg, graph_layer=bad, embed_head=None, mlp=[])

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_every_layer_has_its_architecture_shape(self, variant):
        # each layer in turn one input wider, a classifier layer short, and
        # the graph layer and head of a PLAIN model given to a graph variant
        # or the other way round
        model, rng = build_model(variant, seed=0), np.random.default_rng(0)
        layers = [model.graph_layer, model.embed_head, *model.mlp]
        wrong = [
            [*layers[:i], random_layer(layer.in_dim + 1, layer.out_dim, rng), *layers[i + 1 :]]
            for i, layer in enumerate(layers)
            if layer is not None
        ]
        other = build_model(Variant.GCN if variant is Variant.PLAIN else Variant.PLAIN, seed=0)
        wrong += [layers[:-1], [other.graph_layer, other.embed_head, *model.mlp]]
        for graph_layer, embed_head, *mlp in wrong:
            with pytest.raises(ValueError, match=f"^{variant.value} layers must be "):
                EmbeddingModel(model.cfg, graph_layer, embed_head, mlp)

    def test_final_layers_start_at_zero(self):
        for variant in Variant:
            model = build_model(variant, seed=3)
            assert np.array_equal(model.mlp[-1].weight, np.zeros((model.mlp[-1].in_dim, N_GENRES)))
            if model.embed_head is not None:
                assert np.array_equal(model.embed_head.weight, np.zeros((EMBED_DIM, N_GENRES)))

    def test_init_layer_bound_and_seeding(self):
        rng = np.random.default_rng(21)
        layer = init_layer(100, 50, rng)
        assert np.max(np.abs(layer.weight)) <= 0.1
        assert np.array_equal(layer.bias, np.zeros(50))
        again = init_layer(100, 50, np.random.default_rng(21))
        assert np.array_equal(layer.weight, again.weight)


def finite_difference_grads(loss_fn, arrays, analytic, h=1e-5):
    """Central differences for every coordinate of every array.

    loss_fn() must read the current contents of `arrays` and return
    (loss, relu_mask). Coordinates whose bump flips any ReLU activation
    are excluded; returns (checked, passed, kinked) counts.
    """
    checked = passed = kinked = 0
    for arr, grad in zip(arrays, analytic):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, mask_up = loss_fn()
            flat[i] = orig - h
            down, mask_down = loss_fn()
            flat[i] = orig
            if not np.array_equal(mask_up, mask_down):
                kinked += 1
                continue
            numeric = (up - down) / (2 * h)
            checked += 1
            denom = max(abs(numeric), abs(gflat[i]), 1e-8)
            if abs(numeric - gflat[i]) / denom < 1e-4:
                passed += 1
    return checked, passed, kinked


class TestEmbeddingGradients:
    def _check_variant(self, variant):
        rng = np.random.default_rng(13)
        graph = build_graph(labels_for({0: 4, 7: 4}))
        feats = rng.normal(size=(8, INPUT_DIM))
        targets = np.array([0, 0, 0, 0, 7, 7, 7, 7])
        # Scale 0.3 keeps the softmax well away from saturation; at unit
        # scale the logits blow up and a tail of coordinates carries
        # gradients below what central differences can resolve.
        width = INPUT_DIM if variant is Variant.GCN else 2 * INPUT_DIM
        layer = random_layer(width, EMBED_DIM, rng, scale=0.3)
        head = random_layer(EMBED_DIM, N_GENRES, rng, scale=0.3)

        cfg = TrainConfig(variant=variant, sage_sample_k=3)
        loss, grads = embedding_loss_and_grads(
            graph_block(variant, graph, feats, cfg, 77), targets, layer, head
        )

        # The aggregation block does not depend on the parameters, so it is
        # computed once; sample_k equals the clique degree, so the SAGE
        # neighbor means are full averages and reproducible here.
        if variant is Variant.GCN:
            block = dense_normalized(graph) @ feats
        else:
            means = np.zeros_like(feats)
            for v in range(8):
                others = [u for u in range(8) if u != v and graph.label_indices[u] == graph.label_indices[v]]
                means[v] = feats[others].mean(axis=0)
            block = np.hstack([feats, means])

        def naive_loss():
            z1 = block @ layer.weight + layer.bias
            hidden = np.maximum(z1, 0.0)
            logits = hidden @ head.weight + head.bias
            return stable_loss(logits, targets), z1 > 0

        loss0, _ = naive_loss()
        assert abs(loss0 - loss) < 1e-12

        arrays = [layer.weight, layer.bias, head.weight, head.bias]
        checked, passed, kinked = finite_difference_grads(naive_loss, arrays, grads)
        total = checked + kinked
        assert kinked < 0.05 * total
        assert passed >= 0.99 * checked

    def test_gcn_gradients_match_finite_differences(self):
        self._check_variant(Variant.GCN)

    def test_sage_gradients_match_finite_differences(self):
        self._check_variant(Variant.SAGE)

    def test_duplicated_batch_keeps_gradients_fixed(self):
        # The loss is a mean, so feeding every node's row twice through the
        # classifier must not change any gradient.
        rng = np.random.default_rng(14)
        inputs = rng.normal(size=(5, 6))
        targets = rng.integers(0, 4, size=5)
        mlp = [
            random_layer(6, 9, rng),
            random_layer(9, 7, rng),
            random_layer(7, 4, rng),
        ]
        loss_once, grads_once = mlp_loss_and_grads(inputs, targets, mlp)
        loss_twice, grads_twice = mlp_loss_and_grads(
            np.vstack([inputs, inputs]), np.concatenate([targets, targets]), mlp
        )
        assert abs(loss_once - loss_twice) < 1e-12
        for a, b in zip(grads_once, grads_twice):
            assert np.max(np.abs(a - b)) < 1e-10


class TestMlpGradients:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(15)
        inputs = rng.normal(size=(6, 7))
        targets = rng.integers(0, 5, size=6)
        mlp = [
            random_layer(7, 9, rng),
            random_layer(9, 8, rng),
            random_layer(8, 5, rng),
        ]
        loss, grads = mlp_loss_and_grads(inputs, targets, mlp)

        def naive_loss():
            z1 = inputs @ mlp[0].weight + mlp[0].bias
            h1 = np.maximum(z1, 0.0)
            z2 = h1 @ mlp[1].weight + mlp[1].bias
            h2 = np.maximum(z2, 0.0)
            logits = h2 @ mlp[2].weight + mlp[2].bias
            mask = np.concatenate([(z1 > 0).ravel(), (z2 > 0).ravel()])
            return stable_loss(logits, targets), mask

        loss0, _ = naive_loss()
        assert abs(loss0 - loss) < 1e-12

        arrays = []
        for l in mlp:
            arrays.extend([l.weight, l.bias])
        checked, passed, kinked = finite_difference_grads(naive_loss, arrays, grads)
        total = checked + kinked
        assert kinked < 0.05 * total
        assert passed >= 0.99 * checked

    def test_dead_unit_gets_exactly_zero_gradient(self):
        rng = np.random.default_rng(16)
        inputs = rng.uniform(-1.0, 1.0, size=(10, 5))
        targets = rng.integers(0, 3, size=10)
        mlp = [
            random_layer(5, 6, rng),
            random_layer(6, 4, rng),
            random_layer(4, 3, rng),
        ]
        # Unit 2 of the first layer can never fire: bias -100 dominates any
        # bounded input, so its weights and outgoing row get no signal.
        mlp[0].bias[2] = -100.0
        _, grads = mlp_loss_and_grads(inputs, targets, mlp)
        d_w1, d_b1, d_w2 = grads[0], grads[1], grads[2]
        assert np.array_equal(d_w1[:, 2], np.zeros(5))
        assert d_b1[2] == 0.0
        assert np.array_equal(d_w2[2, :], np.zeros(4))
        assert np.max(np.abs(d_w1)) > 0.0


# every dense stack the model trains: each graph layer under its head, and
# each classifier, as (in_dim, out_dim) per layer
DENSE_STACKS = sorted(
    {stack for shapes in ARCHITECTURE.values() for stack in (shapes[:2], shapes[2:]) if None not in stack}
)


class TestDenseStepMatchesTheReference:
    """The step keeps one array per hidden layer and masks the backward by
    activation > 0; the reference keeps every pre-activation too. Every
    loss, logit and gradient byte must be the reference's."""

    @given(
        stack=st.sampled_from(DENSE_STACKS),
        rows=st.integers(1, 40),
        scale=st.sampled_from([1.0, 1e150, 1e300, 1e307]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_bytes_equal_the_reference(self, stack, rows, scale, seed):
        rng = np.random.default_rng(seed)
        mlp = []
        for in_dim, out_dim in stack:
            layer = random_layer(in_dim, out_dim, rng)
            # biases of +0.0 and -0.0 beside zero input rows and zero weight
            # columns make pre-activations that are exactly zero
            pick = rng.integers(0, 3, size=out_dim)
            layer.bias[pick == 1] = 0.0
            layer.bias[pick == 2] = -0.0
            layer.weight[:, rng.random(out_dim) < 0.1] = 0.0
            mlp.append(layer)
        inputs = rng.normal(scale=scale, size=(rows, stack[0][0]))
        inputs[rng.random(rows) < 0.25] = 0.0
        targets = rng.integers(0, stack[-1][1], size=rows)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = mlp_loss_and_grads(inputs, targets, mlp)
            ref_loss, ref_grads = reference_mlp_loss_and_grads(inputs, targets, mlp)
            logits, ref_logits = mlp_forward(inputs, mlp), reference_mlp_forward(inputs, mlp)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert logits.tobytes() == ref_logits.tobytes()
        assert len(grads) == len(ref_grads) == 2 * len(mlp)
        for got, expected in zip(grads, ref_grads):
            assert (got.shape, got.tobytes()) == (expected.shape, expected.tobytes())

    def test_activation_mask_equals_the_pre_activation_mask(self):
        z = np.array([-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, np.inf, np.nan, -np.nan])
        assert np.array_equal(np.maximum(z, 0.0) > 0, z > 0)


class TestDenseStepMemory:
    """One training step holds one n-row array per layer: the backward
    writes each hidden layer's delta into that layer's activation. A unit
    is n floats per first hidden column; a new array for each delta peaks
    at 2.4-2.8 units, and the reference at 4.0-4.3."""

    @pytest.mark.parametrize("rows", [360, 4096])
    def test_peak_is_a_few_hidden_arrays(self, rows):
        self.assert_peaks(ARCHITECTURE[Variant.GCN][2:], rows)

    @pytest.mark.parametrize("rows", [360, 4096])
    def test_graph_layer_peak_is_a_few_hidden_arrays(self, rows):
        self.assert_peaks(ARCHITECTURE[Variant.GCN][:2], rows)

    @staticmethod
    def assert_peaks(stack, rows):
        rng = np.random.default_rng(rows)
        mlp = [random_layer(*shape, rng) for shape in stack]
        inputs = rng.normal(size=(rows, stack[0][0]))
        targets = rng.integers(0, N_GENRES, size=rows)
        unit = rows * stack[0][1] * 8
        peaks = []
        for step in (lambda: mlp_loss_and_grads(inputs, targets, mlp), lambda: mlp_forward(inputs, mlp)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1] / unit)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2.0, peaks
        assert peaks[1] <= 1.5, peaks


class TestCliqueContraction:
    @pytest.mark.parametrize("n", [10, 100])
    def test_pairwise_distances_shrink_by_spectral_bound(self, n):
        # Inside K_n the aggregated rows are means of the other n-1 rows,
        # so pre-activation differences are (x_v - x_u) W / (n - 1) and the
        # ReLU can only shrink them further.
        rng = np.random.default_rng(17 + n)
        graph = build_graph(labels_for({0: n}))
        feats = rng.normal(size=(n, INPUT_DIM)) * 5.0
        layer = random_layer(INPUT_DIM, EMBED_DIM, rng)
        pre = normalize(graph).apply(feats) @ layer.weight + layer.bias
        post = gcn_forward(graph, feats, layer)
        spectral = np.linalg.norm(layer.weight, 2)
        bound = spectral / (n - 1)

        for u in range(n):
            for v in range(u + 1, n):
                input_dist = np.linalg.norm(feats[u] - feats[v])
                limit = bound * input_dist * (1.0 + 1e-9) + 1e-12
                assert np.linalg.norm(pre[u] - pre[v]) <= limit
                assert np.linalg.norm(post[u] - post[v]) <= limit

    def test_contraction_factor_is_tight_for_aligned_inputs(self):
        # Two nodes differing along the top right-singular vector achieve
        # the bound, confirming the constant is not an artifact of slack.
        rng = np.random.default_rng(18)
        n = 10
        graph = build_graph(labels_for({0: n}))
        layer = random_layer(INPUT_DIM, EMBED_DIM, rng)
        u, s, _ = np.linalg.svd(layer.weight)
        feats = np.zeros((n, INPUT_DIM))
        feats[0] = u[:, 0]
        feats[1] = -u[:, 0]
        pre = normalize(graph).apply(feats) @ layer.weight + layer.bias
        achieved = np.linalg.norm(pre[0] - pre[1])
        expected = s[0] * np.linalg.norm(feats[0] - feats[1]) / (n - 1)
        np.testing.assert_allclose(achieved, expected, rtol=1e-9)
