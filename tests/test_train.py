"""Two-stage training, loss curves, splits, and unseen-node inference."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genregraph.graph import AttachmentMode, GenreLabel, build_graph
from genregraph.nn import (
    EMBED_DIM,
    INPUT_DIM,
    N_GENRES,
    Variant,
    build_model,
    embedding_forward,
    mlp_forward,
)
from genregraph.train import (
    LossCurve,
    TrainConfig,
    TrainingDivergedError,
    compute_embeddings,
    derive_seed,
    infer_embedding,
    split_train_test,
    train_classifier,
    train_embeddings,
    train_pipeline,
)

from conftest import draw_neighbors

LN8 = float(np.log(8.0))


def read_curve(path):
    """A LossCurve read back from the CSV that LossCurve.to_csv writes."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return LossCurve(
        train_losses=np.array([float(row["train_loss"]) for row in rows]),
        eval_losses=np.array([float(row["eval_loss"]) for row in rows]),
    )


def labels_for(counts):
    out = []
    for gi, n in counts.items():
        out.extend(GenreLabel.from_index(gi) for _ in range(n))
    return out


@pytest.fixture(scope="module")
def cluster_desk():
    """8 cliques x 20 nodes with well-separated Gaussian feature clusters."""
    rng = np.random.default_rng(100)
    graph = build_graph(labels_for({gi: 20 for gi in range(8)}))
    means = rng.normal(scale=5.0, size=(8, INPUT_DIM))
    feats = np.vstack([means[gi] + rng.normal(size=(20, INPUT_DIM)) for gi in range(8)])
    targets = np.repeat(np.arange(8), 20)
    return graph, feats, targets


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.embed_lr == 0.01
        assert cfg.mlp_lr == 0.001
        assert cfg.epochs == 50
        assert cfg.variant is Variant.GCN
        assert cfg.self_loops is False

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(embed_lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(mlp_lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(sage_sample_k=0)

    @pytest.mark.parametrize("field", ["embed_lr", "mlp_lr"])
    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_learning_rates_must_be_finite(self, field, lr):
        # NaN compares false both ways, so `lr <= 0` alone lets it through
        with pytest.raises(ValueError, match="positive and finite"):
            TrainConfig(**{field: lr})

    def test_huge_finite_learning_rate_is_accepted(self):
        # finite: it diverges in training, which stays an internal error (exit 1)
        assert TrainConfig(embed_lr=1e300).embed_lr == 1e300


class TestLossCurve:
    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        curve = LossCurve(train_losses=rng.uniform(0, 3, 50), eval_losses=rng.uniform(0, 3, 50))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        loaded = read_curve(path)
        assert np.array_equal(curve.train_losses, loaded.train_losses)
        assert np.array_equal(curve.eval_losses, loaded.eval_losses)
        header = path.read_text().splitlines()[0]
        assert header == "epoch,train_loss,eval_loss"

    def test_epochs_property(self):
        curve = LossCurve(train_losses=np.ones(7), eval_losses=np.ones(7))
        assert curve.epochs == 7

    def test_rejects_bad_curves(self):
        with pytest.raises(ValueError):
            LossCurve(train_losses=np.ones(3), eval_losses=np.ones(4))
        with pytest.raises(ValueError):
            LossCurve(train_losses=np.array([1.0, np.nan]), eval_losses=np.ones(2))
        with pytest.raises(ValueError):
            LossCurve(train_losses=np.array([1.0, -0.5]), eval_losses=np.ones(2))


class TestDeriveSeed:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)
        assert derive_seed(3, 1, 4) != derive_seed(4, 1, 3)
        assert derive_seed(0, 0) != derive_seed(0, 1)

    def test_fits_in_uint32(self):
        for parts in [(0,), (1, 2, 3), (2**31, 5)]:
            s = derive_seed(*parts)
            assert 0 <= s < 2**32


class TestSplitTrainTest:
    def test_desk_split_sizes(self):
        labels = np.repeat(np.arange(8), 50)
        train_idx, test_idx = split_train_test(labels, test_fraction=0.1, seed=0)
        assert len(train_idx) == 360 and len(test_idx) == 40
        for gi in range(8):
            assert np.sum(labels[test_idx] == gi) == 5

    def test_disjoint_and_complete(self):
        labels = np.repeat(np.arange(4), 9)
        train_idx, test_idx = split_train_test(labels, test_fraction=0.2, seed=1)
        combined = np.concatenate([train_idx, test_idx])
        assert len(np.intersect1d(train_idx, test_idx)) == 0
        assert np.array_equal(np.sort(combined), np.arange(36))
        assert np.array_equal(train_idx, np.sort(train_idx))
        assert np.array_equal(test_idx, np.sort(test_idx))

    def test_every_genre_keeps_one_of_each(self):
        # Rounding would give 0 test songs for a 2-member genre at 10%,
        # and 0 train songs at 90%; both are clamped to 1.
        labels = np.array([0, 0, 1, 1, 1])
        for frac in (0.1, 0.9):
            train_idx, test_idx = split_train_test(labels, test_fraction=frac, seed=2)
            for gi in (0, 1):
                assert np.sum(labels[train_idx] == gi) >= 1
                assert np.sum(labels[test_idx] == gi) >= 1

    def test_rejects_tiny_genres_and_bad_fractions(self):
        with pytest.raises(ValueError, match="need >= 2"):
            split_train_test(np.array([0, 1, 1]), test_fraction=0.1)
        with pytest.raises(ValueError):
            split_train_test(np.array([0, 0]), test_fraction=0.0)
        with pytest.raises(ValueError):
            split_train_test(np.array([0, 0]), test_fraction=1.0)
        with pytest.raises(ValueError, match="^no songs to split"):
            split_train_test(np.array([], dtype=np.int64))

    def test_seeded_shuffle(self):
        labels = np.repeat(np.arange(3), 30)
        a = split_train_test(labels, seed=5)
        b = split_train_test(labels, seed=5)
        c = split_train_test(labels, seed=6)
        assert np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])


CATALOG_SCRIPT = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "{threads}"
import hashlib
import numpy as np
from genregraph.graph import build_graph
from genregraph.nn import Variant, build_model
from genregraph.train import TrainConfig, compute_embeddings

rng = np.random.default_rng(3)
labels = np.arange(4096) % 8
features = rng.standard_normal((4096, 30)) + labels[:, None]
for variant in (Variant.GCN, Variant.SAGE):
    model = build_model(variant, seed=0)
    model.graph_layer.bias[:] = rng.standard_normal(60) / 4
    vectors = compute_embeddings(model, build_graph(labels), features, TrainConfig(variant=variant))
    print(variant.value, hashlib.sha256(vectors.tobytes()).hexdigest())
"""


class TestTrainEmbeddings:
    @pytest.mark.parametrize("variant", [Variant.GCN, Variant.SAGE])
    def test_epoch_zero_loss_is_ln8(self, cluster_desk, variant):
        graph, feats, targets = cluster_desk
        cfg = TrainConfig(variant=variant, epochs=1, seed=0)
        _, curve, _ = train_embeddings(graph, feats, targets, cfg)
        assert abs(curve.train_losses[0] - LN8) < 1e-6

    def test_desk_gcn_loss_decreases(self, cluster_desk):
        graph, feats, targets = cluster_desk
        cfg = TrainConfig(variant=Variant.GCN, seed=0)
        model, curve, embeddings = train_embeddings(graph, feats, targets, cfg)
        assert curve.epochs == 50
        assert curve.train_losses[-1] < curve.train_losses[0]
        assert embeddings.shape == (graph.n_nodes, EMBED_DIM)
        assert np.all(np.isfinite(embeddings))

    def test_single_node_graph_with_self_loop(self):
        graph = build_graph(labels_for({0: 1}))
        cfg = TrainConfig(variant=Variant.GCN, epochs=3, seed=0, self_loops=True)
        _, curve, embeddings = train_embeddings(
            graph, np.ones((1, INPUT_DIM)), np.array([0]), cfg
        )
        assert abs(curve.train_losses[0] - LN8) < 1e-6
        assert embeddings.shape == (1, EMBED_DIM)

    @pytest.mark.parametrize("variant", [Variant.GCN, Variant.SAGE])
    def test_reruns_are_bit_identical(self, cluster_desk, variant):
        graph, feats, targets = cluster_desk
        cfg = TrainConfig(variant=variant, epochs=8, seed=42)
        model_a, curve_a, emb_a = train_embeddings(graph, feats, targets, cfg)
        model_b, curve_b, emb_b = train_embeddings(graph, feats, targets, cfg)
        assert np.array_equal(curve_a.train_losses, curve_b.train_losses)
        assert np.array_equal(curve_a.eval_losses, curve_b.eval_losses)
        assert np.array_equal(emb_a, emb_b)
        assert np.array_equal(model_a.graph_layer.weight, model_b.graph_layer.weight)

    def test_embeddings_match_compute_embeddings(self, cluster_desk):
        graph, feats, targets = cluster_desk
        for variant in (Variant.GCN, Variant.SAGE):
            cfg = TrainConfig(variant=variant, epochs=5, seed=7)
            model, _, embeddings = train_embeddings(graph, feats, targets, cfg)
            again = compute_embeddings(model, graph, feats, cfg)
            assert np.array_equal(embeddings, again)

    def test_catalog_bytes_do_not_depend_on_the_blas_thread_count(self, fresh_python):
        # a 4,096-row catalog: products past OpenBLAS's one-thread cutoff
        runs = [fresh_python(CATALOG_SCRIPT.format(threads=t)) for t in (1, 2)]
        for done in runs:
            assert done.returncode == 0, done.stderr
        assert runs[0].stdout.split()[::2] == ["gcn", "sage"]
        assert runs[0].stdout == runs[1].stdout

    def test_rejects_plain_and_bad_shapes(self, cluster_desk):
        graph, feats, targets = cluster_desk
        with pytest.raises(ValueError):
            train_embeddings(graph, feats, targets, TrainConfig(variant=Variant.PLAIN))
        with pytest.raises(ValueError):
            train_embeddings(graph, feats[:-1], targets, TrainConfig(variant=Variant.GCN))

    def test_nan_feature_diverges_with_epoch_index(self, cluster_desk):
        graph, feats, targets = cluster_desk
        bad = feats.copy()
        bad[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError) as excinfo:
            train_embeddings(graph, bad, targets, TrainConfig(variant=Variant.GCN))
        assert excinfo.value.epoch == 0
        assert "epoch 0" in str(excinfo.value)


class TestTrainClassifier:
    def test_gcn_embeddings_reach_full_training_accuracy(self, cluster_desk):
        graph, feats, targets = cluster_desk
        cfg = TrainConfig(variant=Variant.GCN, seed=0)
        model, _, embeddings = train_embeddings(graph, feats, targets, cfg)
        mlp, curve = train_classifier(embeddings, targets, cfg, mlp=model.mlp)
        predicted = mlp_forward(embeddings, mlp).argmax(axis=1)
        assert np.array_equal(predicted, targets)
        assert curve.train_losses[-1] < curve.train_losses[0]

    def test_single_class_collapses_below_hundredth(self):
        rng = np.random.default_rng(1)
        inputs = rng.normal(scale=20.0, size=(40, INPUT_DIM))
        targets = np.full(40, 2)
        cfg = TrainConfig(variant=Variant.PLAIN, seed=1)
        _, curve = train_classifier(inputs, targets, cfg, build_model(Variant.PLAIN, 1).mlp)
        assert curve.eval_losses[-1] < 0.01

    def test_zero_init_head_starts_at_ln8(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(24, INPUT_DIM))
        targets = rng.integers(0, N_GENRES, size=24)
        cfg = TrainConfig(variant=Variant.PLAIN, epochs=1)
        _, curve = train_classifier(inputs, targets, cfg, build_model(Variant.PLAIN, 0).mlp)
        assert abs(curve.train_losses[0] - LN8) < 1e-6

    def test_rejects_width_mismatch_with_provided_mlp(self):
        model = build_model(Variant.PLAIN, seed=0)
        with pytest.raises(ValueError):
            train_classifier(
                np.zeros((4, EMBED_DIM)), np.zeros(4, dtype=int), TrainConfig(), mlp=model.mlp
            )

    def test_divergence_carries_epoch(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as excinfo:
                train_classifier(
                    np.full((10, INPUT_DIM), np.inf),
                    np.zeros(10, dtype=int),
                    TrainConfig(),
                    build_model(Variant.PLAIN, 0).mlp,
                )
        assert excinfo.value.epoch == 0


class TestTrainPipeline:
    def test_plain_skips_embedding_stage(self, cluster_desk):
        _, feats, targets = cluster_desk
        graph = build_graph(labels_for({gi: 20 for gi in range(8)}))
        model, curves = train_pipeline(graph, feats, targets, TrainConfig(variant=Variant.PLAIN, epochs=5))
        assert set(curves) == {"classifier"}
        assert model.variant is Variant.PLAIN

    def test_graph_variants_record_both_stages(self, cluster_desk):
        graph, feats, targets = cluster_desk
        model, curves = train_pipeline(graph, feats, targets, TrainConfig(variant=Variant.SAGE, epochs=5))
        assert set(curves) == {"embedding", "classifier"}
        assert curves["embedding"].epochs == 5

    def test_gcn_classifier_beats_plain_on_synthetic_songs(self, desk_arrays):
        # Clique averaging collapses each genre toward its mean, so the
        # classifier on GCN embeddings ends with a lower training loss
        # than the same classifier on raw features.
        _, labels, features = desk_arrays
        graph = build_graph(labels)
        _, plain_curves = train_pipeline(graph, features, labels, TrainConfig(variant=Variant.PLAIN, seed=0))
        _, gcn_curves = train_pipeline(graph, features, labels, TrainConfig(variant=Variant.GCN, seed=0))
        plain_final = plain_curves["classifier"].train_losses[-1]
        gcn_final = gcn_curves["classifier"].train_losses[-1]
        assert gcn_final < plain_final

    def test_rerun_reproduces_weights(self, cluster_desk):
        graph, feats, targets = cluster_desk
        cfg = TrainConfig(variant=Variant.GCN, epochs=6, seed=11)
        model_a, _ = train_pipeline(graph, feats, targets, cfg)
        model_b, _ = train_pipeline(graph, feats, targets, cfg)
        for la, lb in zip(model_a.mlp, model_b.mlp):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)


def dense_extended_embedding(graph, train_features, new_feature, chosen_idx, layer, self_loops):
    """Brute-force (n+1)-node graph, last row of D^-1 A (the mean over the
    new node's neighbors), one layer."""
    n = graph.n_nodes
    a = np.zeros((n + 1, n + 1))
    for u in range(n):
        for v in range(n):
            if u != v and graph.label_indices[u] == graph.label_indices[v]:
                a[u, v] = 1.0
    for u in chosen_idx:
        a[n, u] = a[u, n] = 1.0
    if self_loops:
        a += np.eye(n + 1)
    d = a.sum(axis=1)
    stacked = np.vstack([train_features, new_feature])
    agg = (a[n] / d[n] if d[n] else a[n]) @ stacked
    return np.maximum(agg @ layer.weight + layer.bias, 0.0)


class TestInferEmbedding:
    def test_plain_passes_the_feature_through(self):
        model = build_model(Variant.PLAIN, seed=0)
        x = np.arange(30.0)
        out = infer_embedding(model, None, None, x, AttachmentMode.ORACLE)
        assert np.array_equal(out, x)

    def test_oracle_clique_of_identical_rows_gcn(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=INPUT_DIM)
        graph = build_graph(labels_for({2: 4, 5: 3}))
        train_features = np.vstack([np.tile(x, (4, 1)), rng.normal(size=(3, INPUT_DIM))])
        model = build_model(Variant.GCN, seed=9)
        out = infer_embedding(
            model, graph, train_features, rng.normal(size=INPUT_DIM),
            AttachmentMode.ORACLE, true_label=2,
        )
        # Every attached neighbor holds x and the extension weights are
        # 1/m each, so the aggregate is exactly x.
        expected = np.maximum(x @ model.graph_layer.weight + model.graph_layer.bias, 0.0)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_oracle_clique_of_identical_rows_sage(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=INPUT_DIM)
        y = rng.normal(size=INPUT_DIM)
        graph = build_graph(labels_for({1: 4}))
        model = build_model(Variant.SAGE, seed=9)
        out = infer_embedding(
            model, graph, np.tile(x, (4, 1)), y,
            AttachmentMode.ORACLE, true_label=1, sample_k=10,
        )
        concat = np.concatenate([y, x])
        expected = np.maximum(concat @ model.graph_layer.weight + model.graph_layer.bias, 0.0)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        clique_k=st.sampled_from([(3, 10), (10, 10), (11, 10), (40, 10), (12_000, 300)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sage_query_row_samples_as_draw_neighbors(self, clique_k, seed):
        # an oracle-attached query: at most k clique members are all kept,
        # more are sampled from `seed`; 12,000 / 300 takes numpy's tail shuffle
        clique, k = clique_k
        rng = np.random.default_rng(seed)
        genres = rng.permutation(np.repeat([3, 6], [clique, 5]))
        graph = build_graph(genres)
        train_features = rng.normal(size=(len(genres), INPUT_DIM))
        query = rng.normal(size=INPUT_DIM)
        model = build_model(Variant.SAGE, seed=5)
        out = infer_embedding(
            model, graph, train_features, query, AttachmentMode.ORACLE,
            true_label=3, sample_k=k, seed=seed,
        )
        sampled = draw_neighbors(graph.genre_members(3), k, np.random.default_rng(seed))
        row = np.concatenate([query, train_features[sampled].mean(axis=0)])
        assert out.tobytes() == embedding_forward(row[None, :], model.graph_layer)[0].tobytes()

    def test_knn_single_neighbor_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        graph = build_graph(labels_for({0: 5, 3: 4}))
        train_features = rng.normal(size=(9, INPUT_DIM))
        model = build_model(Variant.GCN, seed=1)
        query = train_features[6].copy()
        out = infer_embedding(
            model, graph, train_features, query, AttachmentMode.FEATURE_KNN, knn_k=1,
        )
        expected = dense_extended_embedding(
            graph, train_features, query, [6], model.graph_layer, self_loops=False
        )
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("self_loops", [False, True])
    @pytest.mark.parametrize("mode", [AttachmentMode.ORACLE, AttachmentMode.FEATURE_KNN])
    def test_random_case_matches_dense_oracle(self, mode, self_loops):
        rng = np.random.default_rng(6)
        graph = build_graph(labels_for({0: 4, 1: 3, 2: 5}))
        train_features = rng.normal(size=(12, INPUT_DIM))
        query = rng.normal(size=INPUT_DIM)
        model = build_model(Variant.GCN, seed=2)

        if mode is AttachmentMode.ORACLE:
            chosen = [i for i in range(12) if graph.label_indices[i] == 1]
            label = 1
        else:
            dists = np.linalg.norm(train_features - query, axis=1)
            order = np.lexsort((np.arange(12), dists))
            chosen = sorted(order[:4])
            label = None

        out = infer_embedding(
            model, graph, train_features, query, mode,
            true_label=label, knn_k=4, self_loops=self_loops,
        )
        expected = dense_extended_embedding(
            graph, train_features, query, chosen, model.graph_layer, self_loops
        )
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("self_loops", [False, True])
    @pytest.mark.parametrize("mode", [AttachmentMode.ORACLE, AttachmentMode.FEATURE_KNN])
    def test_catalog_song_attached_to_its_clique_keeps_its_embedding(self, mode, self_loops):
        # well-separated clusters, so the 5 nearest songs are its clique
        rng = np.random.default_rng(8)
        labels = labels_for({0: 5, 3: 6, 6: 4})
        genres = np.array([lab.index for lab in labels])
        features = 100.0 * rng.normal(size=(8, INPUT_DIM))[genres] + rng.normal(size=(15, INPUT_DIM))
        model = build_model(Variant.GCN, seed=3)
        cfg = TrainConfig(variant=Variant.GCN, self_loops=self_loops)
        catalog = compute_embeddings(model, build_graph(labels), features, cfg)
        song = 7
        rest = [i for i in range(15) if i != song]
        out = infer_embedding(
            model, build_graph([labels[i] for i in rest]), features[rest], features[song], mode,
            true_label=int(genres[song]), knn_k=5, self_loops=self_loops,
        )
        np.testing.assert_allclose(out, catalog[song], rtol=0, atol=1e-12)

    def test_oracle_requires_a_label(self):
        graph = build_graph(labels_for({0: 3}))
        model = build_model(Variant.GCN, seed=0)
        with pytest.raises(ValueError):
            infer_embedding(
                model, graph, np.zeros((3, INPUT_DIM)), np.zeros(INPUT_DIM),
                AttachmentMode.ORACLE,
            )
