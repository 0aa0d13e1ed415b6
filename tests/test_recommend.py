"""Top-k recommendation, the Γ metric, and the comparison experiment."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genregraph.graph import GENRE_NAMES, AttachmentMode, GenreLabel, build_graph
from genregraph.nn import Variant
from genregraph.recommend import (
    Catalog,
    EvalReport,
    ExperimentConfig,
    RecommendationList,
    gamma,
    recommend,
    render_text_report,
    reports_to_json,
    run_experiment,
)
from genregraph.train import TrainConfig, split_train_test, train_embeddings


def exhaustive_top_k(query, catalog, k, query_id=""):
    """Full sort over the whole catalog; ties break by ascending id."""
    rows = []
    for sid, vec in catalog.items():
        if sid == query_id:
            continue
        delta = np.asarray(vec, dtype=np.float64) - query
        rows.append((float(np.sqrt((delta**2).sum())), sid))
    rows.sort(key=lambda t: (t[0], t[1]))
    return [(sid, d) for d, sid in rows[:k]]


class TestRecommendationList:
    def test_item_ids_in_order(self):
        rec = RecommendationList(query_id="q", items=(("a", 0.5), ("b", 1.5)))
        assert rec.item_ids == ["a", "b"]

    def test_rejects_bad_lists(self):
        with pytest.raises(ValueError):
            RecommendationList(query_id="q", items=(("a", -0.1),))
        with pytest.raises(ValueError):
            RecommendationList(query_id="q", items=(("a", 2.0), ("b", 1.0)))
        with pytest.raises(ValueError):
            RecommendationList(query_id="q", items=(("q", 0.0),))


class TestRecommend:
    def test_small_catalog_returns_everything_sorted(self):
        rng = np.random.default_rng(0)
        catalog = {f"s{i}": rng.normal(size=60) for i in range(5)}
        rec = recommend(np.zeros(60), catalog, k=10, query_id="q")
        assert len(rec.items) == 5
        distances = [d for _, d in rec.items]
        assert distances == sorted(distances)
        assert set(rec.item_ids) == set(catalog)

    def test_identical_item_ranks_first_at_zero(self):
        rng = np.random.default_rng(1)
        query = rng.normal(size=60)
        catalog = {f"s{i}": rng.normal(size=60) for i in range(20)}
        catalog["twin"] = query.copy()
        rec = recommend(query, catalog, k=10, query_id="q")
        assert rec.items[0] == ("twin", 0.0)

    def test_matches_exhaustive_sort_on_random_vectors(self):
        rng = np.random.default_rng(2)
        query = rng.normal(size=60)
        catalog = {f"song_{i:02d}": rng.normal(size=60) for i in range(30)}
        rec = recommend(query, catalog, k=10, query_id="")
        assert list(rec.items) == exhaustive_top_k(query, catalog, 10)

    def test_exact_ties_break_by_ascending_id(self):
        # One-hot corners of a cube are all at the same exact distance, so
        # only the id ordering separates them.
        catalog = {}
        for i, sid in enumerate(["mango", "apple", "zebra", "kiwi"]):
            vec = np.zeros(8)
            vec[i] = 5.0
            catalog[sid] = vec
        rec = recommend(np.zeros(8), catalog, k=3)
        assert rec.item_ids == ["apple", "kiwi", "mango"]
        assert all(d == 5.0 for _, d in rec.items)

    def test_query_id_is_excluded(self):
        catalog = {"q": np.zeros(4), "other": np.ones(4)}
        rec = recommend(np.zeros(4), catalog, k=10, query_id="q")
        assert rec.item_ids == ["other"]

    def test_random_catalogs_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            size = int(rng.integers(5, 200))
            dim = int(rng.choice([30, 60]))
            catalog = {f"c{i:03d}": rng.normal(size=dim) for i in range(size)}
            query = rng.normal(size=dim)
            rec = recommend(query, catalog, k=10, query_id="c000")
            assert list(rec.items) == exhaustive_top_k(query, catalog, 10, query_id="c000")

    def test_overflowing_distance_names_the_catalog_song(self):
        catalog = {f"s{i:02d}": np.full(30, i / 7.0) for i in range(16)}
        catalog["s05"] = np.full(30, 1e200)
        with pytest.raises(ValueError, match="'s05' is not finite"):
            recommend(catalog["s00"], catalog, query_id="s00")
        # from the huge row itself every other distance overflows
        with pytest.raises(ValueError, match="'s00' is not finite"):
            recommend(catalog["s05"], catalog, query_id="s05")

    def test_rejects_empty_catalog_and_bad_k(self):
        with pytest.raises(ValueError):
            recommend(np.zeros(3), {}, k=10)
        with pytest.raises(ValueError):
            recommend(np.zeros(3), {"q": np.zeros(3)}, k=10, query_id="q")
        with pytest.raises(ValueError):
            recommend(np.zeros(3), {"a": np.zeros(3)}, k=0)


class TestCatalog:
    def test_rows_follow_sorted_ids(self):
        vectors = np.arange(12.0).reshape(4, 3)
        catalog = Catalog(["b", "é", "a", "Z"], vectors)
        assert catalog.ids == ["Z", "a", "b", "é"]
        assert np.array_equal(catalog.vectors, vectors[[3, 2, 0, 1]])
        assert np.array_equal(catalog["a"], vectors[2])
        assert len(catalog) == 4 and "é" in catalog and "q" not in catalog
        assert list(catalog) == catalog.ids

    def test_rejects_duplicate_ids_and_misshapen_vectors(self):
        with pytest.raises(ValueError):
            Catalog(["a", "a"], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            Catalog(["a", "b"], np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Catalog(["a"], np.zeros(3))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 40),
        dim=st.integers(1, 4),
        where=st.sampled_from(["present", "absent"]),
    )
    def test_matches_exhaustive_sort_with_ties(self, data, n, dim, where):
        # Coordinates on a small integer grid make exact distance ties common.
        ids = data.draw(
            st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n, unique=True)
        )
        point = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        vectors = np.array(data.draw(st.lists(point, min_size=n, max_size=n)), dtype=np.float64)
        mapping = dict(zip(ids, vectors))
        if where == "present":
            query_id = data.draw(st.sampled_from(ids))
            query = mapping[query_id]
        else:
            query_id = "\x00not in the catalog"
            query = np.array(data.draw(point), dtype=np.float64)
        if len(mapping) - (query_id in mapping) < 1:
            return
        k = data.draw(st.integers(1, n + 3))

        expected = exhaustive_top_k(query, mapping, k, query_id=query_id)
        from_catalog = recommend(query, Catalog(ids, vectors), k=k, query_id=query_id)
        from_dict = recommend(query, mapping, k=k, query_id=query_id)
        assert list(from_catalog.items) == expected
        assert from_dict == from_catalog


def folk(i):
    return GenreLabel.from_name(GENRE_NAMES[i])


class TestGamma:
    def test_genre_pure_lists_score_100(self):
        labels = {f"s{i}": folk(2) for i in range(12)}
        labels["q0"] = folk(2)
        recs = [
            RecommendationList(
                query_id="q0", items=tuple((f"s{i}", float(i)) for i in range(10))
            )
        ]
        report = gamma(recs, labels, variant="gcn", attachment_mode="oracle", catalog_size=12)
        assert report.gamma_average == 100.0
        assert report.gamma_per_genre == {GENRE_NAMES[2]: 100.0}
        assert report.queries_per_genre == {GENRE_NAMES[2]: 1}
        assert report.catalog_size == 12

    def test_uniform_random_recommendations_score_near_one_eighth(self):
        rng = np.random.default_rng(4)
        labels = {}
        catalog_ids = []
        for gi in range(8):
            for i in range(100):
                sid = f"g{gi}_{i:03d}"
                labels[sid] = folk(gi)
                catalog_ids.append(sid)
        recs = []
        for q in range(1024):
            qid = f"q{q:04d}"
            labels[qid] = folk(q % 8)
            picks = rng.choice(len(catalog_ids), size=10, replace=False)
            recs.append(
                RecommendationList(
                    query_id=qid,
                    items=tuple((catalog_ids[int(p)], float(r)) for r, p in enumerate(picks)),
                )
            )
        report = gamma(recs, labels)
        for name, value in report.gamma_per_genre.items():
            assert 12.5 - 3.0 <= value <= 12.5 + 3.0, (name, value)
        assert abs(report.gamma_average - 12.5) < 2.0

    def test_per_genre_means_average_over_each_genres_queries(self):
        labels = {"a": folk(0), "b": folk(0), "qa": folk(0), "qb": folk(0), "x": folk(1)}
        recs = [
            RecommendationList(query_id="qa", items=(("a", 1.0), ("b", 2.0))),
            RecommendationList(query_id="qb", items=(("a", 1.0), ("x", 2.0))),
        ]
        report = gamma(recs, labels)
        # hits over list length per query: 2/2 and 1/2, averaged then ×100
        assert report.gamma_per_genre == {GENRE_NAMES[0]: pytest.approx(75.0)}
        assert report.queries_per_genre == {GENRE_NAMES[0]: 2}

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_gamma_divides_by_the_list_length(self, k):
        # 30 catalog songs, the first 12 sharing the query's genre and all
        # nearer than the rest: the top k hold min(k, 12) genre-mates.
        labels = {f"s{i:02d}": folk(0 if i < 12 else 1) for i in range(30)}
        labels["q"] = folk(0)
        catalog = {sid: np.array([float(i)]) for i, sid in enumerate(sorted(labels)) if sid != "q"}
        rec = recommend(np.array([-1.0]), catalog, k=k, query_id="q")
        assert len(rec.items) == k
        report = gamma([rec], labels)
        assert report.gamma_average == pytest.approx(100.0 * min(k, 12) / k)

    def test_catalog_smaller_than_k_scores_the_whole_list(self):
        labels = {"a": folk(3), "b": folk(3), "c": folk(4), "q": folk(3)}
        catalog = {sid: np.array([float(i)]) for i, sid in enumerate("abc")}
        rec = recommend(np.zeros(1), catalog, k=10, query_id="q")
        assert len(rec.items) == 3
        assert gamma([rec], labels).gamma_average == pytest.approx(200.0 / 3)
        pure = recommend(np.zeros(1), {"a": np.zeros(1), "b": np.ones(1)}, k=10, query_id="q")
        assert gamma([pure], labels).gamma_average == 100.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            gamma([RecommendationList(query_id="q", items=())], {"q": folk(0)})

    def test_missing_labels_raise_key_error(self):
        labels = {"q": folk(0)}
        recs = [RecommendationList(query_id="q", items=(("mystery", 1.0),))]
        with pytest.raises(KeyError):
            gamma(recs, labels)
        with pytest.raises(KeyError):
            gamma([RecommendationList(query_id="ghost", items=())], labels)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            gamma([], {})


class TestEvalReport:
    def test_average_must_match_mean(self):
        with pytest.raises(ValueError):
            EvalReport(
                variant="gcn",
                attachment_mode="oracle",
                gamma_per_genre={"Folk": 50.0, "Rock": 70.0},
                gamma_average=99.0,
                queries_per_genre={"Folk": 1, "Rock": 1},
                catalog_size=10,
            )

    def test_range_checked(self):
        with pytest.raises(ValueError):
            EvalReport(
                variant="gcn",
                attachment_mode="oracle",
                gamma_per_genre={"Folk": 101.0},
                gamma_average=101.0,
                queries_per_genre={"Folk": 1},
                catalog_size=10,
            )

    def test_dict_shape(self):
        report = EvalReport(
            variant="sage",
            attachment_mode="feature_knn",
            gamma_per_genre={"Folk": 80.0},
            gamma_average=80.0,
            queries_per_genre={"Folk": 4},
            catalog_size=90,
        )
        doc = report.to_dict()
        assert doc["query_source"] == "held_out"
        assert doc["gamma_percent"]["average"] == 80.0
        assert doc["counts"]["catalog_size"] == 90


class TestIsometryInvariance:
    def test_rotation_and_translation_change_nothing(self):
        rng = np.random.default_rng(5)
        dim = 60
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        shift = rng.normal(size=dim) * 3.0
        catalog = {f"s{i:02d}": rng.normal(size=dim) for i in range(40)}
        query = rng.normal(size=dim)

        before = recommend(query, catalog, k=10)
        moved = {sid: vec @ q + shift for sid, vec in catalog.items()}
        after = recommend(query @ q + shift, moved, k=10)

        assert before.item_ids == after.item_ids
        for (_, d0), (_, d1) in zip(before.items, after.items):
            assert abs(d0 - d1) < 1e-9


@pytest.fixture(scope="module")
def single_genre_songs():
    rng = np.random.default_rng(6)
    ids = [f"Folk/song_{i:02d}" for i in range(30)]
    labels = np.full(30, 2, dtype=np.int64)
    features = rng.normal(scale=10.0, size=(30, 30))
    return ids, labels, features


class TestRunExperiment:
    def test_desk_gcn_is_perfect_and_ordering_holds(self, desk_arrays):
        ids, labels, features = desk_arrays
        cfg = ExperimentConfig(train=TrainConfig(seed=0))
        reports = run_experiment(
            ids, labels, features, [Variant.PLAIN, Variant.SAGE, Variant.GCN], cfg
        )
        gcn, sage, plain = reports["gcn"], reports["sage"], reports["plain"]
        assert gcn.gamma_average == 100.0
        assert all(v == 100.0 for v in gcn.gamma_per_genre.values())
        assert gcn.gamma_average >= sage.gamma_average >= plain.gamma_average
        assert sage.gamma_average > plain.gamma_average
        assert gcn.catalog_size == 360
        assert all(n == 5 for n in gcn.queries_per_genre.values())
        assert set(gcn.gamma_per_genre) == set(GENRE_NAMES)

    def test_pretrained_weights_reproduce_the_inline_report(self, desk_arrays):
        ids, labels, features = desk_arrays
        cfg = ExperimentConfig(train=TrainConfig(seed=1))
        inline = run_experiment(ids, labels, features, [Variant.GCN], cfg)

        train_idx, _ = split_train_test(labels, test_fraction=0.1, seed=1)
        graph = build_graph(
            [GenreLabel.from_index(int(g)) for g in labels[train_idx]],
            node_ids=[ids[i] for i in train_idx],
        )
        model, _, _ = train_embeddings(
            graph, features[train_idx], labels[train_idx], TrainConfig(seed=1)
        )

        reloaded = run_experiment(
            ids, labels, features, [Variant.GCN], cfg, pretrained={"gcn": model}
        )
        assert reloaded["gcn"].to_dict() == inline["gcn"].to_dict()

        knn_cfg = ExperimentConfig(
            train=TrainConfig(seed=1), attachment=AttachmentMode.FEATURE_KNN
        )
        knn = run_experiment(
            ids, labels, features, [Variant.GCN], knn_cfg, pretrained={"gcn": model}
        )
        assert knn["gcn"].attachment_mode == "feature_knn"
        assert knn["gcn"].gamma_average <= inline["gcn"].gamma_average

    def test_single_genre_dataset_scores_100_for_every_variant(self, single_genre_songs):
        ids, labels, features = single_genre_songs
        cfg = ExperimentConfig(train=TrainConfig(seed=0, epochs=5))
        reports = run_experiment(
            ids, labels, features, [Variant.PLAIN, Variant.SAGE, Variant.GCN], cfg
        )
        for report in reports.values():
            assert report.gamma_average == 100.0


@pytest.fixture(scope="module")
def small_reports(small_arrays):
    ids, labels, features = small_arrays
    cfg = ExperimentConfig(train=TrainConfig(seed=0, epochs=10))
    return run_experiment(
        ids, labels, features, [Variant.PLAIN, Variant.SAGE, Variant.GCN], cfg
    )


class TestReportRendering:
    def test_json_round_trips_and_sorts_keys(self, small_reports):
        text = reports_to_json(small_reports)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert list(doc) == ["gcn", "plain", "sage"]
        for variant, payload in doc.items():
            assert payload["query_source"] == "held_out"
            assert set(payload["gamma_percent"]["per_genre"]) == set(GENRE_NAMES)
            average = payload["gamma_percent"]["average"]
            values = list(payload["gamma_percent"]["per_genre"].values())
            assert abs(average - np.mean(values)) < 1e-9

    def test_text_table_mirrors_the_reports(self, small_reports):
        text = render_text_report(small_reports)
        lines = text.splitlines()
        assert lines[0].startswith("attachment mode: oracle")
        assert "held-out" in lines[1]
        header = lines[2]
        assert header.split() == ["Genre", "MFCC", "GraphSAGE", "GCN"]
        assert lines[3].split()[0] == "Electronic"
        assert lines[-1].split()[0] == "Average"
        gcn_avg = lines[-1].split()[-1]
        assert gcn_avg == f"{small_reports['gcn'].gamma_average:.2f}"
        # eight genre rows between the header and the average line
        assert len(lines) == 3 + 8 + 1
