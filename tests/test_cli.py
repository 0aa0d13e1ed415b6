"""End-to-end command-line pipeline: verbs, exit codes, and artifacts."""

import json
import struct

import numpy as np
import pytest

from genregraph.audio import encode_wav, AudioClip
from genregraph.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, build_parser, main
from genregraph.graph import GENRE_NAMES, GenreLabel
from genregraph.nn import Variant, build_model
from genregraph.recommend import recommend
from genregraph.stores import (
    FeatureRecord,
    read_feature_store,
    read_model,
    write_feature_store,
    write_model,
)
from genregraph.synth import SyntheticSpec, synthesize_features
from genregraph.train import TrainConfig, compute_embeddings
from genregraph.graph import build_graph


@pytest.fixture(scope="module")
def tiny_workspace(tmp_path_factory):
    """8 genres x 4 songs through synth + extract + train, seed 0."""
    root = tmp_path_factory.mktemp("cli_ws")
    assert main(["synth", "--out", str(root), "--seed", "0", "--songs-per-genre", "4"]) == 0
    assert main(["extract", "--manifest", str(root / "manifest.csv"), "--seed", "0"]) == 0
    for variant in ("plain", "sage", "gcn"):
        rc = main(
            [
                "train",
                "--store", str(root / "features.grmf"),
                "--variant", variant,
                "--seed", "0",
                "--epochs", "12",
            ]
        )
        assert rc == 0
    return root


class TestStartUp:
    def test_package_and_cli_import_without_scipy(self, fresh_python):
        # scipy.signal alone took a second and 76 MiB; no verb uses
        # scipy now, so neither start-up nor a later clip loads it
        done = fresh_python(
            "import sys, genregraph, genregraph.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestSynth:
    def test_writes_wavs_and_manifest(self, tiny_workspace):
        manifest = (tiny_workspace / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "path,genre,split"
        assert len(manifest) == 1 + 32
        wavs = sorted(tiny_workspace.rglob("*.wav"))
        assert len(wavs) == 32

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(
                ["synth", "--out", str(tmp_path / sub), "--seed", "3", "--songs-per-genre", "2"]
            )
            assert rc == EXIT_OK
        a, b = tmp_path / "a", tmp_path / "b"
        rels = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert len(rels) == 17
        for rel in rels:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_unknown_genre_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--genres", "Polka"])
        assert rc == EXIT_USAGE
        assert "Polka" in capsys.readouterr().err

    def test_missing_out_flag_is_usage_error(self):
        assert main(["synth", "--seed", "0"]) == EXIT_USAGE


class TestExtract:
    def test_store_counts(self, tiny_workspace):
        records = read_feature_store(tiny_workspace / "features.grmf")
        assert len(records) == 32
        assert all(rec.values.shape == (30,) for rec in records)
        raw = (tiny_workspace / "features.grmf").read_bytes()
        _, count, dim = struct.unpack_from("<III", raw, 4)
        assert (count, dim) == (32, 30)

    def test_matches_in_memory_mirror_byte_for_byte(self, tiny_workspace, tmp_path):
        mirror = synthesize_features(SyntheticSpec(songs_per_genre=4, seed=0))
        mirror_path = tmp_path / "mirror.grmf"
        write_feature_store(mirror_path, mirror)
        assert mirror_path.read_bytes() == (tiny_workspace / "features.grmf").read_bytes()

    def test_rerun_is_byte_identical(self, tiny_workspace, tmp_path):
        rc = main(
            [
                "extract",
                "--manifest", str(tiny_workspace / "manifest.csv"),
                "--seed", "0",
                "--out", str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "features.grmf").read_bytes() == (
            tiny_workspace / "features.grmf"
        ).read_bytes()

    def test_short_file_is_a_named_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        short = AudioClip(samples=rng.uniform(-0.5, 0.5, 3 * 22050), sample_rate=22050)
        (tmp_path / "Folk").mkdir()
        wav_path = tmp_path / "Folk" / "too_short.wav"
        wav_path.write_bytes(encode_wav(short))
        (tmp_path / "manifest.csv").write_text(
            "path,genre,split\nFolk/too_short.wav,Folk,train\n"
        )
        rc = main(["extract", "--manifest", str(tmp_path / "manifest.csv")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "too_short.wav" in err
        assert not (tmp_path / "features.grmf").exists()

    def test_low_rate_file_is_listed_as_failed(self, tmp_path, capsys):
        (tmp_path / "Folk").mkdir()
        clip = AudioClip(samples=np.zeros(6 * 4000), sample_rate=4000)
        (tmp_path / "Folk" / "low.wav").write_bytes(encode_wav(clip))
        (tmp_path / "manifest.csv").write_text("path,genre,split\nFolk/low.wav,Folk,train\n")
        assert main(["extract", "--manifest", str(tmp_path / "manifest.csv")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "low.wav: sample rate 4000 Hz is below 8000 Hz" in err
        assert not (tmp_path / "features.grmf").exists()

    def test_missing_manifest_is_usage_error(self, tmp_path):
        assert main(["extract", "--manifest", str(tmp_path / "nope.csv")]) == EXIT_USAGE


class TestTrain:
    def test_artifacts_per_variant(self, tiny_workspace):
        for variant in ("sage", "gcn"):
            assert (tiny_workspace / f"{variant}.grmw").exists()
            assert (tiny_workspace / f"{variant}_embedding_loss.csv").exists()
            assert (tiny_workspace / f"{variant}_classifier_loss.csv").exists()
        assert (tiny_workspace / "plain.grmw").exists()
        assert (tiny_workspace / "plain_classifier_loss.csv").exists()
        assert not (tiny_workspace / "plain_embedding_loss.csv").exists()

    def test_loss_csv_shape_honors_epochs(self, tiny_workspace):
        lines = (tiny_workspace / "gcn_embedding_loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,eval_loss"
        assert len(lines) == 1 + 12

    def test_weights_load_as_the_right_variant(self, tiny_workspace):
        for name, variant in [("plain", Variant.PLAIN), ("sage", Variant.SAGE), ("gcn", Variant.GCN)]:
            model = read_model(tiny_workspace / f"{name}.grmw")
            assert model.variant is variant

    def test_rerun_overwrites_identical_bytes(self, tiny_workspace, tmp_path):
        rc = main(
            [
                "train",
                "--store", str(tiny_workspace / "features.grmf"),
                "--variant", "gcn",
                "--seed", "0",
                "--epochs", "12",
                "--out", str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "gcn.grmw").read_bytes() == (tiny_workspace / "gcn.grmw").read_bytes()

    def test_unknown_variant_is_usage_error(self, tiny_workspace):
        rc = main(
            ["train", "--store", str(tiny_workspace / "features.grmf"), "--variant", "gat"]
        )
        assert rc == EXIT_USAGE

    def test_divergence_exits_internal(self, tmp_path, capsys):
        # finite features, but a learning rate that overflows the weights
        rng = np.random.default_rng(0)
        records = [
            FeatureRecord(song_id=f"g{g}/s{s}", genre_index=g, values=rng.normal(size=30))
            for g in range(8)
            for s in range(3)
        ]
        store = tmp_path / "big_lr.grmf"
        write_feature_store(store, records)
        rc = main(
            ["train", "--store", str(store), "--variant", "gcn", "--embed-lr", "1e300",
             "--out", str(tmp_path)]
        )
        assert rc == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "epoch" in err and err.count("\n") == 1

    def test_lone_training_song_names_the_self_loops_flag(self, tmp_path, capsys):
        # two songs per genre split into one to train on and one to query
        assert main(["synth", "--out", str(tmp_path), "--seed", "0", "--songs-per-genre", "2"]) == 0
        assert main(["extract", "--manifest", str(tmp_path / "manifest.csv")]) == 0
        capsys.readouterr()
        train = ["train", "--store", str(tmp_path / "features.grmf"), "--variant", "gcn"]
        assert main(train) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--self-loops" in err and "Electronic" in err
        assert main([*train, "--self-loops"]) == EXIT_OK

    def test_non_finite_store_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        records = [
            FeatureRecord(song_id=f"g{g}/s{s}", genre_index=g, values=rng.normal(size=30))
            for g in range(8)
            for s in range(3)
        ]
        records[9].values[4] = np.nan
        store = tmp_path / "nan.grmf"
        write_feature_store(store, records)
        rc = main(["train", "--store", str(store), "--variant", "gcn", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err and "g3/s0" in err
        assert not (tmp_path / "gcn.grmw").exists()


class TestEvaluate:
    def test_report_files_and_table_shape(self, tiny_workspace, capsys):
        rc = main(
            [
                "evaluate",
                "--store", str(tiny_workspace / "features.grmf"),
                "--weights",
                str(tiny_workspace / "plain.grmw"),
                str(tiny_workspace / "sage.grmw"),
                str(tiny_workspace / "gcn.grmw"),
                "--seed", "0",
            ]
        )
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "Genre" in printed and "Average" in printed

        text = (tiny_workspace / "report.txt").read_text().splitlines()
        header_row = next(i for i, line in enumerate(text) if line.startswith("Genre"))
        genre_rows = text[header_row + 1 : -1]
        assert [row.split()[0] for row in genre_rows] == list(GENRE_NAMES)
        assert text[-1].startswith("Average")

        doc = json.loads((tiny_workspace / "report.json").read_text())
        assert set(doc) == {"plain", "sage", "gcn"}
        for payload in doc.values():
            assert payload["attachment_mode"] == "oracle"
            assert payload["counts"]["catalog_size"] == 24

    def test_duplicate_variant_weights_rejected(self, tiny_workspace, capsys):
        rc = main(
            [
                "evaluate",
                "--store", str(tiny_workspace / "features.grmf"),
                "--weights",
                str(tiny_workspace / "gcn.grmw"),
                str(tiny_workspace / "gcn.grmw"),
            ]
        )
        assert rc == EXIT_USAGE
        assert "two weight files" in capsys.readouterr().err

    def test_knn_mode_never_beats_oracle_at_desk_scale(self, desk_cli_workspace, tmp_path):
        # Paired comparison on identical weights and split: oracle
        # attachment uses the true clique, so KNN can at best match it.
        results = {}
        for mode in ("oracle", "feature_knn"):
            out = tmp_path / mode
            rc = main(
                [
                    "evaluate",
                    "--store", str(desk_cli_workspace["store"]),
                    "--weights",
                    str(desk_cli_workspace["weights"]["plain"]),
                    str(desk_cli_workspace["weights"]["sage"]),
                    str(desk_cli_workspace["weights"]["gcn"]),
                    "--seed", "0",
                    "--attachment", mode,
                    "--out", str(out),
                ]
            )
            assert rc == EXIT_OK
            results[mode] = json.loads((out / "report.json").read_text())
        for variant in ("plain", "sage", "gcn"):
            assert results["feature_knn"][variant]["attachment_mode"] == "feature_knn"
            knn_avg = results["feature_knn"][variant]["gamma_percent"]["average"]
            oracle_avg = results["oracle"][variant]["gamma_percent"]["average"]
            assert knn_avg <= oracle_avg, variant

    def test_recommend_k_20_scores_within_range(self, desk_cli_workspace, tmp_path):
        # 45 training songs per genre: oracle GCN lists of 20 are all
        # genre-mates, which is 100%, not 20/10.
        rc = main(
            [
                "evaluate",
                "--store", str(desk_cli_workspace["store"]),
                "--weights",
                str(desk_cli_workspace["weights"]["plain"]),
                str(desk_cli_workspace["weights"]["gcn"]),
                "--seed", "0",
                "--recommend-k", "20",
                "--out", str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["gcn"]["gamma_percent"]["average"] == 100.0
        assert 0.0 <= doc["plain"]["gamma_percent"]["average"] <= 100.0

    def test_store_weights_dimension_mismatch(self, tiny_workspace, tmp_path, capsys):
        records = [
            FeatureRecord(song_id=f"g{g}/s{s}", genre_index=g, values=np.zeros(60))
            for g in range(8)
            for s in range(2)
        ]
        store = tmp_path / "wide.grmf"
        write_feature_store(store, records, dimension=60)
        rc = main(
            [
                "evaluate",
                "--store", str(store),
                "--weights", str(tiny_workspace / "gcn.grmw"),
            ]
        )
        assert rc == EXIT_USAGE
        assert "dim" in capsys.readouterr().err


class TestRecommend:
    def run_recommend(self, tiny_workspace, capsys, *extra):
        rc = main(
            [
                "recommend",
                "--store", str(tiny_workspace / "features.grmf"),
                "--weights", str(tiny_workspace / "gcn.grmw"),
                *extra,
            ]
        )
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_song_query_prints_ten_matching_rows(self, tiny_workspace, capsys):
        records = read_feature_store(tiny_workspace / "features.grmf")
        query_id = records[0].song_id
        rc, out, _ = self.run_recommend(
            tiny_workspace, capsys, "--song-id", query_id, "--seed", "0"
        )
        assert rc == EXIT_OK
        lines = out.splitlines()
        rows = [line.split() for line in lines[1:]]
        assert len(rows) == 10

        # cross-module check: the printout must equal the library result
        ids = [rec.song_id for rec in records]
        labels = [GenreLabel.from_index(rec.genre_index) for rec in records]
        features = np.array([rec.values for rec in records])
        model = read_model(tiny_workspace / "gcn.grmw")
        graph = build_graph(labels, node_ids=ids)
        vectors = compute_embeddings(model, graph, features, TrainConfig(seed=0))
        catalog = {sid: vectors[i] for i, sid in enumerate(ids)}
        expected = recommend(catalog[query_id], catalog, k=10, query_id=query_id)
        for row, (sid, dist) in zip(rows, expected.items):
            assert row[1] == sid
            assert row[3] == f"{dist:.6f}"
        assert [int(r[0]) for r in rows] == list(range(1, 11))
        assert query_id not in {r[1] for r in rows}

    def test_one_parser_per_process_keeps_no_flag_between_calls(self, tiny_workspace, capsys):
        assert build_parser() is build_parser()
        song_id = read_feature_store(tiny_workspace / "features.grmf")[0].song_id
        rows = []
        for extra in (["--k", "3"], []):
            rc, out, _ = self.run_recommend(tiny_workspace, capsys, "--song-id", song_id, *extra)
            assert rc == EXIT_OK
            rows.append(len(out.splitlines()) - 1)
        assert rows == [3, 10]

    def test_rank_one_is_nearest_non_self_neighbor(self, tiny_workspace, capsys):
        records = read_feature_store(tiny_workspace / "features.grmf")
        query_id = records[5].song_id
        rc, out, _ = self.run_recommend(
            tiny_workspace, capsys, "--song-id", query_id, "--seed", "0"
        )
        assert rc == EXIT_OK
        first = out.splitlines()[1].split()
        assert first[0] == "1"
        assert first[1] != query_id
        assert float(first[3]) >= 0.0

    def test_audio_query_with_knn_attachment(self, tiny_workspace, capsys):
        wav = next(iter(sorted(tiny_workspace.rglob("*.wav"))))
        rc, out, _ = self.run_recommend(
            tiny_workspace, capsys, "--audio", str(wav), "--seed", "0"
        )
        assert rc == EXIT_OK
        assert len(out.splitlines()) == 11

    def test_audio_query_oracle_needs_genre(self, tiny_workspace, capsys):
        wav = next(iter(sorted(tiny_workspace.rglob("*.wav"))))
        rc, _, err = self.run_recommend(
            tiny_workspace, capsys, "--audio", str(wav), "--attachment", "oracle"
        )
        assert rc == EXIT_USAGE
        assert "--genre" in err

    def test_unknown_song_id(self, tiny_workspace, capsys):
        rc, _, err = self.run_recommend(tiny_workspace, capsys, "--song-id", "ghost.wav")
        assert rc == EXIT_USAGE
        assert "ghost.wav" in err

    def test_exactly_one_query_source_required(self, tiny_workspace, capsys):
        records = read_feature_store(tiny_workspace / "features.grmf")
        rc, _, err = self.run_recommend(tiny_workspace, capsys)
        assert rc == EXIT_USAGE
        wav = next(iter(sorted(tiny_workspace.rglob("*.wav"))))
        rc2, _, _ = self.run_recommend(
            tiny_workspace, capsys, "--song-id", records[0].song_id, "--audio", str(wav)
        )
        assert rc2 == EXIT_USAGE

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_overflowing_distance_is_a_usage_error(self, tmp_path, capsys, variant):
        records = [
            FeatureRecord(song_id=f"g{i % 8}/s{i:02d}", genre_index=i % 8, values=np.full(30, i / 7.0))
            for i in range(16)
        ]
        records[5] = FeatureRecord(song_id="g5/s05", genre_index=5, values=np.full(30, 1e200))
        store, weights = tmp_path / "big.grmf", tmp_path / "w.grmw"
        write_feature_store(store, records)
        write_model(weights, build_model(variant, seed=0))
        rc = main(["recommend", "--store", str(store), "--weights", str(weights), "--song-id", "g0/s00"])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not finite" in err

    def test_query_flags_checked_before_the_store_is_read(self, tmp_path, capsys):
        missing = ["--store", str(tmp_path / "no.grmf"), "--weights", str(tmp_path / "no.grmw")]
        for extra in (["--song-id", "a", "--audio", "b.wav"], []):
            assert main(["recommend", *missing, *extra]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert "exactly one of --song-id or --audio" in err and "not found" not in err
        rc = main(["recommend", *missing, "--audio", "b.wav", "--attachment", "oracle"])
        assert rc == EXIT_USAGE
        assert "--genre" in capsys.readouterr().err


@pytest.fixture(scope="module")
def gaussian_workspace(tmp_path_factory):
    """Feature-only store (8 genres x 16 songs around seeded centres) plus
    weights for every variant, trained through the CLI for 3 epochs."""
    root = tmp_path_factory.mktemp("gaussian")
    rng = np.random.default_rng(11)
    centres = rng.normal(scale=0.5, size=(len(GENRE_NAMES), 30))
    records = [
        FeatureRecord(
            song_id=f"{genre}/{genre}_{i:02d}",
            genre_index=g,
            values=centres[g] + rng.standard_normal(30),
        )
        for g, genre in enumerate(GENRE_NAMES)
        for i in range(16)
    ]
    write_feature_store(root / "features.grmf", records)
    for variant in Variant:
        rc = main(
            ["train", "--store", str(root / "features.grmf"), "--variant", variant.value,
             "--epochs", "3", "--out", str(root)]
        )
        assert rc == EXIT_OK
    return root


class TestRecommendMatchesExhaustiveRanking:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_song_queries_match_a_full_sort_of_compute_embeddings(
        self, gaussian_workspace, capsys, variant
    ):
        store = read_feature_store(gaussian_workspace / "features.grmf")
        ids = np.array(store.ids)
        labels = [GenreLabel.from_index(g) for g in store.genre_indices]
        graph = build_graph(labels, node_ids=store.ids)
        weights = gaussian_workspace / f"{variant.value}.grmw"
        model = read_model(weights)
        emb = compute_embeddings(model, graph, store.values, TrainConfig(variant=variant))
        id_rank = np.argsort(np.argsort(ids))
        for q in (0, 37, 127):
            rc = main(
                ["recommend", "--store", str(gaussian_workspace / "features.grmf"),
                 "--weights", str(weights), "--song-id", store.ids[q]]
            )
            assert rc == EXIT_OK
            rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
            dist = np.sqrt(((emb - emb[q]) ** 2).sum(axis=1))
            order = [int(j) for j in np.lexsort((id_rank, dist)) if j != q][:10]
            assert [r[1] for r in rows] == [store.ids[j] for j in order]
            assert [r[2] for r in rows] == [GENRE_NAMES[store.genre_indices[j]] for j in order]
            assert [r[3] for r in rows] == [f"{dist[j]:.6f}" for j in order]


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "verb, flag",
        [("evaluate", "--epochs"), ("evaluate", "--embed-lr"), ("evaluate", "--mlp-lr"),
         ("recommend", "--out")],
    )
    def test_flag_that_changed_nothing_is_rejected(self, tmp_path, capsys, verb, flag):
        # evaluate trains nothing and recommend writes nothing
        args = [verb, "--store", str(tmp_path / "s.grmf"), "--weights", str(tmp_path / "w.grmw")]
        assert main([*args, flag, "1"]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_training_keys_of_a_shared_config_leave_evaluate_unchanged(self, tiny_workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "embed_lr": 7.0, "mlp_lr": 9.0}))
        weights = [str(tiny_workspace / f"{v}.grmw") for v in ("plain", "sage", "gcn")]
        for out, extra in ((tmp_path / "a", []), (tmp_path / "b", ["--config", str(cfg_path)])):
            rc = main(["evaluate", "--store", str(tiny_workspace / "features.grmf"),
                       "--weights", *weights, "--out", str(out), *extra])
            assert rc == EXIT_OK
        for name in ("report.json", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestConfigFile:
    def test_config_values_apply_and_flags_override(self, tiny_workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 5, "seed": 0}))
        out_a = tmp_path / "a"
        rc = main(
            [
                "train",
                "--store", str(tiny_workspace / "features.grmf"),
                "--variant", "plain",
                "--config", str(cfg_path),
                "--out", str(out_a),
            ]
        )
        assert rc == EXIT_OK
        lines = (out_a / "plain_classifier_loss.csv").read_text().splitlines()
        assert len(lines) == 1 + 5

        out_b = tmp_path / "b"
        rc = main(
            [
                "train",
                "--store", str(tiny_workspace / "features.grmf"),
                "--variant", "plain",
                "--config", str(cfg_path),
                "--epochs", "3",
                "--out", str(out_b),
            ]
        )
        assert rc == EXIT_OK
        lines = (out_b / "plain_classifier_loss.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_unknown_config_key_rejected(self, tiny_workspace, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"learning_rate": 0.1}))
        rc = main(
            [
                "train",
                "--store", str(tiny_workspace / "features.grmf"),
                "--variant", "plain",
                "--config", str(cfg_path),
            ]
        )
        assert rc == EXIT_USAGE
        assert "learning_rate" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        rc = main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg_path)])
        assert rc == EXIT_USAGE
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--config", str(tmp_path / "nope.json")])
        assert rc == EXIT_USAGE
        assert "not found" in capsys.readouterr().err


class TestConfigValueTypes:
    """A config value must have its setting's JSON type; anything else exits
    2 naming the key, before any work is done."""

    def run_train(self, tiny_workspace, tmp_path, capsys, doc, variant="gcn"):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main(
            ["train", "--store", str(tiny_workspace / "features.grmf"), "--variant", variant,
             "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        return rc, capsys.readouterr().err

    def test_bool_setting_needs_a_json_boolean(self, tiny_workspace, tmp_path, capsys):
        for bad in ("false", 0, None):
            rc, err = self.run_train(tiny_workspace, tmp_path, capsys, {"self_loops": bad})
            assert rc == EXIT_USAGE and "'self_loops'" in err and err.count("\n") == 1
        rc, _ = self.run_train(tiny_workspace, tmp_path, capsys, {"self_loops": True, "epochs": 2})
        assert rc == EXIT_OK

    def test_int_setting_needs_a_json_integer(self, tiny_workspace, tmp_path, capsys):
        for bad in (True, 2.0, "2"):
            rc, err = self.run_train(tiny_workspace, tmp_path, capsys, {"epochs": bad})
            assert rc == EXIT_USAGE and "'epochs'" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_float_setting_needs_a_json_number(self, tiny_workspace, tmp_path, capsys):
        for bad in (True, "0.01", [0.01]):
            rc, err = self.run_train(tiny_workspace, tmp_path, capsys, {"embed_lr": bad})
            assert rc == EXIT_USAGE and "'embed_lr'" in err and err.count("\n") == 1
        # an integer is a number
        rc, _ = self.run_train(tiny_workspace, tmp_path, capsys, {"mlp_lr": 1, "epochs": 2}, "plain")
        assert rc == EXIT_OK

    def test_genres_need_a_string_or_a_list_of_strings(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for bad in (5, ["Rock", 3], {"Rock": 1}):
            cfg_path.write_text(json.dumps({"genres": bad}))
            rc = main(["synth", "--out", str(tmp_path / "x"), "--config", str(cfg_path)])
            err = capsys.readouterr().err
            assert rc == EXIT_USAGE and "'genres'" in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()
