"""End-to-end command-line pipeline: verbs, exit codes, and artifacts."""

import json
import multiprocessing
import shutil
import struct
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from genregraph.audio import SeedStream, derive_seed, encode_wav, AudioClip, ClipTooShortError, WavDecodeError
from genregraph import audio, cli
from genregraph.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, build_parser, main
from genregraph.graph import GENRE_NAMES, AttachmentMode
from genregraph.mfcc import MfccConfig, wav_mfcc
from genregraph.nn import Variant, build_model
from genregraph.recommend import Catalog, ExperimentConfig, recommend
from genregraph.stores import (
    FeatureRecord,
    read_feature_store,
    read_model,
    write_feature_store,
    write_model,
)
from genregraph.synth import SyntheticSpec, synthesize_features
from genregraph.train import TrainConfig, compute_embeddings, infer_embedding
from genregraph.graph import build_graph

from conftest import raw_feature_store


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

    def test_no_verb_imports_numpy_ma(self, fresh_python):
        # np.unique imports numpy.ma (numpy 2.4), which costs every verb that
        # loads it about a MiB; the program groups genre columns without it
        done = fresh_python(
            "import contextlib, io, sys\n"
            "from genregraph.cli import main\n"
            "s, w = 'data/features.grmf', ['data/plain.grmw', 'data/sage.grmw', 'data/gcn.grmw']\n"
            "calls = [\n"
            "    ['synth', '--out', 'data', '--seed', '0', '--songs-per-genre', '3'],\n"
            "    ['extract', '--manifest', 'data/manifest.csv'],\n"
            "    *(['train', '--store', s, '--variant', v] for v in ('gcn', 'sage', 'plain')),\n"
            "    ['evaluate', '--store', s, '--weights', *w],\n"
            "    ['evaluate', '--store', s, '--weights', *w, '--attachment', 'feature_knn', '--out', 'knn'],\n"
            "    ['recommend', '--store', s, '--weights', w[2], '--song-id', 'Rock/Rock_000.wav'],\n"
            "    ['recommend', '--store', s, '--weights', w[1], '--audio', 'data/Rock/Rock_001.wav'],\n"
            "]\n"
            "for call in calls:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(call) == 0, call\n"
            "    print(call[0], 'numpy.ma' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        verbs = ["synth", "extract", *["train"] * 3, *["evaluate"] * 2, *["recommend"] * 2]
        assert done.stdout.splitlines() == [f"{verb} False" for verb in verbs]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
    def test_blas_runs_on_the_calling_thread_by_default(self, fresh_python):
        # this process holds the value genregraph pinned, so the child drops
        # it before numpy loads; a BLAS worker would spin on the CPU after
        # the import and show as process time that is not the main thread's
        done = fresh_python(
            "import os, time\n"
            "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            "import genregraph.cli\n"
            "process, thread = time.process_time(), time.thread_time()\n"
            "time.sleep(0.3)\n"
            "idle = (time.process_time() - process) - (time.thread_time() - thread)\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')), idle)"
        )
        assert done.returncode == 0, done.stderr
        value, threads, idle = done.stdout.split()
        assert (value, threads) == ("1", "1")
        assert float(idle) < 0.005

    def test_a_thread_count_set_before_the_import_wins(self, fresh_python):
        done = fresh_python(
            "import os\n"
            "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
            "import genregraph.cli\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "2\n"

    def test_the_package_sets_the_default_and_loads_no_numpy(self, fresh_python):
        # the default must be set before any genregraph module loads numpy,
        # so the package sets it and imports nothing else; a name the package
        # held would shadow the submodule of that name, as mfcc's function did
        done = fresh_python(
            "import os, sys\n"
            "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            "import genregraph\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)\n"
            "import genregraph.mfcc as m\n"
            "print(m.__name__)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 False\ngenregraph.mfcc\n"


class TestSynth:
    def test_writes_wavs_and_manifest(self, tiny_workspace):
        manifest = (tiny_workspace / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "path,genre"
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

    @pytest.mark.parametrize("blocked", ["Rock", "Rock/Rock_001.wav"])
    def test_a_path_it_cannot_write_is_one_line(self, tmp_path, fresh_python, blocked):
        # a genre path that is a file stops synth before its pool starts; a
        # song path that is a directory stops the worker that writes it, and
        # its OSError reaches the verb. Either way every worker has exited
        out = tmp_path / "out"
        if blocked == "Rock":
            out.mkdir()
            (out / blocked).write_bytes(b"")
        else:
            (out / blocked).mkdir(parents=True)
        argv = ["synth", "--out", str(out), "--songs-per-genre", "2"]
        done = fresh_python(
            "import multiprocessing\n"
            "from genregraph.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(rc, multiprocessing.active_children())",
            timeout=60,
        )
        assert done.stdout.splitlines() == ["2 []"], done.stderr
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out / blocked) in err[0], err
        assert not (out / "manifest.csv").exists()

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

    def test_extra_manifest_columns_are_ignored(self, tiny_workspace, tmp_path):
        # load reads only path and genre, so a split column changes no byte
        rows = (tiny_workspace / "manifest.csv").read_text().splitlines()
        old = tiny_workspace / "manifest_with_split.csv"
        old.write_text("path,genre,split\n" + "".join(f"{row},test\n" for row in rows[1:]))
        try:
            rc = main(["extract", "--manifest", str(old), "--seed", "0", "--out", str(tmp_path)])
        finally:
            old.unlink()
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

    @pytest.mark.parametrize("workers", [1, 3])
    def test_store_bytes_do_not_depend_on_the_pool(self, tiny_workspace, tmp_path, fresh_python, workers):
        # a fresh interpreter has one thread, so it forks its workers; three
        # are more than a two-core runner has, and the pool must still finish
        # well inside the timeout with the default pool's bytes
        argv = ["extract", "--manifest", str(tiny_workspace / "manifest.csv"), "--seed", "0", "--out", str(tmp_path)]
        done = fresh_python(
            "import multiprocessing, sys\n"
            "from genregraph import audio, cli\n"
            "methods, get_context = [], multiprocessing.get_context\n"
            "multiprocessing.get_context = lambda method=None: methods.append(method) or get_context(method)\n"
            f"audio.clip_workers = lambda n: {workers}\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(methods)",
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        forks = "fork" in multiprocessing.get_all_start_methods()
        assert done.stdout.splitlines()[-1] == ("['fork']" if forks else "['spawn']")
        store = (tmp_path / "features.grmf").read_bytes()
        assert store == (tiny_workspace / "features.grmf").read_bytes()
        mirror = tmp_path / "mirror.grmf"
        write_feature_store(mirror, synthesize_features(SyntheticSpec(songs_per_genre=4, seed=0)))
        assert store == mirror.read_bytes()

    def test_a_second_thread_spawns_the_workers(self, tiny_workspace, tmp_path, monkeypatch):
        # forking a process with other threads can copy a held lock into the
        # workers, so extract spawns them then, to the same bytes
        methods, get_context = [], multiprocessing.get_context
        spy = lambda method=None: methods.append(method) or get_context(method)
        monkeypatch.setattr(multiprocessing, "get_context", spy)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(120,))
        waiter.start()
        try:
            rc = main(["extract", "--manifest", str(tiny_workspace / "manifest.csv"), "--out", str(tmp_path)])
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert rc == EXIT_OK
        assert methods == ["spawn"]
        assert (tmp_path / "features.grmf").read_bytes() == (tiny_workspace / "features.grmf").read_bytes()

    def test_the_mfcc_constants_are_built_once_before_the_workers_fork(self, tiny_workspace, tmp_path, fresh_python):
        # two forked workers share the filter layers extract builds first;
        # each build appends a line, so a worker that built its own adds one
        log = tmp_path / "builds.txt"
        argv = ["extract", "--manifest", str(tiny_workspace / "manifest.csv"), "--out", str(tmp_path)]
        done = fresh_python(
            "import genregraph.mfcc as mfcc\n"
            "from genregraph import audio, cli\n"
            "build = mfcc.mel_filterbank\n"
            "def logged(cfg):\n"
            f"    with open({str(log)!r}, 'a') as fh:\n"
            "        fh.write('built\\n')\n"
            "    return build(cfg)\n"
            "mfcc.mel_filterbank = logged\n"
            "audio.clip_workers = lambda n: 2\n"
            f"assert cli.main({argv!r}) == 0\n",
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert log.read_text() == "built\n"

    def test_worker_failures_are_named_in_manifest_order(self, tiny_workspace, tmp_path, capsys, monkeypatch):
        # the messages cross from the worker processes; each keeps its file's
        # place in the manifest, whichever worker read it
        monkeypatch.setattr(audio, "clip_workers", lambda n: 2)
        rows = (tiny_workspace / "manifest.csv").read_text().splitlines()[1:]
        good = [row.split(",") for row in rows[::8]]
        for path, _ in good:
            (tmp_path / path).parent.mkdir(exist_ok=True)
            shutil.copy(tiny_workspace / path, tmp_path / path)
        noise = np.random.default_rng(0).uniform(-0.5, 0.5, 3 * 22050)
        (tmp_path / "short.wav").write_bytes(encode_wav(AudioClip(noise, 22050)))
        (tmp_path / "low.wav").write_bytes(encode_wav(AudioClip(np.zeros(6 * 4000), 4000)))
        entries = [good[0], ["short.wav", "Folk"], *good[1:3], ["low.wav", "Rock"], good[3]]
        (tmp_path / "manifest.csv").write_text("path,genre\n" + "".join(f"{p},{g}\n" for p, g in entries))

        expected = []
        for index, name in ((1, "short.wav"), (4, "low.wav")):
            with pytest.raises((ClipTooShortError, WavDecodeError)) as exc:
                wav_mfcc((tmp_path / name).read_bytes(), MfccConfig(), 0, index)
            expected.append(f"error: {tmp_path / name}: {exc.value}")
        assert main(["extract", "--manifest", str(tmp_path / "manifest.csv")]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [*expected, "error: 2 of 6 files failed extraction"]
        assert "clip is 3.000s, need at least 5.000s" in err[0]
        assert "sample rate 4000 Hz is below 8000 Hz" in err[1]
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

    @pytest.mark.parametrize("variant", ["plain", "gcn", "sage"])
    def test_store_of_another_dimension_is_named(self, tmp_path, capsys, variant):
        # every verb that reads a store refuses a width other than the models' 30
        store, weights, out = tmp_path / "narrow.grmf", tmp_path / f"{variant}.grmw", tmp_path / "out"
        raw_feature_store(store, width=20, per_genre=8)
        write_model(weights, build_model(Variant(variant), seed=0))
        for argv in (
            ["train", "--store", str(store), "--variant", variant, "--out", str(out)],
            ["evaluate", "--store", str(store), "--weights", str(weights), "--out", str(out)],
            ["recommend", "--store", str(store), "--weights", str(weights), "--song-id", "g0/s0"],
        ):
            capsys.readouterr()
            assert main(argv) == EXIT_USAGE
            err = f"error: {store}: store has 20-dim features, the model takes 30\n"
            assert capsys.readouterr() == ("", err)
        assert not out.exists()

    def test_loss_that_reaches_zero_is_not_negative_zero(self, tmp_path, capsys):
        # at lr 1 four 5-song training cliques are fitted exactly within 20 epochs
        records = synthesize_features(
            SyntheticSpec(genres=("Rock", "Folk", "Pop", "Electronic"), songs_per_genre=6, seed=0)
        )
        store = tmp_path / "four.grmf"
        write_feature_store(store, records)
        for variant in ("gcn", "sage"):
            argv = ["train", "--store", str(store), "--variant", variant, "--out", str(tmp_path)]
            assert main([*argv, "--embed-lr", "1", "--mlp-lr", "1", "--epochs", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "-> 0.000000" in out and "-0.0" not in out
        csv_text = (tmp_path / "gcn_embedding_loss.csv").read_text()
        assert csv_text.splitlines()[-1] == "19,0.0,0.0"
        for csv_path in tmp_path.glob("*_loss.csv"):
            assert "-0.0" not in csv_path.read_text()

    def test_store_with_no_songs_says_so(self, tmp_path, capsys):
        store = tmp_path / "empty.grmf"
        write_feature_store(store, [])
        rc = main(["train", "--store", str(store), "--variant", "gcn", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: no songs to split into training and test sets\n"


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
        assert capsys.readouterr().err == "error: two models of variant 'gcn'\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--queries-per-genre", "-1"), ("--queries-per-genre", "0"), ("--knn-k", "0"),
         ("--recommend-k", "0")],
    )
    def test_counts_below_one_rejected(self, tiny_workspace, tmp_path, capsys, flag, value):
        # a negative count used to slice held-out songs from the end
        rc = main(
            [
                "evaluate",
                "--store", str(tiny_workspace / "features.grmf"),
                "--weights", str(tiny_workspace / "gcn.grmw"),
                "--out", str(tmp_path),
                flag, value,
            ]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err == f"error: {flag[2:].replace('-', '_')} must be >= 1, got {value}\n"
        assert not (tmp_path / "report.json").exists()

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
        # a 60-wide store is refused as it is read, before the weights are
        store = tmp_path / "wide.grmf"
        raw_feature_store(store, width=60)
        rc = main(
            [
                "evaluate",
                "--store", str(store),
                "--weights", str(tiny_workspace / "gcn.grmw"),
            ]
        )
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {store}: store has 60-dim features, the model takes 30\n"

    def test_store_with_no_songs_says_so(self, tiny_workspace, tmp_path, capsys):
        store = tmp_path / "empty.grmf"
        write_feature_store(store, [])
        rc = main(
            ["evaluate", "--store", str(store), "--weights", str(tiny_workspace / "gcn.grmw")]
        )
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: no songs to split into training and test sets\n"


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
        rc, out, _ = self.run_recommend(tiny_workspace, capsys, "--song-id", query_id)
        assert rc == EXIT_OK
        lines = out.splitlines()
        rows = [line.split() for line in lines[1:]]
        assert len(rows) == 10

        # cross-module check: the printout must equal the library result
        ids = [rec.song_id for rec in records]
        features = np.array([rec.values for rec in records])
        model = read_model(tiny_workspace / "gcn.grmw")
        graph = build_graph([rec.genre_index for rec in records], node_ids=ids)
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
        rc, out, _ = self.run_recommend(tiny_workspace, capsys, "--song-id", query_id)
        assert rc == EXIT_OK
        first = out.splitlines()[1].split()
        assert first[0] == "1"
        assert first[1] != query_id
        assert float(first[3]) >= 0.0

    def test_audio_query_with_knn_attachment(self, tiny_workspace, capsys):
        wav = next(iter(sorted(tiny_workspace.rglob("*.wav"))))
        rc, out, _ = self.run_recommend(tiny_workspace, capsys, "--audio", str(wav))
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

    @pytest.mark.parametrize(
        "extra",
        [
            ["--song-id", "Rock/Rock_000.wav", "--attachment", "oracle"],
            ["--song-id", "Rock/Rock_000.wav", "--attachment", "feature_knn"],
            ["--song-id", "Rock/Rock_000.wav", "--genre", "Rock"],
            ["--song-id", "Rock/Rock_000.wav", "--genre", "Nope"],
            ["--audio", "q.wav", "--genre", "Rock"],
            ["--audio", "q.wav", "--genre", "Nope", "--attachment", "feature_knn"],
        ],
        ids=lambda extra: " ".join(extra[::2]) + " " + extra[-1],
    )
    def test_flag_the_query_does_not_use_is_refused(self, tiny_workspace, capsys, extra):
        if "--audio" in extra:
            message = "--genre applies only to oracle attachment, not feature_knn"
        else:
            message = "--attachment and --genre apply only to an --audio query"
        rc, out, err = self.run_recommend(tiny_workspace, capsys, *extra)
        assert (rc, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_config_keys_the_query_does_not_use_stay_ignored(self, tiny_workspace, tmp_path, capsys):
        # one config file serves every verb
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"attachment": "oracle", "knn_k": 3}))
        query = ["--song-id", "Rock/Rock_000.wav"]
        rc, out, _ = self.run_recommend(tiny_workspace, capsys, *query, "--config", str(config))
        assert (rc, out) == (EXIT_OK, self.run_recommend(tiny_workspace, capsys, *query)[1])

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
        graph = build_graph(store.genre_indices, node_ids=store.ids)
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


class TestServedState:
    """Calls of main in one process reuse the store's columns and graph and
    each variant's catalog while the store bytes, the weight bytes and the
    settings are the same; each printout must equal a fresh process's."""

    SONG = ["--song-id", "Rock/Rock_05"]

    @pytest.fixture
    def served(self, gaussian_workspace, tmp_path):
        for name in ("features.grmf", "plain.grmw", "gcn.grmw", "sage.grmw"):
            (tmp_path / name).write_bytes((gaussian_workspace / name).read_bytes())
        return tmp_path

    @staticmethod
    def argv(root, variant, *extra):
        return ["recommend", "--store", str(root / "features.grmf"),
                "--weights", str(root / f"{variant}.grmw"), *extra]

    @staticmethod
    def in_process(capsys, argv):
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    @staticmethod
    def rewrite_float(path, offset, delta):
        """Add delta to the float64 at offset, keeping the file's size."""
        data = bytearray(path.read_bytes())
        (value,) = struct.unpack_from("<d", data, offset)
        struct.pack_into("<d", data, offset, value + delta)
        path.write_bytes(bytes(data))

    # past the 13-byte header, the 41 bytes of settings and layer 0's two dims
    FIRST_WEIGHT = 13 + 41 + 8
    # past the 16-byte header and the 16 bytes of the MFCC front end
    FIRST_VALUE = 16 + 16

    @staticmethod
    def rewrite_settings(path, **changes):
        """Rewrite the weight file with the same layers under other settings."""
        model = read_model(path)
        write_model(path, replace(model, cfg=replace(model.cfg, **changes)))

    @staticmethod
    def rewrite_front_end(path, **changes):
        """Rewrite the feature store with the same columns under another front end."""
        table = read_feature_store(path)
        write_feature_store(path, table, front_end=replace(table.front_end, **changes))

    def assert_like_fresh(self, capsys, fresh_python, argv):
        served = self.in_process(capsys, argv)
        done = fresh_python(f"import sys\nfrom genregraph.cli import main\nsys.exit(main({argv!r}))")
        assert served == (done.returncode, done.stdout, done.stderr)
        return served

    @pytest.fixture
    def transforms(self, monkeypatch):
        """The vectors wav_mfcc makes for recommend, from an empty served state."""
        made = []

        def counted(*args):
            made.append(real(*args))
            return made[-1]

        real = cli.wav_mfcc
        monkeypatch.setattr(cli, "wav_mfcc", counted)
        monkeypatch.setattr(cli, "_served", cli._Served())
        return made

    @pytest.fixture
    def query_wav(self, served, tiny_workspace):
        wav = served / "query.wav"
        wav.write_bytes((tiny_workspace / "Rock" / "Rock_000.wav").read_bytes())
        return wav

    def test_one_clip_sent_to_every_variant_is_transformed_once(
        self, served, query_wav, capsys, fresh_python, transforms
    ):
        for variant in ("plain", "gcn", "sage"):
            argv = self.argv(served, variant, "--audio", str(query_wav))
            assert self.assert_like_fresh(capsys, fresh_python, argv)[0] == EXIT_OK
            # a song query in between keeps the clip
            assert self.in_process(capsys, self.argv(served, variant, *self.SONG))[0] == EXIT_OK
        assert len(transforms) == 1

    @pytest.mark.parametrize(
        "change", ["one sample", "window_seconds", "target_sample_rate", "--seed"]
    )
    def test_a_changed_clip_or_setting_transforms_again(
        self, served, query_wav, capsys, fresh_python, transforms, change
    ):
        first = self.argv(served, "gcn", "--audio", str(query_wav))
        before = self.assert_like_fresh(capsys, fresh_python, first)
        original = query_wav.read_bytes()
        weights, trained = served / "gcn.grmw", (served / "gcn.grmw").read_bytes()
        store, extracted = served / "features.grmf", (served / "features.grmf").read_bytes()
        if change == "--seed":
            # recommend takes the seed the weights were trained with
            self.rewrite_settings(weights, seed=1)
        # and transforms the clip with the front end the store records
        if change == "window_seconds":
            self.rewrite_front_end(store, window_seconds=3.0)
        if change == "target_sample_rate":
            self.rewrite_front_end(store, target_sample_rate=44100)
        if change == "one sample":
            # the middle sample of the 6 s clip, inside every 5 s window
            data, start = bytearray(original), original.index(b"data") + 8
            offset = start + 2 * ((len(original) - start) // 4)
            (sample,) = struct.unpack_from("<h", data, offset)
            struct.pack_into("<h", data, offset, sample + (1000 if sample < 0 else -1000))
            query_wav.write_bytes(bytes(data))
            assert query_wav.stat().st_size == len(original)
        assert self.assert_like_fresh(capsys, fresh_python, first)[0] == EXIT_OK
        assert len(transforms) == 2
        assert transforms[0].tobytes() != transforms[1].tobytes()
        # one clip is kept: the first clip and settings again transform again
        query_wav.write_bytes(original)
        weights.write_bytes(trained)
        store.write_bytes(extracted)
        assert self.in_process(capsys, first) == before
        assert len(transforms) == 3 and transforms[2].tobytes() == transforms[0].tobytes()

    def test_truncated_wav_after_a_good_one_keeps_the_state(
        self, served, query_wav, capsys, fresh_python, transforms
    ):
        argv = self.argv(served, "sage", "--audio", str(query_wav))
        before = self.in_process(capsys, argv)
        assert before[0] == EXIT_OK
        kept = cli._served
        original = query_wav.read_bytes()
        query_wav.write_bytes(original[: len(original) // 2])
        rc, out, err = self.assert_like_fresh(capsys, fresh_python, argv)
        assert rc == EXIT_USAGE and out == "" and err.count("\n") == 1
        assert cli._served is kept
        # the kept clip still serves the whole WAV
        query_wav.write_bytes(original)
        assert self.in_process(capsys, argv) == before
        assert len(transforms) == 1  # the truncated clip raised; the whole one was kept

    def test_store_rewritten_with_one_float_changed(self, served, capsys, fresh_python):
        argv = self.argv(served, "gcn", *self.SONG)
        before = self.assert_like_fresh(capsys, fresh_python, argv)
        store = served / "features.grmf"
        size, song = store.stat().st_size, read_feature_store(store).ids.index(self.SONG[1])
        self.rewrite_float(store, self.FIRST_VALUE + 8 * 30 * song, 3.0)  # the query's first value
        assert store.stat().st_size == size
        after = self.assert_like_fresh(capsys, fresh_python, argv)
        assert before[0] == after[0] == EXIT_OK and before[1] != after[1]

    def test_weights_rewritten_with_one_float_changed(self, served, capsys, fresh_python):
        argv = self.argv(served, "gcn", *self.SONG)
        before = self.assert_like_fresh(capsys, fresh_python, argv)
        self.rewrite_float(served / "gcn.grmw", self.FIRST_WEIGHT, 5.0)
        after = self.assert_like_fresh(capsys, fresh_python, argv)
        assert before[0] == after[0] == EXIT_OK and before[1] != after[1]

    def test_corrupt_store_after_a_good_one(self, served, capsys, fresh_python):
        argv = self.argv(served, "sage", *self.SONG)
        assert self.in_process(capsys, argv)[0] == EXIT_OK
        kept = cli._served
        store = served / "features.grmf"
        store.write_bytes(b"GRMX" + store.read_bytes()[4:])
        rc, out, err = self.assert_like_fresh(capsys, fresh_python, argv)
        assert rc == EXIT_USAGE and out == ""
        assert err == f"error: {store}: bad magic, not a feature store\n"
        assert cli._served is kept

    @pytest.mark.parametrize("variant", ["sage", "gcn"])
    def test_settings_changed_between_calls(
        self, served, tiny_workspace, capsys, fresh_python, variant
    ):
        # the settings are the weight file's: the same layers rewritten under each
        queries = (self.SONG, ["--audio", str(tiny_workspace / "Rock" / "Rock_000.wav")])
        weights = served / f"{variant}.grmw"
        trained = weights.read_bytes()
        settings = ({}, {"seed": 1}, {"sage_sample_k": 3}, {"self_loops": True})
        outputs = []
        for changes in settings:
            weights.write_bytes(trained)
            self.rewrite_settings(weights, **changes)
            outputs.append({})
            for query in queries:
                argv = self.argv(served, variant, *query)
                rc, outputs[-1][tuple(query)], _ = self.assert_like_fresh(capsys, fresh_python, argv)
                assert rc == EXIT_OK
        # back to the first settings: the first calls' printouts
        weights.write_bytes(trained)
        for query in queries:
            assert self.in_process(capsys, self.argv(served, variant, *query))[1] == outputs[0][tuple(query)]
        # each setting the variant reads changes the song query's printout
        read = outputs[1:3] if variant == "sage" else outputs[3:]
        assert all(out[tuple(self.SONG)] != outputs[0][tuple(self.SONG)] for out in read)

    @pytest.mark.parametrize("value, words", [(1e308, "values too large"), (1e200, "is not finite")])
    def test_overflowing_store_after_a_good_one_caches_nothing(
        self, served, capsys, fresh_python, value, words
    ):
        # 1e308 overflows the catalog embedding; 1e200 embeds, and then the
        # distance to the query overflows
        argv = self.argv(served, "gcn", *self.SONG)
        assert self.in_process(capsys, argv)[0] == EXIT_OK
        kept = cli._served
        store = read_feature_store(served / "features.grmf")
        huge = np.array(store.values)
        huge[store.genre_indices == GENRE_NAMES.index("Rock")] = value
        records = [
            FeatureRecord(song_id=s, genre_index=int(g), values=v)
            for s, g, v in zip(store.ids, store.genre_indices, huge)
        ]
        write_feature_store(served / "features.grmf", records)
        rc, out, err = self.assert_like_fresh(capsys, fresh_python, argv)
        assert rc == EXIT_USAGE and out == "" and err.count("\n") == 1 and words in err
        assert cli._served is kept

    def test_two_stores_and_three_weight_files_leave_one_store(
        self, served, tmp_path_factory, capsys
    ):
        other = tmp_path_factory.mktemp("other")
        for name in ("features.grmf", "plain.grmw", "gcn.grmw", "sage.grmw"):
            (other / name).write_bytes((served / name).read_bytes())
        self.rewrite_float(other / "features.grmf", self.FIRST_VALUE, 1.0)
        for root in (served, other):
            for variant in ("plain", "gcn", "sage"):
                assert self.in_process(capsys, self.argv(root, variant, *self.SONG))[0] == EXIT_OK
        assert cli._served.data == (other / "features.grmf").read_bytes()
        assert sorted(v.value for v in cli._served.catalogs) == ["gcn", "plain", "sage"]
        for variant, (weights, model, catalog) in cli._served.catalogs.items():
            assert weights == (other / f"{variant.value}.grmw").read_bytes()
            assert model.variant is variant
            # every catalog finds its ids through the one map of the store's graph
            assert catalog._positions is cli._served.graph.node_index
        assert self.in_process(capsys, self.argv(served, "gcn", *self.SONG))[0] == EXIT_OK
        assert cli._served.data == (served / "features.grmf").read_bytes()
        assert list(cli._served.catalogs) == [Variant.GCN]

    def test_served_arrays_are_read_only(self, served, tiny_workspace, capsys):
        for variant in ("plain", "gcn", "sage"):
            assert self.in_process(capsys, self.argv(served, variant, *self.SONG))[0] == EXIT_OK
        audio = ["--audio", str(tiny_workspace / "Rock" / "Rock_000.wav")]
        assert self.in_process(capsys, self.argv(served, "plain", *audio))[0] == EXIT_OK
        arrays = [cli._served.table.values, cli._served.table.genre_indices, cli._served.clip[1]]
        for _, _, catalog in cli._served.catalogs.values():
            arrays += [catalog.vectors, catalog.norms]
        arrays.append(cli._served.table.norms)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_each_weight_file_is_parsed_once(
        self, served, tiny_workspace, capsys, fresh_python, monkeypatch
    ):
        parsed = []

        def counted(path, data=None):
            parsed.append(Path(path).name)
            return real(path, data)

        real = cli.read_model
        monkeypatch.setattr(cli, "read_model", counted)
        monkeypatch.setattr(cli, "_served", cli._Served())
        audio = ["--audio", str(tiny_workspace / "Rock" / "Rock_000.wav")]
        for extra in ([], ["--k", "3"], []):
            for variant in ("plain", "gcn", "sage"):
                for query in (self.SONG, audio):
                    argv = self.argv(served, variant, *query, *extra)
                    assert self.in_process(capsys, argv)[0] == EXIT_OK
        # a query setting serves from the kept model
        assert parsed == ["plain.grmw", "gcn.grmw", "sage.grmw"]
        self.rewrite_float(served / "gcn.grmw", self.FIRST_WEIGHT, 5.0)
        self.assert_like_fresh(capsys, fresh_python, self.argv(served, "gcn", *self.SONG))
        self.assert_like_fresh(capsys, fresh_python, self.argv(served, "gcn", *audio))
        assert parsed[3:] == ["gcn.grmw"]

    @pytest.fixture
    def large_store(self, tmp_path, monkeypatch):
        """A 4,096 x 30 store of 0.96 MiB, 16 chunks of 64 KiB with the genre
        column in the last, and GCN weights; the GCN catalog is 4,096 x 60
        float64, 1.9 MB."""
        rng = np.random.default_rng(9)
        records = [
            FeatureRecord(song_id=f"s{i:04d}", genre_index=i % 8, values=rng.standard_normal(30))
            for i in range(4096)
        ]
        write_feature_store(tmp_path / "features.grmf", records)
        write_model(tmp_path / "gcn.grmw", build_model(Variant.GCN, seed=0))
        monkeypatch.setattr(cli, "_served", cli._Served())
        return self.argv(tmp_path, "gcn", "--song-id", "s0007")

    def test_repeated_song_query_copies_no_catalog_and_reads_no_whole_store(
        self, large_store, capsys
    ):
        assert self.in_process(capsys, large_store)[0] == EXIT_OK
        store = Path(large_store[2])
        assert cli._served.data == store.read_bytes()
        tracemalloc.start()
        try:
            served = self.in_process(capsys, large_store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert served[0] == EXIT_OK
        # neither the catalog nor the 1 MB file: the store is compared with
        # the kept bytes 64 KiB at a time
        assert peak < 256 * 1024 < store.stat().st_size

    def test_store_rewritten_at_its_size_in_the_last_chunk(
        self, large_store, capsys, fresh_python, monkeypatch
    ):
        before = self.assert_like_fresh(capsys, fresh_python, large_store)
        parsed = []

        def counted(path, data=None):
            parsed.append(path)
            return real(path, data)

        real = cli.read_feature_store
        monkeypatch.setattr(cli, "read_feature_store", counted)
        store = Path(large_store[2])
        data = bytearray(store.read_bytes())
        # the queried song's genre byte, past the header, front end and values
        offset = self.FIRST_VALUE + 4096 * 30 * 8 + 7
        assert data[offset] == GENRE_NAMES.index("Rock")
        assert offset >= (len(data) - 1) // 65536 * 65536  # in the last chunk
        data[offset] = GENRE_NAMES.index("Folk")
        store.write_bytes(bytes(data))
        after = self.assert_like_fresh(capsys, fresh_python, large_store)
        assert before[0] == after[0] == EXIT_OK and before[1] != after[1]
        assert len(parsed) == 1
        assert self.in_process(capsys, large_store) == after
        assert len(parsed) == 1


class TestQueryFollowsTheStoreFrontEnd:
    """recommend --audio transforms the query clip with the MfccConfig the
    store records, the one extract made every catalog vector with."""

    @staticmethod
    def library_rows(store, weights, wav, front_end):
        """(song id, printed distance) of the top 10 for the clip transformed
        under front_end, through the library."""
        table, model = read_feature_store(store), read_model(weights)
        cfg = model.cfg
        graph = build_graph(table.genre_indices, node_ids=table.ids)
        catalog = Catalog(table.ids, compute_embeddings(model, graph, table.values, cfg))
        query = infer_embedding(
            model, graph, table.values, wav_mfcc(wav.read_bytes(), front_end, cfg.seed),
            AttachmentMode.FEATURE_KNN, seed=derive_seed(cfg.seed, SeedStream.QUERY_AUDIO),
        )
        return [(sid, f"{dist:.6f}") for sid, dist in recommend(query, catalog, k=10).items]

    # a GCN query row without self-loops sums its neighbors only, so the
    # variants that read the query's own vector show the front end
    @pytest.mark.parametrize("variant", ["plain", "sage"])
    @pytest.mark.parametrize(
        "flag, value, front_end",
        [("--sample-rate", "44100", MfccConfig(target_sample_rate=44100)),
         ("--window-seconds", "4", MfccConfig(window_seconds=4.0))],
        ids=["sample-rate", "window-seconds"],
    )
    def test_audio_query_is_transformed_as_the_store_was(
        self, tiny_workspace, tmp_path, capsys, flag, value, front_end, variant
    ):
        manifest = tiny_workspace / "manifest.csv"
        assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path), flag, value]) == EXIT_OK
        store, weights = tmp_path / "features.grmf", tiny_workspace / f"{variant}.grmw"
        assert read_feature_store(store).front_end == front_end
        wav = tiny_workspace / "Folk" / "Folk_001.wav"
        capsys.readouterr()
        assert main(["recommend", "--store", str(store), "--weights", str(weights),
                     "--audio", str(wav)]) == EXIT_OK
        out, err = capsys.readouterr()
        rows = [(line.split()[1], line.split()[3]) for line in out.splitlines()[1:]]
        assert err == "" and rows == self.library_rows(store, weights, wav, front_end)
        # the default front end ranks another list against this catalog
        assert rows != self.library_rows(store, weights, wav, MfccConfig())


class TestEmptySongId:
    """The store format allows the empty string as an id."""

    @pytest.fixture
    def store_with_empty_id(self, tiny_workspace, tmp_path):
        # '' holds the query clip's own MFCC, as recommend --audio computes it
        wav = tiny_workspace / "Rock" / "Rock_000.wav"
        records = [
            FeatureRecord(song_id=f"g{i % 8}/s{i}", genre_index=i % 8, values=np.full(30, i / 7.0))
            for i in range(16)
        ]
        clip = wav_mfcc(wav.read_bytes(), MfccConfig(), 0)
        records.append(FeatureRecord(song_id="", genre_index=7, values=clip))
        write_feature_store(tmp_path / "s.grmf", records)
        write_model(tmp_path / "w.grmw", build_model(Variant.PLAIN, seed=0))
        return ["recommend", "--store", str(tmp_path / "s.grmf"),
                "--weights", str(tmp_path / "w.grmw")]

    def test_an_audio_query_may_return_it(self, store_with_empty_id, tiny_workspace, capsys):
        wav = tiny_workspace / "Rock" / "Rock_000.wav"
        assert main([*store_with_empty_id, "--audio", str(wav)]) == EXIT_OK
        rows = capsys.readouterr().out.split("\n")[1:-1]
        assert rows[0] == f"{1:>4}  {'':<40} {GENRE_NAMES[7]:<14} {0.0:.6f}"

    def test_a_song_query_by_it_excludes_it(self, store_with_empty_id, capsys):
        assert main([*store_with_empty_id, "--song-id", ""]) == EXIT_OK
        rows = capsys.readouterr().out.split("\n")[1:-1]
        assert len(rows) == 10 and all(row.split()[1].startswith("g") for row in rows)


class TestPrintedRows:
    def test_an_id_with_a_line_break_prints_one_row_per_rank(self, tmp_path, capsys, fresh_python):
        # the store format allows any id without a NUL; the table shows an
        # unprintable one by its repr and every other id as it is
        records = [
            FeatureRecord(song_id=f"g{i % 8}/s{i}", genre_index=i % 8, values=np.full(30, i / 7.0))
            for i in range(16)
        ]
        records[7] = FeatureRecord(song_id="g7\rs7", genre_index=7, values=np.full(30, 1.0))
        write_feature_store(tmp_path / "s.grmf", records)
        write_model(tmp_path / "w.grmw", build_model(Variant.PLAIN, seed=0))
        argv = ["recommend", "--store", str(tmp_path / "s.grmf"),
                "--weights", str(tmp_path / "w.grmw"), "--song-id", "g0/s0"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        done = fresh_python(f"import sys\nfrom genregraph.cli import main\nsys.exit(main({argv!r}))")
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, out, "")
        rows = out.split("\n")[1:-1]
        assert [row.split()[0] for row in rows] == [str(rank) for rank in range(1, 11)]
        assert rows[6].split()[1] == repr("g7\rs7")
        assert rows[0] == f"{1:>4}  {'g1/s1':<40} {GENRE_NAMES[1]:<14} {np.sqrt(30) / 7:.6f}"


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "verb, flag",
        [("evaluate", "--epochs"), ("evaluate", "--embed-lr"), ("evaluate", "--mlp-lr"),
         ("recommend", "--out"), ("evaluate", "--test-fraction"), ("evaluate", "--sage-sample-k"),
         ("evaluate", "--self-loops"), ("recommend", "--sage-sample-k"), ("recommend", "--self-loops"),
         ("recommend", "--seed"), ("recommend", "--window-seconds"), ("recommend", "--sample-rate")],
    )
    def test_flag_that_changed_nothing_is_rejected(self, tmp_path, capsys, verb, flag):
        # evaluate trains nothing and recommend writes nothing; both take the
        # training settings from the weights, and recommend takes the MFCC
        # front end from the store
        args = [verb, "--store", str(tmp_path / "s.grmf"), "--weights", str(tmp_path / "w.grmw")]
        assert main([*args, flag, "1"]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, flag, value", [("synth", "--test-fraction", "0.2"), ("extract", "--workers", "2")]
    )
    def test_flag_that_nothing_read_is_rejected(self, tmp_path, capsys, verb, flag, value):
        # train and evaluate split the store themselves; extract sizes its own pool
        args = {"synth": ["--out", str(tmp_path / "x")], "extract": ["--manifest", "m.csv"]}[verb]
        assert main([verb, *args, flag, value]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_workers_config_key_is_unknown(self, tiny_workspace, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"workers": 2}))
        rc = main(["extract", "--manifest", str(tiny_workspace / "manifest.csv"),
                   "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE and err.count("\n") == 1 and "unknown config keys ['workers']" in err
        assert not (tmp_path / "features.grmf").exists()

    def test_training_keys_of_a_shared_config_leave_evaluate_unchanged(self, tiny_workspace, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 1, "embed_lr": 7.0, "mlp_lr": 9.0,
                                        "sage_sample_k": 1, "self_loops": True, "test_fraction": 0.5}))
        weights = [str(tiny_workspace / f"{v}.grmw") for v in ("plain", "sage", "gcn")]
        for out, extra in ((tmp_path / "a", []), (tmp_path / "b", ["--config", str(cfg_path)])):
            rc = main(["evaluate", "--store", str(tiny_workspace / "features.grmf"),
                       "--weights", *weights, "--out", str(out), *extra])
            assert rc == EXIT_OK
        for name in ("report.json", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_training_keys_of_a_shared_config_leave_recommend_unchanged(
        self, tiny_workspace, tmp_path, capsys
    ):
        # the seed too: recommend seeds the audio window and SAGE sample from the weights
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "epochs": 1, "sage_sample_k": 1, "self_loops": True}))
        wav = tiny_workspace / "Rock" / "Rock_000.wav"
        argv = ["recommend", "--store", str(tiny_workspace / "features.grmf"),
                "--weights", str(tiny_workspace / "sage.grmw"), "--audio", str(wav)]
        printed = []
        for extra in ([], ["--config", str(cfg_path)]):
            capsys.readouterr()
            assert main([*argv, *extra]) == EXIT_OK
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1] and printed[0].err == ""


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


class TestSettingRanges:
    """Settings the program cannot run exit 2 with one line before any work:
    lengths must be finite, learning rates finite and positive, and sample
    rates within the 8 to 384 kHz that decode_wav reads."""

    def assert_one_line_usage_error(self, capsys, argv, words):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE, err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert words in err

    @pytest.mark.parametrize(
        "flag, value, words",
        [("--clip-seconds", "inf", "finite"), ("--sample-rate", "500000", "8000..384000 Hz"),
         ("--sample-rate", "4000", "8000..384000 Hz"), ("--genres", "Rock,Rock", "Rock")],
    )
    def test_synth(self, tmp_path, capsys, flag, value, words):
        argv = ["synth", "--out", str(tmp_path / "x"), "--songs-per-genre", "2", flag, value]
        self.assert_one_line_usage_error(capsys, argv, words)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flag, value, words",
        [("--window-seconds", "inf", "finite"), ("--sample-rate", "400000", "8000..384000 Hz"),
         ("--sample-rate", "16000", "22050")],
    )
    def test_extract(self, tiny_workspace, tmp_path, capsys, flag, value, words):
        argv = ["extract", "--manifest", str(tiny_workspace / "manifest.csv"),
                "--out", str(tmp_path), flag, value]
        self.assert_one_line_usage_error(capsys, argv, words)
        assert not (tmp_path / "features.grmf").exists()

    @pytest.mark.parametrize("flag", ["--embed-lr", "--mlp-lr"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_train(self, tiny_workspace, tmp_path, capsys, flag, value):
        argv = ["train", "--store", str(tiny_workspace / "features.grmf"), "--variant", "gcn",
                "--out", str(tmp_path), flag, value]
        self.assert_one_line_usage_error(capsys, argv, "learning rates must be positive and finite")
        assert not (tmp_path / "gcn.grmw").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_train_seed_outside_64_bits(self, tiny_workspace, tmp_path, capsys, seed):
        # the weight file records the seed in 8 bytes
        argv = ["train", "--store", str(tiny_workspace / "features.grmf"), "--variant", "gcn",
                "--out", str(tmp_path), "--seed", str(seed)]
        self.assert_one_line_usage_error(capsys, argv, f"seed must be in 0..2**64-1, got {seed}")
        assert not (tmp_path / "gcn.grmw").exists()

    @pytest.mark.parametrize(
        "offset, layout, value, words",
        [(24, "<d", np.inf, "finite"), (16, "<Q", 400000, "8000..384000 Hz"),
         (16, "<Q", 16000, "22050")],
    )
    def test_recommend_audio_store_front_end(
        self, tiny_workspace, tmp_path, capsys, offset, layout, value, words
    ):
        # the store records the rate (bytes 16-23) and window (24-31) of its front end
        store = tmp_path / "features.grmf"
        raw = bytearray((tiny_workspace / "features.grmf").read_bytes())
        struct.pack_into(layout, raw, offset, value)
        store.write_bytes(bytes(raw))
        wav = next(iter(sorted(tiny_workspace.rglob("*.wav"))))
        argv = ["recommend", "--store", str(store),
                "--weights", str(tiny_workspace / "gcn.grmw"), "--audio", str(wav)]
        self.assert_one_line_usage_error(capsys, argv, f"error: {store}: ")
        self.assert_one_line_usage_error(capsys, argv, words)


class TestPathOfTheWrongKind:
    @pytest.mark.parametrize(
        "case",
        ["recommend --store", "recommend --audio", "extract --manifest", "train --config",
         "train --out"],
    )
    def test_is_one_line_usage_error(self, tiny_workspace, tmp_path, capsys, case):
        # a directory where a file belongs, or a file where a directory belongs
        a_dir, a_file = tmp_path / "dir", tmp_path / "file"
        a_dir.mkdir()
        a_file.write_text("")
        store = str(tiny_workspace / "features.grmf")
        recommend = ["recommend", "--weights", str(tiny_workspace / "gcn.grmw")]
        train = ["train", "--store", store, "--variant", "gcn"]
        argv = {
            "recommend --store": [*recommend, "--store", str(a_dir), "--song-id", "Rock/Rock_000.wav"],
            "recommend --audio": [*recommend, "--store", store, "--audio", str(a_dir)],
            "extract --manifest": ["extract", "--manifest", str(a_dir)],
            "train --config": [*train, "--config", str(a_dir)],
            "train --out": [*train, "--out", str(a_file)],
        }[case]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE, err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestRepeatedSongId:
    @pytest.mark.parametrize("verb", ["train", "evaluate", "recommend"])
    def test_store_is_refused_naming_the_file_and_the_id(self, tiny_workspace, tmp_path, capsys, verb):
        # a second song renamed to the first's id: evaluate would score the
        # query without the song whose id it shares, train and recommend would
        # only say that node ids must be unique
        raw = (tiny_workspace / "features.grmf").read_bytes()
        first, second = b"Electronic/Electronic_000.wav\0", b"Electronic/Electronic_002.wav\0"
        assert raw.count(first) == raw.count(second) == 1
        store = tmp_path / "repeated.grmf"
        store.write_bytes(raw.replace(second, first))
        weights = ["--weights", str(tiny_workspace / "gcn.grmw")]
        argv = {
            "train": ["train", "--variant", "gcn", "--out", str(tmp_path)],
            "evaluate": ["evaluate", *weights, "--out", str(tmp_path)],
            "recommend": ["recommend", *weights, "--song-id", "Rock/Rock_000.wav"],
        }[verb]
        assert main([*argv, "--store", str(store)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert err == f"error: {store}: song id 'Electronic/Electronic_000.wav' appears more than once\n"
        assert out == "" and list(tmp_path.iterdir()) == [store]


@pytest.fixture(scope="module")
def two_genre_workspace(tmp_path_factory):
    """Rock and Folk only, 12 songs each, with GCN and SAGE weights."""
    root = tmp_path_factory.mktemp("two_genres")
    argv = ["synth", "--out", str(root), "--genres", "Rock,Folk", "--songs-per-genre", "12"]
    assert main(argv) == 0
    assert main(["extract", "--manifest", str(root / "manifest.csv")]) == 0
    for variant in ("gcn", "sage"):
        argv = ["train", "--store", str(root / "features.grmf"), "--variant", variant, "--epochs", "3"]
        assert main(argv) == 0
    return root


class TestOracleAttachment:
    @pytest.mark.parametrize("variant", ["gcn", "sage"])
    def test_genre_with_no_song_in_the_graph_is_a_usage_error(
        self, two_genre_workspace, capsys, variant
    ):
        # an empty clique has no neighbor mean or GCN row to embed the song by
        root = two_genre_workspace
        base = ["recommend", "--store", str(root / "features.grmf"),
                "--weights", str(root / f"{variant}.grmw"),
                "--audio", str(root / "Rock" / "Rock_000.wav"), "--attachment", "oracle"]
        capsys.readouterr()
        assert main([*base, "--genre", "Pop"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "error: no Pop song in the graph to attach to\n"
        assert main([*base, "--genre", "Rock"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 11


class TestWeightsCarryTheirSettings:
    """evaluate and recommend take every training setting from the weights;
    a seed given to evaluate must be the weights' own, and its weight files
    must share one train/test split."""

    def test_self_loops_weights_evaluate_without_the_flag(self, tmp_path, capsys):
        # two songs per genre: one to train on, alone in its clique, and one to query
        assert main(["synth", "--out", str(tmp_path), "--seed", "0", "--songs-per-genre", "2"]) == 0
        assert main(["extract", "--manifest", str(tmp_path / "manifest.csv")]) == 0
        store = str(tmp_path / "features.grmf")
        assert main(["train", "--store", store, "--variant", "gcn", "--self-loops", "--epochs", "3"]) == 0
        assert read_model(tmp_path / "gcn.grmw").cfg.self_loops is True
        capsys.readouterr()
        assert main(["evaluate", "--store", store, "--weights", str(tmp_path / "gcn.grmw")]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and "GCN" in out and (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_a_seed_other_than_the_weights_is_one_line_naming_the_file(
        self, tiny_workspace, tmp_path, capsys, given
    ):
        weights = tiny_workspace / "plain.grmw"
        args = ["evaluate", "--store", str(tiny_workspace / "features.grmf"),
                "--weights", str(weights), "--out", str(tmp_path)]
        if given == "flag":
            args += ["--seed", "1"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"seed": 1}))
            args += ["--config", str(tmp_path / "cfg.json")]
        capsys.readouterr()
        assert main(args) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {weights}: trained with seed 0, not the given seed 1\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "flag, value, split",
        [("--seed", "1", "seed 0 and 1, test_fraction 0.1 and 0.1"),
         ("--test-fraction", "0.2", "seed 0 and 0, test_fraction 0.1 and 0.2")],
    )
    def test_weight_files_of_two_splits_are_one_line_naming_both(
        self, tiny_workspace, tmp_path, capsys, flag, value, split
    ):
        store = str(tiny_workspace / "features.grmf")
        argv = ["train", "--store", store, "--variant", "gcn", "--epochs", "2", "--out", str(tmp_path)]
        assert main([*argv, flag, value]) == EXIT_OK
        plain, gcn = tiny_workspace / "plain.grmw", tmp_path / "gcn.grmw"
        capsys.readouterr()
        rc = main(["evaluate", "--store", store, "--weights", str(plain), str(gcn), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == EXIT_USAGE and out == ""
        assert err == f"error: {plain} and {gcn} were trained on different splits: {split}\n"
        assert not (tmp_path / "report.json").exists()


class TestUnsetSettingsKeepTheLibraryDefaults:
    """A setting that no flag and no config key gives keeps the default of
    the library type the verb passes its settings to."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_train_records_the_train_config_defaults(self, tiny_workspace, tmp_path, variant):
        argv = ["train", "--store", str(tiny_workspace / "features.grmf"), "--variant", variant.value]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert read_model(tmp_path / f"{variant.value}.grmw").cfg == TrainConfig(variant=variant)

    def test_extract_records_the_mfcc_config_front_end(self, tiny_workspace, tmp_path):
        argv = ["extract", "--manifest", str(tiny_workspace / "manifest.csv"), "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert read_feature_store(tmp_path / "features.grmf").front_end == MfccConfig()

    def test_evaluate_scores_under_the_experiment_config_defaults(
        self, tiny_workspace, tmp_path, monkeypatch
    ):
        run_experiment, scored = cli.run_experiment, []

        def spy(*args, **kwargs):
            scored.append((args[3][0].cfg, args[4]))  # the model's settings, the ExperimentConfig
            return run_experiment(*args, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", spy)
        weights = tiny_workspace / "gcn.grmw"
        argv = ["evaluate", "--store", str(tiny_workspace / "features.grmf"), "--weights", str(weights)]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert scored == [(read_model(weights).cfg, ExperimentConfig())]


class TestOptionCount:
    def test_flags_per_verb_and_config_keys(self):
        # a new setting updates this count, the README and the ROADMAP together
        (verbs,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
        counts = {
            verb: sum(1 for a in parser._actions if a.option_strings and a.dest != "help")
            for verb, parser in verbs.items()
        }
        assert counts == {"synth": 7, "extract": 6, "train": 11, "evaluate": 9, "recommend": 8}
        assert sum(counts.values()) == 41  # --no-self-loops is the other half of --self-loops
        assert len(cli._CONFIG_KEYS) == 17
        # each config key names a flag of some verb
        dests = {a.dest for parser in verbs.values() for a in parser._actions}
        assert set(cli._CONFIG_KEYS) <= dests

    def test_fields_of_the_config_types_the_verbs_fill(self):
        # every other MFCC setting is a constant: the store records the whole front end
        names = {
            cls.__name__: tuple(f.name for f in fields(cls))
            for cls in (MfccConfig, TrainConfig, ExperimentConfig, SyntheticSpec)
        }
        assert names == {
            "MfccConfig": ("target_sample_rate", "window_seconds"),
            "TrainConfig": (
                "embed_lr", "mlp_lr", "epochs", "seed", "variant", "sage_sample_k", "self_loops",
                "test_fraction",
            ),
            "ExperimentConfig": ("queries_per_genre", "attachment", "knn_k", "recommend_k"),
            "SyntheticSpec": ("songs_per_genre", "clip_seconds", "sample_rate", "seed", "genres"),
        }
