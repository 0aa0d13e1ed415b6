"""Synthetic corpus generation and its in-memory feature mirror."""

import tracemalloc

import numpy as np
import pytest

from genregraph.audio import SeedStream, decode_wav, encode_wav, random_window, resample
from genregraph.dataset import DatasetManifest
from genregraph.graph import GENRE_NAMES, GenreLabel
from genregraph.mfcc import MfccConfig, mfcc, wav_mfcc
from genregraph.synth import (
    DEFAULT_RECIPES,
    SyntheticSpec,
    TimbreRecipe,
    generate_clip,
    generate_dataset,
    song_seed,
    synthesize_features,
)
from genregraph.train import derive_seed

from conftest import longdouble_generate_clip, reference_generate_clip


class TestTimbreRecipe:
    def test_every_genre_has_a_recipe(self):
        assert set(DEFAULT_RECIPES) == set(GENRE_NAMES)

    def test_confusable_pairs_share_base_pitch(self):
        assert DEFAULT_RECIPES["Electronic"].base_hz == DEFAULT_RECIPES["Experimental"].base_hz
        assert DEFAULT_RECIPES["Folk"].base_hz == DEFAULT_RECIPES["International"].base_hz

    def test_validation(self):
        with pytest.raises(ValueError):
            TimbreRecipe(base_hz=0.0, ratios=(1.0,), weights=(1.0,), noise_level=0.1)
        with pytest.raises(ValueError):
            TimbreRecipe(base_hz=100.0, ratios=(1.0, 2.0), weights=(1.0,), noise_level=0.1)
        with pytest.raises(ValueError):
            TimbreRecipe(
                base_hz=100.0, ratios=(1.0,), weights=(1.0,), noise_level=0.1, tremolo_depth=1.0
            )


class TestSyntheticSpec:
    def test_defaults(self):
        spec = SyntheticSpec()
        assert spec.songs_per_genre == 50
        assert spec.sample_rate == 22050
        assert spec.genres == GENRE_NAMES

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(songs_per_genre=1)
        with pytest.raises(ValueError):
            SyntheticSpec(clip_seconds=4.9)
        with pytest.raises(ValueError):
            SyntheticSpec(genres=("Polka",))
        with pytest.raises(ValueError):
            SyntheticSpec(genres=())

    @pytest.mark.parametrize("seconds", [np.inf, np.nan])
    def test_clip_seconds_must_be_finite(self, seconds):
        # a clip is round(seconds * rate) samples
        with pytest.raises(ValueError, match="finite"):
            SyntheticSpec(clip_seconds=seconds)

    @pytest.mark.parametrize("rate", [4000, 7999, 384_001, 500_000])
    def test_sample_rate_outside_what_decode_wav_reads_is_rejected(self, rate):
        # decode_wav reads 8 to 384 kHz, so extract would reject every file
        with pytest.raises(ValueError, match="8000..384000 Hz"):
            SyntheticSpec(sample_rate=rate)

    @pytest.mark.parametrize("rate", [8000, 384_000])
    def test_sample_rate_bounds_are_accepted(self, rate):
        assert SyntheticSpec(sample_rate=rate).sample_rate == rate


class TestGenerateClip:
    def test_length_rate_and_peak(self):
        clip = generate_clip(
            DEFAULT_RECIPES["Rock"], seconds=5.5, sample_rate=22050,
            rng=np.random.default_rng(0),
        )
        assert clip.sample_rate == 22050
        assert len(clip.samples) == int(round(5.5 * 22050))
        assert abs(np.max(np.abs(clip.samples)) - 0.9) < 1e-12

    def test_seeded_determinism(self):
        recipe = DEFAULT_RECIPES["Pop"]
        a = generate_clip(recipe, 5.0, 22050, np.random.default_rng(3))
        b = generate_clip(recipe, 5.0, 22050, np.random.default_rng(3))
        c = generate_clip(recipe, 5.0, 22050, np.random.default_rng(4))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize(
        "genre, seconds, rate",
        # at 1 kHz the upper partials pass Nyquist and are skipped, draws and
        # all; 10 s at 384 kHz is 7,500 blocks, for the genre with the most
        # partials, without tremolo and with it
        [(g, s, r) for s, r in [(5.0, 22050), (0.5, 44100), (2.0, 1000)] for g in GENRE_NAMES]
        + [("Rock", 10.0, 384_000), ("Electronic", 10.0, 384_000)],
    )
    def test_is_within_eps_times_the_largest_phase_of_a_long_double_oracle(self, genre, seconds, rate):
        # float64 holds a phase x to eps * x, so no float64 render of a sine
        # can promise more per sample; the whole-array np.sin render meets
        # the same bound, so it is not fitted to the block render
        ours, whole, oracle = (np.random.default_rng(11) for _ in range(3))
        clip = generate_clip(DEFAULT_RECIPES[genre], seconds, rate, ours)
        expected, x_max = longdouble_generate_clip(DEFAULT_RECIPES[genre], seconds, rate, oracle)
        bound = np.finfo(np.float64).eps * x_max
        assert np.max(np.abs(clip.samples - expected)) <= bound
        reference = reference_generate_clip(DEFAULT_RECIPES[genre], seconds, rate, whole)
        assert np.max(np.abs(reference.samples - expected)) <= bound
        assert ours.bit_generator.state == whole.bit_generator.state == oracle.bit_generator.state

    def test_peak_memory_is_under_three_clip_rows(self):
        # the signal grid, one scratch grid and a finiteness mask; no time
        # axis: each sine is taken only at the block starts and offsets
        n = 10 * 22050
        tracemalloc.start()
        try:
            generate_clip(DEFAULT_RECIPES["Rock"], 10.0, 22050, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * n * 8


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = SyntheticSpec(songs_per_genre=3, seed=1)
    manifest = generate_dataset(spec, out)
    return spec, out, manifest


class TestGenerateDataset:
    def test_writes_every_file_and_manifest_row(self, tiny_dataset):
        spec, out, manifest = tiny_dataset
        assert len(manifest) == 24
        assert (out / "manifest.csv").exists()
        for entry in manifest.entries:
            wav = manifest.resolve(entry, out)
            assert wav.exists()
            clip = decode_wav(wav.read_bytes())
            assert clip.sample_rate == spec.sample_rate
            assert clip.duration >= 5.0

    def test_loaded_manifest_round_trips(self, tiny_dataset):
        _, out, manifest = tiny_dataset
        loaded = DatasetManifest.load(out / "manifest.csv")
        assert loaded == manifest

    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(songs_per_genre=2, seed=7)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_dataset(spec, a_dir)
        generate_dataset(spec, b_dir)
        a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel


def sequential_corpus(spec):
    """Oracle: (song id, genre, WAV bytes) one song at a time, genre-major."""
    songs = []
    for gi, genre in enumerate(spec.genres):
        for si in range(spec.songs_per_genre):
            rng = np.random.default_rng(song_seed(spec, gi, si))
            clip = generate_clip(DEFAULT_RECIPES[genre], spec.clip_seconds, spec.sample_rate, rng)
            songs.append((f"{genre}/{genre}_{si:03d}.wav", genre, encode_wav(clip)))
    return songs


class TestThreadPoolMatchesSequentialOracle:
    def test_generate_dataset_writes_each_songs_own_clip_in_genre_major_order(self, tiny_dataset):
        spec, out, manifest = tiny_dataset
        oracle = sequential_corpus(spec)
        assert [(e.path, e.genre) for e in manifest.entries] == [(i, g) for i, g, _ in oracle]
        for song_id, _, wav in oracle:
            assert (out / song_id).read_bytes() == wav, song_id

    def test_synthesize_features_matches_the_oracle(self, tiny_dataset):
        spec = tiny_dataset[0]
        cfg = MfccConfig()
        records = synthesize_features(spec, cfg, extract_seed=4)
        oracle = sequential_corpus(spec)
        assert [(r.song_id, r.genre_name) for r in records] == [(i, g) for i, g, _ in oracle]
        for index, (record, (_, _, wav)) in enumerate(zip(records, oracle)):
            assert np.array_equal(record.values, wav_mfcc(wav, cfg, 4, index))


class TestSynthesizeFeatures:
    def test_matches_the_file_pipeline_byte_for_byte(self, tmp_path):
        spec = SyntheticSpec(songs_per_genre=2, seed=5)
        out = tmp_path / "corpus"
        manifest = generate_dataset(spec, out)
        cfg = MfccConfig()

        from_disk = []
        for index, entry in enumerate(manifest.entries):
            clip = decode_wav(manifest.resolve(entry, out).read_bytes())
            clip = resample(clip, cfg.target_sample_rate)
            window = random_window(
                clip, cfg.window_seconds, seed=derive_seed(spec.seed, SeedStream.WINDOW, index)
            )
            from_disk.append(mfcc(window, cfg))

        in_memory = synthesize_features(spec)
        assert len(in_memory) == len(from_disk)
        for rec, disk_vec, entry in zip(in_memory, from_disk, manifest.entries):
            assert rec.song_id == entry.path
            assert rec.genre_name == entry.genre
            assert np.array_equal(rec.values, disk_vec)

    def test_desk_records_shape(self, desk_records):
        assert len(desk_records) == 400
        counts = {}
        for rec in desk_records:
            counts[rec.genre_name] = counts.get(rec.genre_name, 0) + 1
            assert rec.values.shape == (30,)
            assert np.all(np.isfinite(rec.values))
        assert counts == {name: 50 for name in GENRE_NAMES}

    def test_desk_features_separate_genres_on_average(self, desk_arrays):
        # Genres must be recoverable from the clique means (silhouette
        # above zero) while individual songs stay noisy enough that the
        # raw-feature baseline cannot be perfect.
        _, labels, features = desk_arrays
        centroids = np.array([features[labels == gi].mean(axis=0) for gi in range(8)])
        intra = np.mean(
            [
                np.linalg.norm(features[labels == gi] - centroids[gi], axis=1).mean()
                for gi in range(8)
            ]
        )
        pair_dists = [
            np.linalg.norm(centroids[i] - centroids[j])
            for i in range(8)
            for j in range(i + 1, 8)
        ]
        inter = np.mean(pair_dists)
        assert inter > intra > 0.0

    def test_song_seed_streams_are_distinct(self):
        spec = SyntheticSpec(songs_per_genre=3, seed=0)
        seeds = {song_seed(spec, gi, si) for gi in range(8) for si in range(3)}
        assert len(seeds) == 24

    def test_extract_seed_changes_windows_not_songs(self):
        spec = SyntheticSpec(songs_per_genre=2, clip_seconds=6.0, seed=2)
        base = synthesize_features(spec)
        rewindowed = synthesize_features(spec, extract_seed=99)
        assert [r.song_id for r in base] == [r.song_id for r in rewindowed]
        diffs = [
            not np.array_equal(a.values, b.values) for a, b in zip(base, rewindowed)
        ]
        assert any(diffs)
