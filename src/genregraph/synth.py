"""Synthetic desk-scale audio corpus.

Each genre gets a fixed timbre recipe (base pitch, partial layout, noise
mix); each song perturbs the recipe with a seeded detune, weight jitter,
and random phases. Recipes are tuned so raw MFCCs separate genres on
average but confuse the deliberately paired ones: Electronic and
Experimental share a 110 Hz base, Folk and International share 196 Hz.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .audio import MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, AudioClip, SeedStream, clip_workers
from .audio import derive_seed, encode_wav
from .dataset import DatasetManifest, ManifestEntry
from .graph import GENRE_NAMES, GenreLabel
from .mfcc import MfccConfig, wav_mfcc
from .stores import FeatureRecord

WINDOW_SECONDS = 5.0
_BLOCK = 512


@dataclass(frozen=True)
class TimbreRecipe:
    """One genre's sound: partials at base_hz * ratios, plus noise."""

    base_hz: float
    ratios: tuple[float, ...]
    weights: tuple[float, ...]
    noise_level: float
    tremolo_hz: float = 0.0
    tremolo_depth: float = 0.0

    def __post_init__(self):
        if len(self.ratios) != len(self.weights):
            raise ValueError("ratios and weights must pair up")
        if self.base_hz <= 0:
            raise ValueError("base_hz must be positive")
        if not 0.0 <= self.tremolo_depth < 1.0:
            raise ValueError("tremolo_depth must lie in [0, 1)")


DEFAULT_RECIPES: dict[str, TimbreRecipe] = {
    "Electronic": TimbreRecipe(
        base_hz=110.0,
        ratios=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        weights=(1.0, 0.03, 0.33, 0.03, 0.2, 0.03, 0.14, 0.03),
        noise_level=0.02,
        tremolo_hz=4.0,
        tremolo_depth=0.5,
    ),
    "Experimental": TimbreRecipe(
        base_hz=110.0,
        ratios=(1.0, 2.13, 3.41, 5.09, 6.78),
        weights=(1.0, 0.7, 0.5, 0.35, 0.25),
        noise_level=0.12,
    ),
    "Folk": TimbreRecipe(
        base_hz=196.0,
        ratios=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        weights=(1.0, 0.5, 0.33, 0.25, 0.2, 0.17),
        noise_level=0.012,
        tremolo_hz=5.5,
        tremolo_depth=0.2,
    ),
    "Hip-Hop": TimbreRecipe(
        base_hz=55.0,
        ratios=(1.0, 2.0, 3.0, 4.0),
        weights=(1.0, 0.6, 0.25, 0.1),
        noise_level=0.09,
        tremolo_hz=2.0,
        tremolo_depth=0.6,
    ),
    "Instrumental": TimbreRecipe(
        base_hz=262.0,
        ratios=(1.0, 2.0, 3.0, 4.0, 5.0),
        weights=(1.0, 0.25, 0.11, 0.06, 0.04),
        noise_level=0.004,
    ),
    "International": TimbreRecipe(
        base_hz=196.0,
        ratios=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        weights=(0.8, 1.0, 0.3, 0.65, 0.15, 0.4),
        noise_level=0.03,
        tremolo_hz=7.0,
        tremolo_depth=0.35,
    ),
    "Pop": TimbreRecipe(
        base_hz=330.0,
        ratios=(1.0, 2.0, 3.0, 4.0, 5.0),
        weights=(1.0, 0.9, 0.8, 0.65, 0.5),
        noise_level=0.02,
    ),
    "Rock": TimbreRecipe(
        base_hz=82.4,
        ratios=tuple(float(k) for k in range(1, 11)),
        weights=tuple(1.0 / np.sqrt(k) for k in range(1, 11)),
        noise_level=0.06,
    ),
}


@dataclass(frozen=True)
class SyntheticSpec:
    songs_per_genre: int = 50
    clip_seconds: float = 6.0
    sample_rate: int = 22050
    seed: int = 0
    genres: tuple[str, ...] = GENRE_NAMES

    def __post_init__(self):
        if self.songs_per_genre < 2:
            raise ValueError("songs_per_genre must be >= 2 so a train/test split exists")
        if not WINDOW_SECONDS <= self.clip_seconds < np.inf:
            raise ValueError(f"clips must be at least {WINDOW_SECONDS} s long and finite")
        if not MIN_SAMPLE_RATE <= self.sample_rate <= MAX_SAMPLE_RATE:
            raise ValueError(
                f"sample rate must lie in {MIN_SAMPLE_RATE}..{MAX_SAMPLE_RATE} Hz, got {self.sample_rate}"
            )
        object.__setattr__(self, "genres", tuple(self.genres))
        unknown = [g for g in self.genres if g not in GENRE_NAMES]
        if unknown:
            raise ValueError(f"unknown genres {unknown}; choose from {GENRE_NAMES}")
        if not self.genres:
            raise ValueError("need at least one genre")
        repeated = [g for i, g in enumerate(self.genres) if g in self.genres[:i]]
        if repeated:
            raise ValueError(f"genre {repeated[0]} is given more than once")


def _sines(freqs, amps, phases, sample_rate: int, out: np.ndarray) -> np.ndarray:
    """out[j, i] = sum_k amps[k] sin(2 pi freqs[k] (_BLOCK j + i) / rate + phases[k]), by angle
    addition: sines only at each block's start and at each offset in a block. einsum at its
    default optimize=False calls no BLAS, so the bytes do not depend on the BLAS thread count."""
    omega = np.multiply(2.0 * np.pi, freqs) / sample_rate
    a = np.multiply.outer(omega, _BLOCK * np.arange(len(out))) + np.reshape(phases, (-1, 1))
    b = np.multiply.outer(omega, np.arange(_BLOCK))
    amps = np.reshape(amps, (-1, 1))
    left = np.concatenate([amps * np.sin(a), amps * np.cos(a)])
    right = np.concatenate([np.cos(b), np.sin(b)])
    return np.einsum("kj,ki->ji", left, right, out=out)


def generate_clip(
    recipe: TimbreRecipe,
    seconds: float,
    sample_rate: int,
    rng: np.random.Generator,
) -> AudioClip:
    """Synthesize one song: jittered partials, tremolo, noise, peak 0.9."""
    n = int(round(seconds * sample_rate))
    # wide per-song jitter confuses per-song raw MFCCs across genres while
    # leaving the per-genre mean envelope distinct (the jitters average out)
    detune = 2.0 ** (rng.uniform(-3.0, 3.0) / 12.0)
    tilt = rng.uniform(-0.9, 0.9)
    freqs, amps, phases = [], [], []
    for ratio, weight in zip(recipe.ratios, recipe.weights):
        freq = recipe.base_hz * detune * ratio
        if freq >= sample_rate / 2:
            continue
        freqs.append(freq)
        amps.append(weight * (np.exp(rng.normal(0.0, 0.5)) * ratio**tilt))
        phases.append(rng.uniform(0.0, 2.0 * np.pi))
    tremolo = recipe.tremolo_hz > 0.0 and recipe.tremolo_depth > 0.0
    trem_phase = rng.uniform(0.0, 2.0 * np.pi) if tremolo else 0.0
    noise = recipe.noise_level * np.exp(rng.normal(0.0, 0.8))
    # two arrays, not one block, so that the returned clip keeps only the signal's alive
    grid, scratch = np.empty((-(-n // _BLOCK), _BLOCK)), np.empty((-(-n // _BLOCK), _BLOCK))
    signal, row = grid.reshape(-1)[:n], scratch.reshape(-1)[:n]
    _sines(freqs, amps, phases, sample_rate, out=grid)
    if tremolo:
        _sines([recipe.tremolo_hz], [recipe.tremolo_depth], [trem_phase], sample_rate, out=scratch)
        signal *= np.add(row, 1.0, out=row)
    signal += np.multiply(rng.standard_normal(out=row), noise, out=row)
    signal *= 0.9 / np.max(np.abs(signal, out=row))
    return AudioClip(samples=signal, sample_rate=sample_rate)


def song_seed(spec: SyntheticSpec, genre_index: int, song_index: int) -> int:
    return derive_seed(spec.seed, SeedStream.CLIP, genre_index, song_index)


def _for_each_song(spec: SyntheticSpec, finish: Callable[[int, str, str, bytes], object]) -> list:
    """finish(corpus index, genre, song id, WAV bytes) for every song, in
    corpus (genre-major) order.

    Each song's clip comes from its own seeded rng, so the songs run on a
    thread pool of clip_workers(songs) threads, like extract's, and the
    bytes do not depend on it.
    """
    per_genre = range(spec.songs_per_genre)
    songs = [(gi, genre, si) for gi, genre in enumerate(spec.genres) for si in per_genre]

    def one(item: tuple[int, tuple[int, str, int]]):
        index, (gi, genre, si) = item
        rng = np.random.default_rng(song_seed(spec, gi, si))
        clip = generate_clip(DEFAULT_RECIPES[genre], spec.clip_seconds, spec.sample_rate, rng)
        return finish(index, genre, f"{genre}/{genre}_{si:03d}.wav", encode_wav(clip))

    with ThreadPoolExecutor(max_workers=clip_workers(len(songs))) as pool:
        return list(pool.map(one, enumerate(songs)))


def generate_dataset(spec: SyntheticSpec, out_dir: str | Path) -> DatasetManifest:
    """Write one WAV per song plus manifest.csv of (path, genre) rows;
    byte-identical per seed. Paths are relative to out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for genre in spec.genres:
        (out_dir / genre).mkdir(exist_ok=True)

    def write(index: int, genre: str, rel: str, wav: bytes) -> ManifestEntry:
        (out_dir / rel).write_bytes(wav)
        return ManifestEntry(path=rel, genre=genre)

    manifest = DatasetManifest(entries=tuple(_for_each_song(spec, write)))
    manifest.save(out_dir / "manifest.csv")
    return manifest


def synthesize_features(
    spec: SyntheticSpec,
    cfg: MfccConfig | None = None,
    extract_seed: int | None = None,
) -> list[FeatureRecord]:
    """Desk-corpus features without touching disk.

    Each clip goes through its 16-bit WAV bytes and wav_mfcc, as in
    extract, so the records match a synth + extract run on the same seeds
    byte for byte.
    """
    cfg = cfg or MfccConfig()
    seed = spec.seed if extract_seed is None else extract_seed

    def features(index: int, genre: str, song_id: str, wav: bytes) -> FeatureRecord:
        genre_index = GenreLabel.from_name(genre).index
        return FeatureRecord(song_id, genre_index, wav_mfcc(wav, cfg, seed, index))

    return _for_each_song(spec, features)
