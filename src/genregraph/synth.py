"""Synthetic desk-scale audio corpus.

Each genre gets a fixed timbre recipe (base pitch, partial layout, noise
mix); each song perturbs the recipe with a seeded detune, weight jitter,
and random phases. Recipes are tuned so raw MFCCs separate genres on
average but confuse the deliberately paired ones: Electronic and
Experimental share a 110 Hz base, Folk and International share 196 Hz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .audio import AudioClip, derive_seed, encode_wav
from .dataset import DatasetManifest, ManifestEntry
from .graph import GENRE_NAMES, GenreLabel
from .mfcc import MfccConfig, wav_mfcc
from .stores import FeatureRecord
from .train import split_train_test

_STREAM_CLIP = 4

WINDOW_SECONDS = 5.0


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
    test_fraction: float = 0.1
    genres: tuple[str, ...] = GENRE_NAMES
    recipes: Mapping[str, TimbreRecipe] = field(default_factory=lambda: dict(DEFAULT_RECIPES))

    def __post_init__(self):
        if self.songs_per_genre < 2:
            raise ValueError("songs_per_genre must be >= 2 so a train/test split exists")
        if self.clip_seconds < WINDOW_SECONDS:
            raise ValueError(f"clips must be at least {WINDOW_SECONDS} s long")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "genres", tuple(self.genres))
        unknown = [g for g in self.genres if g not in GENRE_NAMES]
        if unknown:
            raise ValueError(f"unknown genres {unknown}; choose from {GENRE_NAMES}")
        if not self.genres:
            raise ValueError("need at least one genre")
        missing = [g for g in self.genres if g not in self.recipes]
        if missing:
            raise ValueError(f"no timbre recipe for {missing}")


def generate_clip(
    recipe: TimbreRecipe,
    seconds: float,
    sample_rate: int,
    rng: np.random.Generator,
) -> AudioClip:
    """Synthesize one song: jittered partials, tremolo, noise, peak 0.9."""
    n = int(round(seconds * sample_rate))
    t = np.arange(n) / sample_rate
    # wide per-song jitter confuses per-song raw MFCCs across genres while
    # leaving the per-genre mean envelope distinct (the jitters average out)
    detune = 2.0 ** (rng.uniform(-3.0, 3.0) / 12.0)
    tilt = rng.uniform(-0.9, 0.9)
    signal = np.zeros(n)
    for ratio, weight in zip(recipe.ratios, recipe.weights):
        freq = recipe.base_hz * detune * ratio
        if freq >= sample_rate / 2:
            continue
        jitter = np.exp(rng.normal(0.0, 0.5)) * ratio**tilt
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal += weight * jitter * np.sin(2.0 * np.pi * freq * t + phase)
    if recipe.tremolo_hz > 0.0 and recipe.tremolo_depth > 0.0:
        trem_phase = rng.uniform(0.0, 2.0 * np.pi)
        signal *= 1.0 + recipe.tremolo_depth * np.sin(
            2.0 * np.pi * recipe.tremolo_hz * t + trem_phase
        )
    noise = recipe.noise_level * np.exp(rng.normal(0.0, 0.8))
    signal += noise * rng.standard_normal(n)
    peak = np.max(np.abs(signal))
    return AudioClip(samples=signal * (0.9 / peak), sample_rate=sample_rate)


def song_seed(spec: SyntheticSpec, genre_index: int, song_index: int) -> int:
    return derive_seed(spec.seed, _STREAM_CLIP, genre_index, song_index)


def generate_dataset(spec: SyntheticSpec, out_dir: str | Path) -> DatasetManifest:
    """Write one WAV per song plus manifest.csv; byte-identical per seed.

    Paths in the manifest are relative to out_dir. The split column is a
    per-genre seeded 90/10 assignment.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    labels = np.repeat(np.arange(len(spec.genres)), spec.songs_per_genre)
    train_idx, _ = split_train_test(labels, test_fraction=spec.test_fraction, seed=spec.seed)
    is_train = np.zeros(labels.size, dtype=bool)
    is_train[train_idx] = True

    entries = []
    flat = 0
    for gi, genre in enumerate(spec.genres):
        genre_dir = out_dir / genre
        genre_dir.mkdir(exist_ok=True)
        recipe = spec.recipes[genre]
        for si in range(spec.songs_per_genre):
            rng = np.random.default_rng(song_seed(spec, gi, si))
            clip = generate_clip(recipe, spec.clip_seconds, spec.sample_rate, rng)
            rel = f"{genre}/{genre}_{si:03d}.wav"
            (out_dir / rel).write_bytes(encode_wav(clip))
            entries.append(
                ManifestEntry(path=rel, genre=genre, split="train" if is_train[flat] else "test")
            )
            flat += 1

    manifest = DatasetManifest(entries=tuple(entries))
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
    records = []
    index = 0
    for gi, genre in enumerate(spec.genres):
        recipe = spec.recipes[genre]
        genre_index = GenreLabel.from_name(genre).index
        for si in range(spec.songs_per_genre):
            rng = np.random.default_rng(song_seed(spec, gi, si))
            clip = generate_clip(recipe, spec.clip_seconds, spec.sample_rate, rng)
            song_id = f"{genre}/{genre}_{si:03d}.wav"
            values = wav_mfcc(encode_wav(clip), cfg, seed, index)
            records.append(FeatureRecord(song_id=song_id, genre_index=genre_index, values=values))
            index += 1
    return records
