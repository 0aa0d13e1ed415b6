"""MFCC front-end: STFT power spectrogram, mel filterbank, cepstral coefficients.

One song becomes one 30-dimensional vector: Hann-windowed power spectrogram,
triangular mel filterbank, log compression, orthonormal DCT-II, then the
arithmetic mean over frames. wav_mfcc runs the whole chain from WAV bytes.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct
from scipy.signal import get_window

from .audio import WINDOW_SEED_STREAM, AudioClip, decode_wav, derive_seed, random_window, resample

LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class MfccConfig:
    n_mfcc: int = 30
    n_fft: int = 2048
    hop_length: int = 512
    n_mels: int = 128
    target_sample_rate: int = 22050
    window_seconds: float = 5.0
    fmin: float = 0.0
    fmax: float = 11025.0

    def __post_init__(self):
        if self.n_mfcc <= 0 or self.n_mfcc > self.n_mels:
            raise ValueError(f"need 0 < n_mfcc <= n_mels, got {self.n_mfcc} vs {self.n_mels}")
        if self.hop_length <= 0 or self.hop_length > self.n_fft:
            raise ValueError(f"need 0 < hop_length <= n_fft, got {self.hop_length} vs {self.n_fft}")
        if not (0 <= self.fmin < self.fmax <= self.target_sample_rate / 2):
            raise ValueError(
                f"need 0 <= fmin < fmax <= nyquist, got fmin={self.fmin} "
                f"fmax={self.fmax} sr={self.target_sample_rate}"
            )
        if self.window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {self.window_seconds}")


@dataclass(frozen=True)
class MfccVector:
    """Frame-averaged MFCC feature for one song."""

    values: np.ndarray
    song_id: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("MFCC values contain non-finite entries")


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def power_spectrogram(clip: AudioClip, cfg: MfccConfig) -> np.ndarray:
    """Squared-magnitude STFT, shape (frames, n_fft // 2 + 1).

    Frames are n_fft samples at hop_length stride over a signal reflect-padded
    by n_fft // 2 on both ends, each multiplied by a periodic Hann window.
    """
    if len(clip) == 0:
        raise ValueError("cannot compute a spectrogram of an empty clip")
    n_fft, hop = cfg.n_fft, cfg.hop_length
    pad = n_fft // 2
    padded = np.pad(clip.samples, pad, mode="reflect")
    n_frames = 1 + (padded.size - n_fft) // hop
    window = _constants(cfg)[0]

    shape = (n_frames, n_fft)
    strides = (hop * padded.strides[0], padded.strides[0])
    frames = np.lib.stride_tricks.as_strided(padded, shape=shape, strides=strides)
    spectrum = np.fft.rfft(frames * window, axis=1)
    return np.abs(spectrum) ** 2


def mel_filterbank(cfg: MfccConfig) -> np.ndarray:
    """Triangular mel filters, shape (n_mels, n_fft // 2 + 1).

    Peaks are equally spaced on the mel scale between fmin and fmax;
    each row is nonnegative with contiguous support and unit peak.
    """
    n_bins = cfg.n_fft // 2 + 1
    bin_freqs = np.arange(n_bins) * cfg.target_sample_rate / cfg.n_fft
    mel_points = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_points = mel_to_hz(mel_points)

    left = hz_points[:-2, None]
    center = hz_points[1:-1, None]
    right = hz_points[2:, None]
    rising = (bin_freqs - left) / (center - left)
    falling = (right - bin_freqs) / (right - center)
    return np.maximum(0.0, np.minimum(rising, falling))


@functools.lru_cache(maxsize=8)
def _build_constants(cfg: MfccConfig) -> tuple[np.ndarray, np.ndarray]:
    window = get_window("hann", cfg.n_fft, fftbins=True)
    filterbank = mel_filterbank(cfg)
    window.flags.writeable = False
    filterbank.flags.writeable = False
    return window, filterbank


_constants_lock = threading.Lock()


def _constants(cfg: MfccConfig) -> tuple[np.ndarray, np.ndarray]:
    """Periodic Hann window and mel filterbank of a config, read-only.

    Built once per config and process. The lock makes threads that miss
    the cache together (extract's pool) wait for one build, not each
    make their own.
    """
    with _constants_lock:
        return _build_constants(cfg)


def filter_peak_frequencies(cfg: MfccConfig) -> np.ndarray:
    """Center (peak) frequency in Hz of each mel filter."""
    mel_points = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    return mel_to_hz(mel_points[1:-1])


def mfcc(clip: AudioClip, cfg: MfccConfig, song_id: str = "") -> MfccVector:
    """Frame-averaged MFCC vector of length cfg.n_mfcc.

    Pipeline: power spectrogram -> mel filterbank -> log with floor ->
    orthonormal DCT-II over the mel axis -> first n_mfcc coefficients
    per frame -> arithmetic mean over frames.
    """
    spec = power_spectrogram(clip, cfg)
    mel_energy = spec @ _constants(cfg)[1].T
    log_mel = np.log(np.maximum(mel_energy, LOG_FLOOR))
    cepstra = dct(log_mel, type=2, axis=1, norm="ortho")[:, : cfg.n_mfcc]
    return MfccVector(values=cepstra.mean(axis=0), song_id=song_id)


def wav_mfcc(data: bytes, cfg: MfccConfig, seed: int, index: int = 0) -> np.ndarray:
    """MFCC vector of WAV bytes: decode, resample to the config's rate, cut
    a window seeded by (seed, WINDOW_SEED_STREAM, index), then mfcc. The one
    path for extract, audio queries and the in-memory corpus alike.
    """
    clip = resample(decode_wav(data), cfg.target_sample_rate)
    window_seed = derive_seed(seed, WINDOW_SEED_STREAM, index)
    return mfcc(random_window(clip, cfg.window_seconds, window_seed), cfg).values
