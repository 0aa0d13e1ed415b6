"""MFCC front-end: STFT power spectrogram, mel filterbank, cepstral coefficients.

One song becomes one 30-dimensional vector: Hann-windowed power spectrogram,
triangular mel filterbank, log compression, orthonormal DCT-II, then the
arithmetic mean over frames. wav_mfcc runs the whole chain from WAV bytes.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .audio import MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, AudioClip, SeedStream, decode_wav
from .audio import derive_seed, random_window

LOG_FLOOR = 1e-10
_FRAME_BLOCK = 16  # frames per STFT block, about 0.8 MiB of buffers at n_fft 2048


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
        if not MIN_SAMPLE_RATE <= self.target_sample_rate <= MAX_SAMPLE_RATE:
            raise ValueError(
                f"sample rate must lie in {MIN_SAMPLE_RATE}..{MAX_SAMPLE_RATE} Hz, got {self.target_sample_rate}"
            )
        if self.n_mfcc <= 0 or self.n_mfcc > self.n_mels:
            raise ValueError(f"need 0 < n_mfcc <= n_mels, got {self.n_mfcc} vs {self.n_mels}")
        if self.hop_length <= 0 or self.hop_length > self.n_fft:
            raise ValueError(f"need 0 < hop_length <= n_fft, got {self.hop_length} vs {self.n_fft}")
        if self.fmax > self.target_sample_rate / 2:
            raise ValueError(
                f"sample rate {self.target_sample_rate} Hz is below {2 * self.fmax:g} Hz, "
                f"twice the {self.fmax:g} Hz top mel band edge"
            )
        if not 0 <= self.fmin < self.fmax:
            raise ValueError(f"need 0 <= fmin < fmax, got fmin={self.fmin} fmax={self.fmax}")
        if not 0 < self.window_seconds < np.inf:
            raise ValueError(f"window_seconds must be positive and finite, got {self.window_seconds}")


@dataclass(frozen=True)
class MfccVector:
    """Frame-averaged MFCC feature for one song."""

    values: np.ndarray

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
    return np.concatenate([power.copy() for power in _power_blocks(clip, cfg)])


def _power_blocks(clip: AudioClip, cfg: MfccConfig):
    """power_spectrogram in blocks of up to _FRAME_BLOCK frames, in order,
    each in buffers of this call that the next block overwrites."""
    if len(clip) == 0:
        raise ValueError("cannot compute a spectrogram of an empty clip")
    n_fft, hop = cfg.n_fft, cfg.hop_length
    x, pad = clip.samples, n_fft // 2
    # (offset, samples) of the reflect-padded signal; a clip of <= pad samples reflects repeatedly
    pieces = [(0, x[pad:0:-1]), (pad, x), (pad + x.size, x[-2 : -pad - 2 : -1])]
    pieces = pieces if x.size > pad else [(0, np.pad(x, pad, mode="reflect"))]
    window = _constants(cfg).window
    chunk = np.empty((_FRAME_BLOCK - 1) * hop + n_fft)
    windowed = np.empty((_FRAME_BLOCK, n_fft))
    spectrum = np.empty((_FRAME_BLOCK, n_fft // 2 + 1), dtype=np.complex128)
    power = np.empty((_FRAME_BLOCK, n_fft // 2 + 1))
    for lo in range(0, x.size + 2 * pad - n_fft + 1, _FRAME_BLOCK * hop):
        count = min(_FRAME_BLOCK, 1 + (x.size + 2 * pad - n_fft - lo) // hop)
        hi = lo + (count - 1) * hop + n_fft
        if pad <= lo and hi <= pad + x.size:  # no padding: the frames view the clip
            source = x[lo - pad :]
        else:
            for offset, piece in pieces:  # padded[lo:hi] into chunk
                a, b = max(lo, offset), min(hi, offset + piece.size)
                if a < b:
                    chunk[a - lo : b - lo] = piece[a - offset : b - offset]
            source = chunk
        step = source.strides[0]
        frames = np.lib.stride_tricks.as_strided(source, (count, n_fft), (hop * step, step))
        np.multiply(frames, window, out=windowed[:count])
        np.fft.rfft(windowed[:count], axis=1, out=spectrum[:count])
        np.abs(spectrum[:count], out=power[:count])
        yield np.square(power[:count], out=power[:count])


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


def _periodic_hann(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of n samples.

    Same steps as scipy's general_cosine with coefficients (0.5, 0.5) on
    n + 1 points, last one dropped, so the bits equal
    scipy.signal.get_window("hann", n, fftbins=True) without importing
    scipy.signal (over a second of start-up).
    """
    if n <= 1:
        return np.ones(n)
    fac = np.linspace(-np.pi, np.pi, n + 1)
    window = np.zeros(n + 1)
    window += 0.5 * np.cos(0 * fac)
    window += 0.5 * np.cos(fac)
    return window[:-1]


class _Constants(NamedTuple):
    """Read-only per-config arrays of the MFCC path."""

    window: np.ndarray  # periodic Hann, n_fft samples
    # per filter parity: (the weights of those filters over every bin, the
    # first bin of each one with any weight, and which filters those are)
    layers: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    dct: np.ndarray  # orthonormal DCT-II basis, (n_mfcc, n_mels)


def _dct_basis(n_out: int, n_in: int) -> np.ndarray:
    """First n_out rows of the orthonormal DCT-II matrix of size n_in."""
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)[None, :]
    basis = np.sqrt(2.0 / n_in) * np.cos(np.pi * k * (2 * n + 1) / (2 * n_in))
    basis[0] = np.sqrt(1.0 / n_in)
    return basis


@functools.lru_cache(maxsize=8)
def _build_constants(cfg: MfccConfig) -> _Constants:
    filterbank = mel_filterbank(cfg)
    # filters m and m + 2 meet only at the peak of m + 1, where both are 0,
    # so the filters of one parity share no bin and fit in one weight row
    layers = []
    for parity in (0, 1):
        support = filterbank[parity::2] > 0.0
        nonempty = np.flatnonzero(support.any(axis=1))
        layers.append((
            filterbank[parity::2].sum(axis=0),
            support[nonempty].argmax(axis=1),
            2 * nonempty + parity,
        ))
    constants = _Constants(
        window=_periodic_hann(cfg.n_fft),
        layers=tuple(layers),
        dct=_dct_basis(cfg.n_mfcc, cfg.n_mels),
    )
    for array in [constants.window, constants.dct, *(a for layer in layers for a in layer)]:
        array.flags.writeable = False
    return constants


_constants_lock = threading.Lock()


def _constants(cfg: MfccConfig) -> _Constants:
    """Hann window, mel filters as two weight rows, and DCT basis of a config.

    Built once per config and process. The lock makes threads that miss
    the cache together (extract's pool) wait for one build, not each
    make their own.
    """
    with _constants_lock:
        return _build_constants(cfg)


def mfcc(clip: AudioClip, cfg: MfccConfig) -> MfccVector:
    """Frame-averaged MFCC vector of length cfg.n_mfcc.

    Pipeline: power spectrogram -> mel filterbank -> log with floor ->
    orthonormal DCT-II over the mel axis -> first n_mfcc coefficients
    per frame -> arithmetic mean over frames.

    Each filter is a sum over its own bins and the DCT is a sum of
    elementwise products, so no BLAS call runs and the bits do not depend
    on its thread count. The DCT is linear, so it is applied once, to the
    frame mean of the log-mel rows.
    """
    const = _constants(cfg)
    weighted = np.empty((_FRAME_BLOCK, cfg.n_fft // 2 + 1))
    mel_blocks = []
    for power in _power_blocks(clip, cfg):
        block, mel = weighted[: len(power)], np.zeros((len(power), cfg.n_mels))
        for weights, starts, filters in const.layers:
            # each segment runs from a filter's first bin to the next
            # filter's, so past its support it adds exact zeros
            np.multiply(power, weights, out=block)
            mel[:, filters] = np.add.reduceat(block, starts, axis=1)
        mel_blocks.append(mel)
    mel_energy = np.concatenate(mel_blocks)
    np.maximum(mel_energy, LOG_FLOOR, out=mel_energy)
    log_mel = np.log(mel_energy, out=mel_energy).mean(axis=0)
    # measured from one band's level, a flat log-mel is exactly zero past
    # coefficient 0, which carries that level alone
    level = log_mel[0]
    cepstra = (const.dct * (log_mel - level)).sum(axis=1)
    cepstra[0] += np.sqrt(cfg.n_mels) * level
    return MfccVector(values=cepstra)


def wav_mfcc(data: bytes, cfg: MfccConfig, seed: int, index: int = 0) -> np.ndarray:
    """MFCC vector of WAV bytes: decode, cut a window seeded by (seed,
    SeedStream.WINDOW, index) at the config's rate, resampling only it, then
    mfcc. The one path for extract, audio queries and the in-memory corpus.
    """
    window_seed = derive_seed(seed, SeedStream.WINDOW, index)
    window = random_window(decode_wav(data), cfg.window_seconds, window_seed, cfg.target_sample_rate)
    return mfcc(window, cfg).values
