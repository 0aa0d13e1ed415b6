"""MFCC front-end: STFT power spectrogram, mel filterbank, cepstral coefficients.

One song becomes one 30-dimensional vector: Hann-windowed power spectrogram,
triangular mel filterbank, log compression, orthonormal DCT-II, then the
arithmetic mean over frames. wav_mfcc runs the whole chain from WAV bytes.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .audio import MAX_SAMPLE_RATE, MIN_SAMPLE_RATE, AudioClip, SeedStream, decode_wav
from .audio import derive_seed, random_window

LOG_FLOOR = 1e-10
_FRAME_BLOCK = 16  # frames per STFT block, about 0.8 MiB of buffers

# the fixed front end, librosa's defaults; the bottom mel band edge is 0 Hz
N_MFCC = 30
N_FFT = 2048
HOP_LENGTH = 512
N_MELS = 128
FMAX = 11025.0


@dataclass(frozen=True)
class MfccConfig:
    """The front-end settings a feature store records; the rest are the constants above."""

    target_sample_rate: int = 22050
    window_seconds: float = 5.0

    def __post_init__(self):
        if not MIN_SAMPLE_RATE <= self.target_sample_rate <= MAX_SAMPLE_RATE:
            raise ValueError(
                f"sample rate must lie in {MIN_SAMPLE_RATE}..{MAX_SAMPLE_RATE} Hz, got {self.target_sample_rate}"
            )
        if FMAX > self.target_sample_rate / 2:
            raise ValueError(
                f"sample rate {self.target_sample_rate} Hz is below {2 * FMAX:g} Hz, "
                f"twice the {FMAX:g} Hz top mel band edge"
            )
        if not 0 < self.window_seconds < np.inf:
            raise ValueError(f"window_seconds must be positive and finite, got {self.window_seconds}")


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def power_spectrogram(clip: AudioClip) -> np.ndarray:
    """Squared-magnitude STFT, shape (frames, N_FFT // 2 + 1).

    Frames are N_FFT samples at HOP_LENGTH stride over a signal reflect-padded
    by N_FFT // 2 on both ends, each multiplied by a periodic Hann window.
    """
    return np.concatenate([power.copy() for power in _power_blocks(clip)])


def _power_blocks(clip: AudioClip):
    """power_spectrogram in blocks of up to _FRAME_BLOCK frames, in order,
    each in buffers of this call that the next block overwrites."""
    if len(clip) == 0:
        raise ValueError("cannot compute a spectrogram of an empty clip")
    n_fft, hop = N_FFT, HOP_LENGTH
    x, pad = clip.samples, n_fft // 2
    # (offset, samples) of the reflect-padded signal; a clip of <= pad samples reflects repeatedly
    pieces = [(0, x[pad:0:-1]), (pad, x), (pad + x.size, x[-2 : -pad - 2 : -1])]
    pieces = pieces if x.size > pad else [(0, np.pad(x, pad, mode="reflect"))]
    window, _ = _fixed_arrays()
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
    """Triangular mel filters at the config's rate, shape (N_MELS, N_FFT // 2 + 1).

    Peaks are equally spaced on the mel scale between 0 Hz and FMAX;
    each row is nonnegative with contiguous support and unit peak.
    """
    bin_freqs = np.arange(N_FFT // 2 + 1) * cfg.target_sample_rate / N_FFT
    mel_points = np.linspace(0.0, hz_to_mel(FMAX), N_MELS + 2)
    hz_points = mel_to_hz(mel_points)

    left = hz_points[:-2, None]
    center = hz_points[1:-1, None]
    right = hz_points[2:, None]
    rising = bin_freqs - left  # in place: one temporary the size of the result
    rising /= center - left
    falling = right - bin_freqs
    falling /= right - center
    return np.maximum(0.0, np.minimum(rising, falling, out=rising), out=rising)


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


@functools.cache
def _fixed_arrays() -> tuple[np.ndarray, np.ndarray]:
    """The periodic Hann window of N_FFT samples and the first N_MFCC rows of
    the orthonormal DCT-II matrix of size N_MELS, read-only. Built on first
    use, so that a verb that makes no MFCC (synth, train) builds neither."""
    k, n = np.arange(N_MFCC)[:, None], np.arange(N_MELS)[None, :]
    dct = np.sqrt(2.0 / N_MELS) * np.cos(np.pi * k * (2 * n + 1) / (2 * N_MELS))
    dct[0] = np.sqrt(1.0 / N_MELS)
    window = _periodic_hann(N_FFT)
    window.flags.writeable = dct.flags.writeable = False
    return window, dct


@functools.lru_cache(maxsize=8)
def _build_filter_layers(rate: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    filterbank = mel_filterbank(MfccConfig(target_sample_rate=rate))
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
    for array in (a for layer in layers for a in layer):
        array.flags.writeable = False
    return tuple(layers)


_layers_lock = threading.Lock()


def _filter_layers(cfg: MfccConfig) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The mel filters of a config as two read-only layers, one per filter
    parity: the weights of those filters over every bin, the first bin of
    each one with any weight, and which filters those are.

    Built once per sample rate and process: the filters do not depend on
    the window. The lock makes threads that miss the cache together
    (extract's pool) wait for one build, not each make their own.
    """
    with _layers_lock:
        return _build_filter_layers(cfg.target_sample_rate)


def mfcc(clip: AudioClip, cfg: MfccConfig) -> np.ndarray:
    """Frame-averaged MFCC vector of length N_MFCC, as float64.

    Pipeline: power spectrogram -> mel filterbank -> log with floor ->
    orthonormal DCT-II over the mel axis -> first N_MFCC coefficients
    per frame -> arithmetic mean over frames.

    Each filter is a sum over its own bins and the DCT is a sum of
    elementwise products, so no BLAS call runs and the bits do not depend
    on its thread count. The DCT is linear, so it is applied once, to the
    frame mean of the log-mel rows.
    """
    if clip.sample_rate != cfg.target_sample_rate:
        raise ValueError(f"clip is at {clip.sample_rate} Hz, the front end at {cfg.target_sample_rate} Hz")
    layers = _filter_layers(cfg)
    _, dct = _fixed_arrays()
    weighted = np.empty((_FRAME_BLOCK, N_FFT // 2 + 1))
    mel_blocks = []
    for power in _power_blocks(clip):
        block, mel = weighted[: len(power)], np.zeros((len(power), N_MELS))
        for weights, starts, filters in layers:
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
    cepstra = (dct * (log_mel - level)).sum(axis=1)
    cepstra[0] += np.sqrt(N_MELS) * level
    if not np.all(np.isfinite(cepstra)):
        raise ValueError("MFCC values contain non-finite entries")
    return cepstra


def wav_mfcc(data: bytes, cfg: MfccConfig, seed: int, index: int = 0) -> np.ndarray:
    """MFCC vector of WAV bytes: decode, cut a window seeded by (seed,
    SeedStream.WINDOW, index) at the config's rate, resampling only it, then
    mfcc. The one path for extract, audio queries and the in-memory corpus.
    """
    window_seed = derive_seed(seed, SeedStream.WINDOW, index)
    window = random_window(decode_wav(data), cfg.window_seconds, window_seed, cfg.target_sample_rate)
    return mfcc(window, cfg)
