"""WAV decoding, resampling, and random window extraction.

Decoding is a small RIFF parser rather than a wrapper around a library
reader so that malformed headers, unsupported codecs, and empty payloads
surface as distinct exception types.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass
from enum import IntEnum, unique

import numpy as np

# sample rates decode_wav accepts; resample's filter grows with a high rate
# and its output with a low one (samples x target / rate), so a corrupt
# header rate outside them would otherwise allocate gigabytes
MIN_SAMPLE_RATE = 8_000
MAX_SAMPLE_RATE = 384_000


class WavDecodeError(Exception):
    """Base class for WAV decoding failures."""


class MalformedWavError(WavDecodeError):
    """Header or chunk structure is not a valid RIFF/WAVE layout."""


class UnsupportedWavError(WavDecodeError):
    """Valid WAV container but a codec/layout this decoder does not handle."""


class EmptyWavError(WavDecodeError):
    """Valid WAV container with a zero-length data payload."""


class ClipTooShortError(ValueError):
    """Clip is shorter than the requested window."""

    def __init__(self, required_seconds: float, actual_seconds: float):
        self.required_seconds = required_seconds
        self.actual_seconds = actual_seconds
        # to the millisecond, or from 1e9 s on in e-notation: at most 15 characters
        shown = [f"{s:.3f}s" if abs(s) < 1e9 else f"{s:.3e}s" for s in (actual_seconds, required_seconds)]
        super().__init__(f"clip is {shown[0]}, need at least {shown[1]}")


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite values")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    def __len__(self) -> int:
        return self.samples.size


def decode_wav(data: bytes) -> AudioClip:
    """Decode PCM WAV bytes to a mono AudioClip.

    Supports 8/16/24-bit integer and 32-bit float PCM, 1 or 2 channels,
    MIN_SAMPLE_RATE to MAX_SAMPLE_RATE Hz. Stereo is averaged to mono;
    integer samples are scaled to [-1, 1].
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    view = memoryview(data)  # each chunk body a view, not a copy
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedWavError("fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise MalformedWavError("data chunk truncated")
            payload = body
        # chunks are word-aligned
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise MalformedWavError("missing fmt chunk")
    if payload is None:
        raise MalformedWavError("missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format not in (1, 3):
        raise UnsupportedWavError(f"unsupported audio format tag {audio_format}")
    if channels not in (1, 2):
        raise UnsupportedWavError(f"unsupported channel count {channels}")
    if sample_rate <= 0:
        raise MalformedWavError(f"invalid sample rate {sample_rate}")
    if sample_rate < MIN_SAMPLE_RATE:
        raise UnsupportedWavError(f"sample rate {sample_rate} Hz is below {MIN_SAMPLE_RATE} Hz")
    if sample_rate > MAX_SAMPLE_RATE:
        raise UnsupportedWavError(f"sample rate {sample_rate} Hz is above {MAX_SAMPLE_RATE} Hz")
    if len(payload) == 0:
        raise EmptyWavError("zero-length data payload")

    if audio_format == 3:
        if bits != 32:
            raise UnsupportedWavError(f"float PCM must be 32-bit, got {bits}")
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    elif bits == 8:
        samples = (np.frombuffer(payload, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    elif bits == 16:
        samples = np.frombuffer(payload, dtype="<i2") / 32768.0
    elif bits == 24:
        raw = np.frombuffer(payload, dtype=np.uint8)
        if raw.size % 3:
            raise MalformedWavError("24-bit payload length not a multiple of 3")
        raw = raw.reshape(-1, 3).astype(np.int64)
        vals = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        vals = (vals ^ 0x800000) - 0x800000  # sign-extend
        samples = vals.astype(np.float64) / float(1 << 23)
    else:
        raise UnsupportedWavError(f"unsupported bit depth {bits}")

    if channels == 2:
        if samples.size % 2:
            raise MalformedWavError("stereo payload has odd sample count")
        samples = samples.reshape(-1, 2).mean(axis=1)

    return AudioClip(samples=samples, sample_rate=sample_rate)


# the wave module's 44-byte header: RIFF, a 16-byte PCM fmt chunk, data's id and size
_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")
_QUANTIZE_BLOCK = 1 << 15  # samples scaled per step, 256 KiB of float64
MAX_WAV_SAMPLES = (2**32 - 37) // 2  # the RIFF size, 36 + 2 bytes per sample, is a u32


def wav_buffer(n_samples: int) -> bytearray:
    """A buffer for write_wav: the 44-byte header and n_samples 16-bit samples."""
    return bytearray(_WAV_HEADER.size + 2 * n_samples)


def write_wav(samples: np.ndarray, sample_rate: int, wav: bytearray, scaled: np.ndarray) -> None:
    """Write samples as 16-bit mono PCM WAV into wav, a wav_buffer of their
    length: each sample times 32767, rounded half to even and clipped to
    int16, scaled in `scaled` a block of its size at a time."""
    n, rate = samples.size, sample_rate
    _WAV_HEADER.pack_into(wav, 0, b"RIFF", 36 + 2 * n, b"WAVE", b"fmt ", 16, 1, 1, rate, 2 * rate, 2, 16, b"data", 2 * n)
    pcm = np.frombuffer(wav, dtype="<i2", offset=_WAV_HEADER.size)
    for lo in range(0, n, scaled.size):
        block = scaled[: n - lo]  # the last block is shorter
        np.multiply(samples[lo : lo + block.size], 32767.0, out=block)
        pcm[lo : lo + block.size] = np.clip(np.round(block, out=block), -32768, 32767, out=block)


def encode_wav(clip: AudioClip) -> bytes:
    """Encode a clip as 16-bit mono PCM WAV bytes (deterministic), by write_wav."""
    wav = wav_buffer(len(clip))
    write_wav(clip.samples, clip.sample_rate, wav, np.empty(_QUANTIZE_BLOCK))
    return bytes(wav)


def resample(clip: AudioClip, target_sample_rate: int, start: int = 0, stop: int | None = None) -> AudioClip:
    """Samples start:stop (default all) of the clip at target_sample_rate, by a polyphase filter.

    The filter and the output alignment are scipy.signal.resample_poly's at
    its defaults; the samples agree with it to rounding.
    """
    if target_sample_rate <= 0:
        raise ValueError(f"target_sample_rate must be positive, got {target_sample_rate}")
    if clip.sample_rate == target_sample_rate:
        return clip if (start, stop) == (0, None) else AudioClip(clip.samples[start:stop], target_sample_rate)
    g = math.gcd(clip.sample_rate, target_sample_rate)
    up, down = target_sample_rate // g, clip.sample_rate // g
    stop = -(-len(clip) * up // down) if stop is None else stop
    samples = _upfirdn(clip.samples, _lowpass(up, down), up, down, start, stop)
    np.clip(samples, -1.0, 1.0, out=samples)
    return AudioClip(samples=samples, sample_rate=target_sample_rate)


_KAISER_BETA = 5.0
_DESIGN_BLOCK = 1 << 16  # taps per step of _lowpass, about 0.5 MiB per temporary


def _lowpass(up: int, down: int) -> np.ndarray:
    """Anti-aliasing filter of a rate change by up/down: a windowed sinc of
    cutoff 1/max(up, down) and half-length 10 * max(up, down) under a Kaiser
    window of beta 5, scaled to sum to 1 and then by up (scipy's firwin).

    Designed in blocks: near the 384 kHz bound the filter has millions of
    taps, and a whole-filter Bessel evaluation would hold several copies.
    """
    max_rate = max(up, down)
    cutoff = 1.0 / max_rate
    n_taps = 20 * max_rate + 1
    alpha = 0.5 * (n_taps - 1)
    taps = np.empty(n_taps)
    for lo in range(0, n_taps, _DESIGN_BLOCK):
        m = np.arange(lo, min(lo + _DESIGN_BLOCK, n_taps)) - alpha
        window = np.i0(_KAISER_BETA * np.sqrt(1 - (m / alpha) ** 2.0)) / np.i0(_KAISER_BETA)
        taps[lo : lo + m.size] = cutoff * np.sinc(cutoff * m) * window
    taps /= taps.sum()
    taps *= up
    return taps


def _upfirdn(x: np.ndarray, taps: np.ndarray, up: int, down: int, start: int, stop: int) -> np.ndarray:
    """Samples start:stop of x upsampled by up, filtered by the centred taps
    and downsampled by down.

    Output q = a * up + s is sum_m taps[half + s * down - m * up] * x[a * down + m],
    so each phase s is one strided view of x[lo:hi], zero-padded past x's
    ends (row a starts at a * down), against every up-th tap. einsum, not a
    BLAS product: the bits depend neither on the BLAS thread count nor on
    the rows computed.
    """
    half = (taps.size - 1) // 2
    # output q reads x[i] for the i with half + q * down - i * up in [0, 2 * half]
    lo = -((half - start * down) // up)
    hi = ((stop - 1) * down + half) // up + 1
    padded = x[max(lo, 0) : hi]  # a view when lo:hi lies inside x
    if lo < 0 or hi > x.size:
        padded = np.concatenate([np.zeros(-min(lo, 0)), padded, np.zeros(max(hi - x.size, 0))])
    out = np.empty(stop - start)
    step = padded.strides[0]
    for first in range(start, min(start + up, stop)):
        a, s = divmod(first, up)
        # m runs up from m_lo while the tap index half + s * down - m * up is in [0, 2 * half]
        m_lo = -((half - s * down) // up)
        phase_taps = np.ascontiguousarray(taps[half + s * down - m_lo * up :: -up])
        view = np.lib.stride_tricks.as_strided(
            padded[a * down + m_lo - lo :],
            ((stop - first + up - 1) // up, phase_taps.size), (down * step, step),
        )
        np.einsum("qj,j->q", view, phase_taps, out=out[first - start :: up])
    return out


@unique
class SeedStream(IntEnum):
    """derive_seed's stream tag after a run seed, one per use of randomness; 2 is unused."""

    EPOCH = 0  # train: a SAGE epoch's neighbor sample
    FINAL = 1  # train: the final SAGE embedding pass
    QUERY = 3  # evaluate: a held-out query's SAGE sample
    CLIP = 4  # synth: one song's clip
    WINDOW = 5  # extract and audio queries: one song's window offset
    QUERY_AUDIO = 6  # recommend --audio: the query's SAGE sample


def derive_seed(*parts: int) -> int:
    """Stable child seed from a run seed plus a SeedStream tag and indices."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def clip_workers(n_clips: int) -> int:
    """Worker processes of map_clips: min(8, usable cores, n_clips). The
    work is CPU-bound, so a worker past the cores this process may run on
    adds memory and no speed."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(8, cores, n_clips)


def map_clips(fn, items: list) -> list:
    """[fn(item) for item in items] on clip_workers(len(items)) worker processes;
    fn must pickle. They fork while this is the process's one thread: the pool
    forks them before it starts threads, and numpy starts none at one BLAS
    thread. With other threads a fork could copy a held lock, so they spawn,
    each re-importing numpy and genregraph. Lazy imports: most verbs map no clips."""
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    context = multiprocessing.get_context("fork" if fork else "spawn")
    with ProcessPoolExecutor(clip_workers(len(items)), mp_context=context) as pool:
        # 8 clips, some 40 ms of work, per trip: pickling them takes well under 1 ms
        return list(pool.map(fn, items, chunksize=8))


def random_window(clip: AudioClip, seconds: float, seed: int, sample_rate: int | None = None) -> AudioClip:
    """Cut a contiguous window of round(seconds * sample_rate) samples of the
    clip at sample_rate (default its own), resampling only the window.

    The start offset is drawn uniformly from the valid range; the same
    seed always yields the same offset.
    """
    rate = clip.sample_rate if sample_rate is None else sample_rate
    n = -(-len(clip) * rate // clip.sample_rate)  # ceil(len * rate / clip rate)
    window_len = int(round(min(seconds * rate, n + 1)))  # n + 1: longer than the clip, even at inf
    if window_len <= 0:
        raise ValueError(f"window of {seconds}s is empty at {rate} Hz")
    if n < window_len:
        raise ClipTooShortError(required_seconds=seconds, actual_seconds=n / rate)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, n - window_len + 1))
    return resample(clip, rate, start, start + window_len)
