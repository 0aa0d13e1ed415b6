"""WAV decoding, resampling, and random window extraction.

Decoding is a small RIFF parser rather than a wrapper around a library
reader so that malformed headers, unsupported codecs, and empty payloads
surface as distinct exception types.
"""

from __future__ import annotations

import io
import math
import struct
import wave
from dataclasses import dataclass

import numpy as np
from scipy.signal import resample_poly

# highest sample rate decode_wav accepts; resample's filter grows with the
# rate, so a corrupt header rate would otherwise allocate gigabytes
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
        super().__init__(
            f"clip is {actual_seconds:.3f}s, need at least {required_seconds:.3f}s"
        )


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
    up to MAX_SAMPLE_RATE Hz. Stereo is averaged to mono; integer samples
    are scaled to [-1, 1].
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
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
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32768.0
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


def encode_wav(clip: AudioClip) -> bytes:
    """Encode a clip as 16-bit mono PCM WAV bytes (deterministic)."""
    quantized = np.clip(np.round(clip.samples * 32767.0), -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(clip.sample_rate)
        wav.writeframes(quantized.tobytes())
    return buf.getvalue()


def resample(clip: AudioClip, target_sample_rate: int) -> AudioClip:
    """Resample to target_sample_rate with a polyphase filter."""
    if target_sample_rate <= 0:
        raise ValueError(f"target_sample_rate must be positive, got {target_sample_rate}")
    if clip.sample_rate == target_sample_rate:
        return clip
    g = math.gcd(clip.sample_rate, target_sample_rate)
    up, down = target_sample_rate // g, clip.sample_rate // g
    samples = resample_poly(clip.samples, up, down)
    return AudioClip(samples=np.clip(samples, -1.0, 1.0), sample_rate=target_sample_rate)


def derive_seed(*parts: int) -> int:
    """Stable child seed from a run seed plus stream/epoch indices."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# seed stream tag for per-song window offsets (mfcc.wav_mfcc)
WINDOW_SEED_STREAM = 5


def random_window(clip: AudioClip, seconds: float, seed: int) -> AudioClip:
    """Cut a contiguous window of round(seconds * sample_rate) samples.

    The start offset is drawn uniformly from the valid range; the same
    seed always yields the same offset.
    """
    window_len = int(round(seconds * clip.sample_rate))
    if window_len <= 0:
        raise ValueError(f"window of {seconds}s is empty at {clip.sample_rate} Hz")
    if len(clip) < window_len:
        raise ClipTooShortError(required_seconds=seconds, actual_seconds=clip.duration)
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(clip) - window_len + 1))
    return AudioClip(
        samples=clip.samples[start : start + window_len],
        sample_rate=clip.sample_rate,
    )
