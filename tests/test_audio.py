"""WAV decode/encode, random windowing, resampling."""

import io
import struct
import wave

import numpy as np
import pytest
from scipy.stats import chisquare

from genregraph.audio import (
    AudioClip,
    ClipTooShortError,
    EmptyWavError,
    MalformedWavError,
    UnsupportedWavError,
    WavDecodeError,
    decode_wav,
    encode_wav,
    random_window,
    resample,
)


def wav_bytes(samples_int16, sample_rate=22050, channels=1):
    """Independent WAV writer (stdlib wave), oracle for the hand-rolled parser."""
    arr = np.asarray(samples_int16, dtype="<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(arr.tobytes())
    return buf.getvalue()


class TestAudioClip:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.zeros(4), sample_rate=0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.array([0.0, np.nan]), sample_rate=8000)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.zeros((2, 2)), sample_rate=8000)

    def test_duration(self):
        clip = AudioClip(samples=np.zeros(11025), sample_rate=22050)
        assert clip.duration == 0.5
        assert len(clip) == 11025


class TestDecodeWav:
    def test_constant_16bit_scaling(self):
        data = wav_bytes(np.full(100, 16384))
        clip = decode_wav(data)
        assert clip.sample_rate == 22050
        np.testing.assert_allclose(clip.samples, 0.5)

    def test_stereo_opposite_channels_average_to_zero(self):
        c = np.array([1000, -2000, 30000, -12345], dtype="<i2")
        interleaved = np.empty(8, dtype="<i2")
        interleaved[0::2] = c
        interleaved[1::2] = -c
        data = wav_bytes(interleaved, channels=2)
        np.testing.assert_allclose(decode_wav(data).samples, 0.0)

    def test_sine_round_trip(self):
        t = np.arange(22050) / 22050
        sine = 0.8 * np.sin(2 * np.pi * 440 * t)
        clip = decode_wav(encode_wav(AudioClip(samples=sine, sample_rate=22050)))
        assert len(clip) == 22050
        assert abs(np.max(np.abs(clip.samples)) - 0.8) < 1e-3

    def test_8bit_unsigned(self):
        # 8-bit WAV stores unsigned bytes centered on 128
        payload = bytes([128, 255, 0])
        clip = decode_wav(_raw_wav(bits=8, channels=1, payload=payload))
        np.testing.assert_allclose(clip.samples, [0.0, 127 / 128, -1.0])

    def test_24bit_values(self):
        # max positive 0x7FFFFF and min negative 0x800000, little-endian
        payload = bytes([0xFF, 0xFF, 0x7F]) + bytes([0x00, 0x00, 0x80])
        clip = decode_wav(_raw_wav(bits=24, channels=1, payload=payload))
        eps = 1.0 / (1 << 23)
        np.testing.assert_allclose(clip.samples, [1.0 - eps, -1.0])

    def test_float32(self):
        payload = struct.pack("<4f", 0.25, -0.5, 1.0, 0.0)
        clip = decode_wav(_raw_wav(bits=32, channels=1, payload=payload, fmt_tag=3))
        np.testing.assert_allclose(clip.samples, [0.25, -0.5, 1.0, 0.0])

    def test_bad_magic_is_malformed(self):
        with pytest.raises(MalformedWavError):
            decode_wav(b"JUNK" + b"\x00" * 40)

    def test_truncated_header_is_malformed(self):
        data = wav_bytes(np.zeros(10, dtype="<i2"))
        with pytest.raises(MalformedWavError):
            decode_wav(data[:20])

    def test_unsupported_codec(self):
        data = _raw_wav(bits=16, channels=1, payload=b"\x00\x00", fmt_tag=2)
        with pytest.raises(UnsupportedWavError):
            decode_wav(data)

    def test_sample_rate_above_384_khz_is_unsupported(self):
        # resample's filter grows with the rate: a corrupt header rate must
        # stop here, not allocate gigabytes
        assert decode_wav(wav_bytes(np.zeros(4), sample_rate=384_000)).sample_rate == 384_000
        for rate in (384_001, 8_410_658, 67_130_914):
            with pytest.raises(UnsupportedWavError, match=f"sample rate {rate} Hz"):
                decode_wav(wav_bytes(np.zeros(4), sample_rate=rate))

    def test_unsupported_channel_count(self):
        data = _raw_wav(bits=16, channels=3, payload=b"\x00\x00" * 3)
        with pytest.raises(UnsupportedWavError):
            decode_wav(data)

    def test_empty_payload(self):
        data = wav_bytes(np.zeros(0, dtype="<i2"))
        with pytest.raises(EmptyWavError):
            decode_wav(data)

    def test_error_classes_are_distinct_wav_errors(self):
        for exc in (MalformedWavError, UnsupportedWavError, EmptyWavError):
            assert issubclass(exc, WavDecodeError)
        assert not issubclass(MalformedWavError, UnsupportedWavError)
        assert not issubclass(UnsupportedWavError, MalformedWavError)
        assert not issubclass(EmptyWavError, MalformedWavError)


def _raw_wav(bits, channels, payload, fmt_tag=1, sample_rate=22050):
    """Hand-assembled RIFF container for layouts stdlib wave cannot write."""
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, channels, sample_rate, sample_rate * block_align, block_align, bits
    )
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestRandomWindow:
    def test_exact_length_is_identity(self):
        clip = AudioClip(samples=np.arange(5000) / 5000, sample_rate=1000)
        out = random_window(clip, 5.0, seed=123)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_deterministic(self):
        clip = AudioClip(samples=np.arange(30000) / 30000, sample_rate=1000)
        a = random_window(clip, 5.0, seed=9)
        b = random_window(clip, 5.0, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert len(a) == 5000

    def test_too_short_error_carries_durations(self):
        clip = AudioClip(samples=np.zeros(3000), sample_rate=1000)
        with pytest.raises(ClipTooShortError) as info:
            random_window(clip, 5.0, seed=0)
        assert info.value.required_seconds == 5.0
        assert info.value.actual_seconds == 3.0

    def test_offsets_uniform_chi_square(self):
        # 10 s at 1 kHz, 2 s window -> 8001 valid offsets
        clip = AudioClip(samples=np.arange(10000, dtype=np.float64) / 10000, sample_rate=1000)
        starts = np.empty(10000, dtype=np.int64)
        for seed in range(starts.size):
            win = random_window(clip, 2.0, seed=seed)
            starts[seed] = int(round(win.samples[0] * 10000))
        assert starts.min() >= 0 and starts.max() <= 8000
        counts, _ = np.histogram(starts, bins=20, range=(0, 8001))
        assert chisquare(counts).pvalue > 0.01


class TestResample:
    def test_halving_rate_halves_length(self):
        clip = AudioClip(samples=np.sin(np.arange(44100) * 0.01), sample_rate=44100)
        out = resample(clip, 22050)
        assert out.sample_rate == 22050
        assert len(out) == 22050

    def test_same_rate_is_noop(self):
        clip = AudioClip(samples=np.ones(100) * 0.5, sample_rate=22050)
        assert resample(clip, 22050) is clip

    def test_sine_frequency_preserved(self):
        t = np.arange(44100) / 44100
        clip = AudioClip(samples=0.5 * np.sin(2 * np.pi * 1000 * t), sample_rate=44100)
        out = resample(clip, 22050)
        spectrum = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spectrum) * 22050 / len(out)
        assert abs(peak_hz - 1000) < 5
