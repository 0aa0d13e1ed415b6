"""WAV decode/encode, random windowing, resampling."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from genregraph.audio import (
    _QUANTIZE_BLOCK as QUANTIZE_BLOCK,
    MAX_SAMPLE_RATE,
    MIN_SAMPLE_RATE,
    AudioClip,
    ClipTooShortError,
    EmptyWavError,
    MalformedWavError,
    SeedStream,
    UnsupportedWavError,
    WavDecodeError,
    clip_workers,
    decode_wav,
    derive_seed,
    encode_wav,
    random_window,
    resample,
)

from conftest import reference_resample, wav_bytes


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

    def test_sample_rate_below_8_khz_is_unsupported(self):
        # resample's output is samples x 22050 / rate long: a header claiming
        # 8 Hz asks a 6 s clip for 2.72 GiB
        assert decode_wav(wav_bytes(np.zeros(4), sample_rate=8_000)).sample_rate == 8_000
        for rate in (7_999, 8, 1):
            with pytest.raises(UnsupportedWavError, match=f"sample rate {rate} Hz is below"):
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


class TestEncodeWav:
    """encode_wav writes what the wave module writes for the clip's samples
    times 32767, rounded half to even and clipped to int16."""

    @given(
        rate=st.integers(MIN_SAMPLE_RATE, MAX_SAMPLE_RATE),
        n=st.integers(0, 2 * QUANTIZE_BLOCK + 3) | st.sampled_from([0, 1, 7, QUANTIZE_BLOCK, QUANTIZE_BLOCK + 1]),
        seed=st.integers(0, 2**32 - 1),
        # the ends of the range and the halfway points of rounding
        edges=st.lists(st.sampled_from([-1.0, 1.0, 0.0, 0.5 / 32767, -0.5 / 32767, 1.5 / 32767]), max_size=8),
    )
    def test_bytes_equal_the_wave_module(self, rate, n, seed, edges):
        samples = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        samples[: len(edges)] = edges[:n]
        quantized = np.clip(np.round(samples * 32767.0), -32768, 32767)
        assert encode_wav(AudioClip(samples, rate)) == wav_bytes(quantized, rate)

    def test_peak_stays_under_one_clip_row(self):
        # a 6 s clip at 22,050 Hz: the file's buffer, its bytes and one block
        # of scaled samples, not a scaled copy of the clip
        clip = AudioClip(np.random.default_rng(0).uniform(-1.0, 1.0, 6 * 22050), 22050)
        tracemalloc.start()
        try:
            wav = encode_wav(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(wav) == 44 + 2 * len(clip)
        assert peak < clip.samples.nbytes


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

    @pytest.mark.parametrize("rate", [None, 22050])
    def test_window_past_the_largest_float_sample_count_is_too_short(self, rate):
        # 1e305 s at 22,050 Hz is more samples than a float holds
        clip = AudioClip(samples=np.zeros(3000), sample_rate=22050)
        with pytest.raises(ClipTooShortError) as info:
            random_window(clip, 1e305, seed=0, sample_rate=rate)
        assert info.value.required_seconds == 1e305
        # in e-notation, not as a 306-digit number
        assert str(info.value) == "clip is 0.136s, need at least 1.000e+305s"

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

    @pytest.mark.parametrize("n", [1, 2, 5, "6s"])
    @pytest.mark.parametrize(
        "rate", [8000, 8009, 11025, 16000, 32000, 44100, 48000, 96000, 192000, 384000]
    )
    def test_matches_scipy_resample_poly(self, rate, n):
        # the same filter design; numpy's and scipy's Bessel i0 differ in the
        # last bits, so the samples agree to rounding, not bit for bit
        from scipy.signal import resample_poly

        size = 6 * rate if n == "6s" else n
        x = np.random.default_rng(rate).uniform(-1.0, 1.0, size)
        g = np.gcd(rate, 22050)
        expected = np.clip(resample_poly(x, 22050 // g, rate // g), -1.0, 1.0)
        out = resample(AudioClip(samples=x, sample_rate=rate), 22050)
        assert out.sample_rate == 22050
        assert out.samples.shape == expected.shape
        assert np.max(np.abs(out.samples - expected)) <= 1e-12


class TestResampledWindow:
    """random_window at another rate resamples only the window's samples;
    the whole clip resampled and then sliced gives the same bits."""

    @pytest.fixture(scope="class", params=[8009, 22050, 44100, 48000])
    def clip_and_reference(self, request):
        rate = request.param
        clip = AudioClip(np.random.default_rng(rate).uniform(-1.0, 1.0, 3 * rate // 2), rate)
        return clip, reference_resample(clip, 22050)

    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    def test_a_window_matches_the_whole_clip_resample_bit_for_bit(self, clip_and_reference, where):
        clip, expected = clip_and_reference
        size = 22050 // 2
        start = {"start": 0, "middle": (len(expected) - size) // 2, "end": len(expected) - size}[where]
        window = resample(clip, 22050, start, start + size)
        assert window.samples.tobytes() == expected.samples[start : start + size].tobytes()

    def test_the_whole_clip_matches_bit_for_bit(self, clip_and_reference):
        clip, expected = clip_and_reference
        assert resample(clip, 22050).samples.tobytes() == expected.samples.tobytes()

    def test_random_window_draws_from_the_resampled_length(self, clip_and_reference):
        clip, expected = clip_and_reference
        for seed in range(4):
            window = random_window(clip, 0.5, seed, sample_rate=22050)
            assert window.samples.tobytes() == random_window(expected, 0.5, seed).samples.tobytes()

    def test_too_short_error_gives_the_resampled_duration(self, clip_and_reference):
        clip, expected = clip_and_reference
        with pytest.raises(ClipTooShortError) as info:
            random_window(clip, 2.0, 0, sample_rate=22050)
        assert str(info.value) == f"clip is {expected.duration:.3f}s, need at least 2.000s"
        assert info.value.actual_seconds == expected.duration


class TestClipWorkers:
    @pytest.mark.parametrize(
        "cores, clips, expected", [(2, 400, 2), (16, 400, 8), (16, 3, 3), (1, 1, 1)]
    )
    def test_min_of_eight_usable_cores_and_clips(self, monkeypatch, cores, clips, expected):
        # the cores this process may run on, not every core of the machine
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert clip_workers(clips) == expected


class TestSeedStreams:
    def test_each_use_keeps_its_tag(self):
        # the tags are part of every seeded byte the program writes; 2 is unused
        assert {s.name: s.value for s in SeedStream} == {
            "EPOCH": 0, "FINAL": 1, "QUERY": 3, "CLIP": 4, "WINDOW": 5, "QUERY_AUDIO": 6,
        }

    def test_a_tag_derives_the_seed_its_integer_does(self):
        for stream in SeedStream:
            assert derive_seed(7, stream, 3) == derive_seed(7, int(stream), 3)
