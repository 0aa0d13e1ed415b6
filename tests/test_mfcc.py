"""MFCC front-end against independent DSP oracles.

The spectrogram oracle reframes the signal with a Python loop and a
naive O(n^2) DFT (explicit exponential matrix), sharing no code with
the implementation under test. The MFCC oracle is the dense form: the
full filterbank matrix product and scipy's DCT of every frame.
"""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import genregraph.mfcc as mfcc_module
from genregraph.audio import AudioClip
from genregraph.mfcc import (
    FMAX,
    HOP_LENGTH,
    LOG_FLOOR,
    N_FFT,
    N_MELS,
    N_MFCC,
    MfccConfig,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    power_spectrogram,
)

from conftest import reference_mfcc, reference_power_spectrogram

CFG = MfccConfig()
BLOCK = mfcc_module._FRAME_BLOCK
# the default rate, CD audio's rate, and one at which 4 of the 128 mel
# filters are narrower than a bin and so empty
FRONT_ENDS = [CFG, MfccConfig(target_sample_rate=44100), MfccConfig(target_sample_rate=96000)]
FRONT_END_IDS = ["default", "44.1kHz", "filters-with-no-bin"]


def filter_peak_frequencies():
    """Center (peak) frequency in Hz of each mel filter."""
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(FMAX), N_MELS + 2)
    return mel_to_hz(mel_points[1:-1])


def naive_power_spectrogram(samples, n_fft, hop):
    """Reference STFT: loop framing, closed-form Hann, explicit DFT matrix."""
    padded = np.pad(samples, n_fft // 2, mode="reflect")
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
    n_bins = n_fft // 2 + 1
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n_bins), np.arange(n_fft)) / n_fft)
    frames = []
    start = 0
    while start + n_fft <= padded.size:
        frame = padded[start : start + n_fft] * window
        frames.append(np.abs(dft @ frame) ** 2)
        start += hop
    return np.array(frames)


def dense_mfcc(clip, cfg):
    """Reference MFCC: spec @ filterbank.T, log, scipy's DCT per frame, frame mean."""
    from scipy.fft import dct

    spec = power_spectrogram(clip)
    log_mel = np.log(np.maximum(spec @ mel_filterbank(cfg).T, LOG_FLOOR))
    return dct(log_mel, type=2, axis=1, norm="ortho")[:, :N_MFCC].mean(axis=0)


def _tone(seconds, freq, amplitude, silent_seconds=0.0, sr=22050):
    t = np.arange(int(seconds * sr)) / sr
    tone = amplitude * np.sin(2 * np.pi * freq * t)
    return AudioClip(samples=np.concatenate([np.zeros(int(silent_seconds * sr)), tone]), sample_rate=sr)


# one WAV at the given rate through wav_mfcc in a new interpreter; the BLAS
# thread count is fixed before numpy loads, as the environment variable would be
WAV_MFCC_SCRIPT = """
import os
os.environ["OPENBLAS_NUM_THREADS"] = "{threads}"
import sys
import numpy as np
from genregraph.audio import encode_wav
from genregraph.mfcc import MfccConfig, wav_mfcc
from genregraph.synth import DEFAULT_RECIPES, generate_clip

clip = generate_clip(DEFAULT_RECIPES["Rock"], 6.0, {rate}, np.random.default_rng(0))
print(wav_mfcc(encode_wav(clip), MfccConfig(), 0).tobytes().hex())
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


class TestMfccConfig:
    def test_defaults(self):
        assert (N_MFCC, N_FFT, HOP_LENGTH, N_MELS, FMAX) == (30, 2048, 512, 128, 11025.0)
        assert (CFG.target_sample_rate, CFG.window_seconds) == (22050, 5.0)

    def test_rejects_a_rate_below_twice_the_top_band_edge(self):
        with pytest.raises(ValueError, match="below 22050 Hz, twice the 11025 Hz top mel band edge"):
            MfccConfig(target_sample_rate=22049)

    @pytest.mark.parametrize("seconds", [np.inf, np.nan, 0.0])
    def test_window_seconds_must_be_positive_and_finite(self, seconds):
        # a window is round(seconds * rate) samples
        with pytest.raises(ValueError, match="window_seconds"):
            MfccConfig(window_seconds=seconds)

    @pytest.mark.parametrize("rate", [384_001, 400_000])
    def test_target_rate_above_what_decode_wav_reads_is_rejected(self, rate):
        # the resampler's low-pass grows with the rate: about 4e8 taps at 1e9 Hz
        with pytest.raises(ValueError, match="8000..384000 Hz"):
            MfccConfig(target_sample_rate=rate)


class TestMelScale:
    def test_mel_700(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))

    def test_round_trip(self):
        freqs = np.array([0.0, 440.0, 1000.0, 11025.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)


class TestPowerSpectrogram:
    def test_all_zero_clip(self):
        spec = power_spectrogram(AudioClip(samples=np.zeros(4096), sample_rate=22050))
        assert spec.shape == (1 + 4096 // 512, 1025)
        assert np.all(spec == 0.0)

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(42)
        samples = rng.uniform(-1, 1, 3000)
        ours = power_spectrogram(AudioClip(samples=samples, sample_rate=22050))
        ref = naive_power_spectrogram(samples, N_FFT, HOP_LENGTH)
        assert ours.shape == ref.shape
        scale = np.maximum(np.abs(ref), 1e-12)
        assert np.max(np.abs(ours - ref) / scale) < 1e-6

    def test_bin_centered_sine_argmax(self):
        k = 100
        freq = k * 22050 / N_FFT
        t = np.arange(22050) / 22050
        clip = AudioClip(samples=0.7 * np.sin(2 * np.pi * freq * t), sample_rate=22050)
        argmax = power_spectrogram(clip).argmax(axis=1)
        # reflect padding kinks the waveform at the signal edges, nudging
        # the first/last frame's peak one bin; interior frames are exact
        assert np.all(argmax[2:-2] == k)
        assert np.all(np.abs(argmax - k) <= 1)

    def test_constant_ones_energy_concentration(self):
        # Hann windowing puts exactly 1/4 of the bin-0 power into bin 1;
        # everything past bin 1 is numerically zero
        clip = AudioClip(samples=np.ones(8192), sample_rate=22050)
        frame = power_spectrogram(clip)[4]
        assert frame[0] / frame[1] == pytest.approx(4.0, rel=1e-9)
        assert frame[0] >= 1e6 * frame[2:].max()

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            power_spectrogram(AudioClip(samples=np.zeros(0), sample_rate=22050))


class TestMelFilterbank:
    def test_shape_and_nonnegative(self):
        fb = mel_filterbank(CFG)
        assert fb.shape == (128, 1025)
        assert np.all(fb >= 0.0)

    def test_every_filter_nonempty(self):
        assert np.all(mel_filterbank(CFG).max(axis=1) > 0.0)

    def test_rows_unimodal(self):
        fb = mel_filterbank(CFG)
        for row in fb:
            peak = row.argmax()
            assert np.all(np.diff(row[: peak + 1]) >= 0)
            assert np.all(np.diff(row[peak:]) <= 0)

    def test_peak_frequencies_match_independent_recompute(self):
        # oracle: equal spacing on the mel axis, inverted to Hz by hand
        hi = 2595.0 * np.log10(1.0 + FMAX / 700.0)
        mels = hi * np.arange(1, N_MELS + 1) / (N_MELS + 1)
        expected = 700.0 * (10.0 ** (mels / 2595.0) - 1.0)
        np.testing.assert_allclose(filter_peak_frequencies(), expected, rtol=1e-12)
        assert np.all(np.diff(expected) > 0)

    @pytest.mark.parametrize("rate", [22050, 44100, 384000])
    def test_bits_equal_the_triangle_formula(self, rate):
        hz = mel_to_hz(np.linspace(0.0, hz_to_mel(FMAX), N_MELS + 2))[:, None]
        bins = np.arange(N_FFT // 2 + 1) * rate / N_FFT
        rising, falling = (bins - hz[:-2]) / (hz[1:-1] - hz[:-2]), (hz[2:] - bins) / (hz[2:] - hz[1:-1])
        expected = np.maximum(0.0, np.minimum(rising, falling))
        assert np.array_equal(mel_filterbank(MfccConfig(target_sample_rate=rate)), expected)

    @pytest.mark.parametrize("rate", [22050, 44100, 384000])
    def test_peak_is_near_the_result(self, rate):
        # built in place: the result and one temporary of its size
        cfg = MfccConfig(target_sample_rate=rate)
        tracemalloc.start()
        try:
            fb = mel_filterbank(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * fb.nbytes

    def test_row_argmax_tracks_peak_frequency(self):
        fb = mel_filterbank(CFG)
        bin_freqs = np.arange(1025) * 22050 / 2048
        peaks = filter_peak_frequencies()
        bin_spacing = 22050 / 2048
        for row, peak_hz in zip(fb, peaks):
            assert abs(bin_freqs[row.argmax()] - peak_hz) <= bin_spacing


class TestMfcc:
    def test_output_length_30(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(samples=rng.uniform(-1, 1, 11025), sample_rate=22050)
        vec = mfcc(clip, CFG)
        assert vec.shape == (30,) and vec.dtype == np.float64

    def test_all_zero_clip_closed_form(self):
        vec = mfcc(AudioClip(samples=np.zeros(4096), sample_rate=22050), CFG)
        assert vec[0] == pytest.approx(np.sqrt(128) * np.log(LOG_FLOOR), rel=1e-12)
        np.testing.assert_array_equal(vec[1:], 0.0)

    def test_sine_vs_noise_distinct_and_stable(self):
        t = np.arange(22050) / 22050
        sine = AudioClip(samples=0.8 * np.sin(2 * np.pi * 440 * t), sample_rate=22050)
        rng = np.random.default_rng(7)
        noise = AudioClip(samples=rng.uniform(-0.8, 0.8, 22050), sample_rate=22050)
        d1 = np.linalg.norm(mfcc(sine, CFG) - mfcc(noise, CFG))
        d2 = np.linalg.norm(mfcc(sine, CFG) - mfcc(noise, CFG))
        assert d1 > 0
        assert abs(d1 - d2) < 1e-9

    def test_amplitude_scaling_moves_only_coefficient_0(self):
        # white noise keeps every mel band far above the log floor, where
        # gain is exactly an additive constant in log-mel space
        rng = np.random.default_rng(11)
        base = rng.uniform(-0.4, 0.4, 22050)
        ref = mfcc(AudioClip(samples=base, sample_rate=22050), CFG)
        for c in (0.25, 2.0):
            scaled = mfcc(AudioClip(samples=c * base, sample_rate=22050), CFG)
            assert np.max(np.abs(scaled[1:] - ref[1:])) < 1e-6
            assert abs(scaled[0] - ref[0]) > 1.0

    def test_scaling_invariance_requires_energies_above_floor(self):
        # invariance is exact only while every mel band stays above the
        # log floor at both gains: a dithered sine qualifies, a bare sine
        # has sidelobe bands that cross the floor and breaks it
        t = np.arange(22050) / 22050
        sine = 0.9 * np.sin(2 * np.pi * 440 * t)
        rng = np.random.default_rng(3)
        dithered = sine + 1e-3 * rng.standard_normal(t.size)
        ref = mfcc(AudioClip(samples=dithered, sample_rate=22050), CFG)
        scaled = mfcc(AudioClip(samples=0.37 * dithered, sample_rate=22050), CFG)
        assert np.max(np.abs(scaled[1:] - ref[1:])) < 1e-6

        bare_ref = mfcc(AudioClip(samples=sine, sample_rate=22050), CFG)
        bare_scaled = mfcc(AudioClip(samples=0.37 * sine, sample_rate=22050), CFG)
        assert np.max(np.abs(bare_scaled[1:] - bare_ref[1:])) > 1e-6

    def test_non_finite_coefficients_are_refused(self):
        # AudioClip takes any finite samples; at 1e200 the power overflows
        clip = AudioClip(samples=np.full(4096, 1e200), sample_rate=22050)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            mfcc(clip, CFG)

    def test_cached_constants_are_built_once_under_threads(self, monkeypatch):
        # synthesize_features runs mfcc on a thread pool; threads that miss the cache
        # together must share one filterbank build, so call counts repeat
        built = []
        original = mfcc_module.mel_filterbank

        def counting(cfg):
            built.append(threading.get_ident())
            return original(cfg)

        monkeypatch.setattr(mfcc_module, "mel_filterbank", counting)
        cfg = MfccConfig(window_seconds=0.5)
        clip = AudioClip(samples=np.random.default_rng(0).normal(size=22050), sample_rate=22050)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                mfcc_module._build_filter_layers.cache_clear()
                built.clear()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    vectors = list(pool.map(lambda _: mfcc(clip, cfg), range(16)))
                assert len(built) == 1
                assert all(np.array_equal(v, vectors[0]) for v in vectors)
        finally:
            sys.setswitchinterval(interval)
            mfcc_module._build_filter_layers.cache_clear()

    def test_filter_layers_are_built_once_per_rate(self, monkeypatch):
        # the filters do not depend on the window, so windows at one rate share one build
        rates, original = [], mfcc_module.mel_filterbank
        monkeypatch.setattr(mfcc_module, "mel_filterbank", lambda cfg: rates.append(cfg.target_sample_rate) or original(cfg))
        mfcc_module._build_filter_layers.cache_clear()
        try:
            for cfg in (MfccConfig(window_seconds=0.5), MfccConfig(), MfccConfig(target_sample_rate=44100)):
                mfcc_module._filter_layers(cfg)
        finally:
            mfcc_module._build_filter_layers.cache_clear()
        assert rates == [22050, 44100]

    def test_cached_filterbank_is_read_only_and_public_one_is_fresh(self):
        layers = mfcc_module._filter_layers(CFG)
        arrays = [*mfcc_module._fixed_arrays(), *(a for layer in layers for a in layer)]
        assert not any(array.flags.writeable for array in arrays)
        fresh = mel_filterbank(CFG)
        assert fresh.flags.writeable and fresh is not mel_filterbank(CFG)

    @pytest.mark.parametrize("rate", [22050, 44100, 96000, 384000])
    def test_filters_of_one_parity_share_no_bin(self, rate):
        # mfcc sums each parity's filters from one weight row, so that row
        # must hold every weight of each of its filters, and no bin twice
        cfg = MfccConfig(target_sample_rate=rate)
        fb = mel_filterbank(cfg)
        layers = mfcc_module._filter_layers(cfg)
        for parity, (weights, starts, filters) in enumerate(layers):
            assert np.all((fb[parity::2] > 0).sum(axis=0) <= 1)
            nonempty = [m for m in range(parity, N_MELS, 2) if fb[m].any()]
            assert np.array_equal(filters, nonempty)
            for m, start in zip(filters, starts):
                support = np.flatnonzero(fb[m])
                assert start == support[0]
                assert np.array_equal(weights[support], fb[m, support])


class TestDenseOracle:
    """mfcc sums each filter over its own bins and applies one DCT to the
    frame-mean log-mel row; the dense form agrees to rounding."""

    @pytest.mark.parametrize("cfg", FRONT_ENDS, ids=FRONT_END_IDS)
    @pytest.mark.parametrize(
        "make_clip",
        # one second of each, at the front end's rate
        [
            lambda sr: AudioClip(np.random.default_rng(5).uniform(-0.5, 0.5, sr), sr),
            lambda sr: _tone(1.0, 440.0, 1e-4, sr=sr),  # sidelobes sink to the floor far from 440 Hz
            # silent frames: every band on the floor
            lambda sr: _tone(0.5, 2000.0, 0.9, silent_seconds=0.5, sr=sr),
        ],
        ids=["noise", "quiet-sine", "half-silent"],
    )
    def test_agrees_with_the_dense_form(self, cfg, make_clip):
        clip = make_clip(cfg.target_sample_rate)
        np.testing.assert_allclose(mfcc(clip, cfg), dense_mfcc(clip, cfg), rtol=0, atol=1e-12)

    def test_a_clip_at_another_rate_is_refused(self):
        # the mel filters sit at the front end's rate, so a clip at any other
        # rate would give a vector of the wrong bands
        clip = _tone(1.0, 440.0, 0.5)
        with pytest.raises(ValueError, match="^clip is at 22050 Hz, the front end at 96000 Hz$"):
            mfcc(clip, MfccConfig(target_sample_rate=96000))

    def test_cases_reach_the_floor_and_empty_filters(self):
        energy = power_spectrogram(_tone(1.0, 440.0, 1e-4)) @ mel_filterbank(CFG).T
        assert np.any(energy < LOG_FLOOR) and np.any(energy > LOG_FLOOR)
        # at 96 kHz the lowest filters are narrower than a bin; 44.1 and 48 kHz have none empty
        for rate, empty in [(44100, 0), (48000, 0), (96000, 4)]:
            filters = mel_filterbank(MfccConfig(target_sample_rate=rate))
            assert (filters.max(axis=1) == 0.0).sum() == empty, rate

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, fresh_python):
        # 44.1 kHz goes through resample, 22.05 kHz does not
        for rate in (22050, 44100):
            runs = [fresh_python(WAV_MFCC_SCRIPT.format(threads=t, rate=rate)) for t in (1, 2)]
            for done in runs:
                assert done.returncode == 0, done.stderr
            assert runs[0].stdout.split()[0] == runs[1].stdout.split()[0], rate

    def test_wav_mfcc_at_the_target_rate_loads_no_scipy(self, fresh_python):
        done = fresh_python(WAV_MFCC_SCRIPT.format(threads=1, rate=22050))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[1] == "[]"

    def test_wav_mfcc_that_resamples_loads_no_scipy(self, fresh_python):
        done = fresh_python(WAV_MFCC_SCRIPT.format(threads=1, rate=44100))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[1] == "[]"


class TestBlockedStft:
    """mfcc and power_spectrogram run the clip through one block of frames
    at a time; the whole-clip reference gives the same bits."""

    @pytest.mark.parametrize("cfg", FRONT_ENDS, ids=FRONT_END_IDS)
    def test_matches_the_whole_clip_reference_bit_for_bit(self, cfg):
        hop, pad = HOP_LENGTH, N_FFT // 2
        # 1 + length // hop frames: 1, B - 1, B, B + 1 and 2B + 1 of them;
        # then a clip of pad samples, which reflects more than once, and the
        # shortest that reflects once at each end
        frames = [(1, 1), (1, hop // 2), (BLOCK - 1, 7), (BLOCK, 0), (BLOCK + 1, 5), (2 * BLOCK + 1, hop // 2)]
        for length in [(f - 1) * hop + extra for f, extra in frames] + [pad, pad + 1]:
            samples = np.random.default_rng(length).uniform(-1.0, 1.0, length)
            clip = AudioClip(samples=samples, sample_rate=cfg.target_sample_rate)
            spec = power_spectrogram(clip)
            assert len(spec) == 1 + length // hop
            assert spec.tobytes() == reference_power_spectrogram(clip).tobytes(), length
            assert mfcc(clip, cfg).tobytes() == reference_mfcc(clip, cfg).tobytes(), length

    @pytest.mark.parametrize("cfg", FRONT_ENDS, ids=FRONT_END_IDS)
    @pytest.mark.parametrize("block", [0, 1])
    @pytest.mark.parametrize("past_edge", [-1, 0, 1])
    def test_blocks_at_the_reflect_pad_edge_match_the_reference(self, cfg, block, past_edge):
        # a block of frames inside the clip views its samples, one that
        # reaches the reflect padding is copied; here the full block `block`
        # ends at the clip's last sample, or one sample before or after it
        hop, pad = HOP_LENGTH, N_FFT // 2
        length = block * BLOCK * hop + (BLOCK - 1) * hop + pad + past_edge
        assert (block * BLOCK + BLOCK - 1) * hop + N_FFT == pad + length - past_edge
        samples = np.random.default_rng(length).uniform(-1.0, 1.0, length)
        clip = AudioClip(samples=samples, sample_rate=cfg.target_sample_rate)
        assert power_spectrogram(clip).tobytes() == reference_power_spectrogram(clip).tobytes()
        assert mfcc(clip, cfg).tobytes() == reference_mfcc(clip, cfg).tobytes()

    @pytest.mark.parametrize("step", [2, -1, -3])
    def test_clip_of_strided_samples_matches_the_reference(self, step):
        samples = np.random.default_rng(abs(step)).uniform(-1.0, 1.0, 3 * 22050)[::step]
        clip = AudioClip(samples=samples, sample_rate=22050)
        assert clip.samples is samples and not samples.flags.c_contiguous
        assert power_spectrogram(clip).tobytes() == reference_power_spectrogram(clip).tobytes()
        assert mfcc(clip, CFG).tobytes() == reference_mfcc(clip, CFG).tobytes()

    def test_five_second_window_matches_the_reference_bit_for_bit(self):
        t = np.arange(5 * 22050) / 22050
        noise = np.random.default_rng(2).standard_normal(t.size)
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 330 * t) + 0.05 * noise, 22050)
        assert mfcc(clip, CFG).tobytes() == reference_mfcc(clip, CFG).tobytes()

    def test_peak_memory_is_under_a_quarter_of_the_complex_spectrogram(self):
        clip = AudioClip(np.random.default_rng(0).uniform(-1.0, 1.0, 30 * 22050), 22050)
        complex_bytes = (1 + len(clip) // HOP_LENGTH) * (N_FFT // 2 + 1) * 16
        mfcc(clip, CFG)  # the cached constants are built outside the trace
        tracemalloc.start()
        try:
            mfcc(clip, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < complex_bytes / 4


class TestScipyFreeConstants:
    @pytest.mark.parametrize("n", [1, 256, 2047, 2048])
    def test_hann_window_is_scipys_bit_for_bit(self, n):
        from scipy.signal import get_window

        window = mfcc_module._periodic_hann(n)
        assert window.tobytes() == get_window("hann", n, fftbins=True).tobytes()
        assert mfcc_module._fixed_arrays()[0].tobytes() == get_window("hann", N_FFT, fftbins=True).tobytes()

    def test_threads_that_first_resample_together_agree(self, fresh_python):
        # 8 threads make the first clips of a new interpreter together: they
        # build the cached MFCC constants under its lock, and each resample
        # designs its own filter
        script = """
import sys
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from genregraph.audio import AudioClip, encode_wav
from genregraph.mfcc import MfccConfig, wav_mfcc

t = np.arange(6 * 44100) / 44100
noise = np.random.default_rng(0).standard_normal(t.size)
wav = encode_wav(AudioClip(0.5 * np.sin(2 * np.pi * 330 * t) + 0.05 * noise, 44100))
sys.setswitchinterval(1e-6)
with ThreadPoolExecutor(max_workers=8) as pool:
    vectors = list(pool.map(lambda _: wav_mfcc(wav, MfccConfig(), 3), range(8)))
assert all(np.array_equal(v, vectors[0]) for v in vectors)
assert np.array_equal(vectors[0], wav_mfcc(wav, MfccConfig(), 3))
assert not any(m.startswith("scipy") for m in sys.modules)
print("ok")
"""
        done = fresh_python(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"
