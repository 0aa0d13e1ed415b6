"""
From raw samples to a 30-coefficient timbre vector
==================================================

Synthesizes one clip, round-trips it through the 16-bit WAV codec, and
prints what each stage of the MFCC pipeline produces along the way.
"""

import numpy as np

from genregraph.audio import decode_wav, encode_wav, random_window
from genregraph.mfcc import (
    FMAX,
    HOP_LENGTH,
    N_FFT,
    N_MELS,
    MfccConfig,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    power_spectrogram,
)
from genregraph.synth import DEFAULT_RECIPES, generate_clip

# 1. Synthesize ten seconds of "Rock".
recipe = DEFAULT_RECIPES["Rock"]
rng = np.random.default_rng(7)
clip = generate_clip(recipe, seconds=10.0, sample_rate=22050, rng=rng)
print(f"clip: {clip.duration:.1f}s at {clip.sample_rate} Hz, "
      f"peak {np.abs(clip.samples).max():.3f}")

# 2. Round-trip through the WAV bytes, exactly as files on disk would go.
wav_bytes = encode_wav(clip)
decoded = decode_wav(wav_bytes)
err = np.abs(decoded.samples - clip.samples).max()
print(f"wav: {len(wav_bytes)} bytes, 16-bit round-trip error {err:.2e}")

# 3. Features come from one five-second window, not the whole clip.
window = random_window(decoded, seconds=5.0, seed=0)
spec = power_spectrogram(window)
print(f"spectrogram: {spec.shape[0]} frames x {spec.shape[1]} bins "
      f"(n_fft {N_FFT}, hop {HOP_LENGTH})")

# 4. The mel filterbank compresses 1025 bins down to 128 bands. Each
#    triangle peaks at 1, and the peaks, evenly spaced in mel, crowd
#    together at low frequency.
cfg = MfccConfig()
bank = mel_filterbank(cfg)
mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(FMAX), N_MELS + 2)
peaks = mel_to_hz(mel_points[1:-1])
print(f"filterbank: {bank.shape[0]} bands, peak range "
      f"{peaks[0]:.0f} Hz to {peaks[-1]:.0f} Hz")
print(f"  band 0 width ~{peaks[1] - peaks[0]:.0f} Hz, "
      f"band 126 width ~{peaks[-1] - peaks[-2]:.0f} Hz")

# 5. Log, DCT, and a mean over frames give the final descriptor.
vector = mfcc(window, cfg)
print(f"mfcc: {vector.shape[0]} coefficients")
print("  first five:", np.array2string(vector[:5], precision=3))

# The same window always produces the same vector.
again = mfcc(random_window(decoded, seconds=5.0, seed=0), cfg)
print(f"deterministic: {np.array_equal(vector, again)}")
