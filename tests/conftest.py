import io
import math
import os
import struct
import subprocess
import sys
import time
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from genregraph.audio import AudioClip, _lowpass
from genregraph.cli import main
from genregraph.graph import build_graph
from genregraph.mfcc import HOP_LENGTH, LOG_FLOOR, N_FFT, N_MELS, _filter_layers, _fixed_arrays
from genregraph.nn import (
    AdamState,
    TrainConfig,
    Variant,
    adam_step,
    mlp_forward,
    mlp_loss_and_grads,
    softmax_cross_entropy,
)
from genregraph.synth import SyntheticSpec, synthesize_features
from genregraph.train import (
    LossCurve,
    ModelOverflowError,
    TrainingDivergedError,
    split_train_test,
    train_pipeline,
)

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run
# and no per-example deadline, which a loaded runner would trip.
settings.register_profile("ci", derandomize=True, deadline=None)

SRC = Path(__file__).resolve().parents[1] / "src"


def wav_bytes(samples_int16, sample_rate=22050, channels=1):
    """Independent WAV writer (stdlib wave), oracle for the hand-rolled
    parser and for encode_wav's header."""
    arr = np.asarray(samples_int16, dtype="<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(arr.tobytes())
    return buf.getvalue()


def raw_feature_store(path, width, per_genre=2):
    """A version-3 feature store of per_genre songs g<genre>/s<i> in each of
    the 8 genres, rows `width` wide, at the default front end, written byte
    by byte: write_feature_store writes 30-wide rows only."""
    count = 8 * per_genre
    values = np.random.default_rng(width).normal(size=(count, width))
    header = b"GRMF" + struct.pack("<III", 3, count, width) + struct.pack("<Qd", 22050, 5.0)
    genres = bytes(g for g in range(8) for _ in range(per_genre))
    ids = "".join(f"g{g}/s{i}\0" for g in range(8) for i in range(per_genre)).encode()
    path.write_bytes(header + values.astype("<f8").tobytes() + genres + ids)
    return values


def clique_neighbors(graph, node):
    """Sorted indices of the node's same-genre nodes, itself excluded."""
    members = graph.genre_members(graph.label_indices[node])
    return members[members != node]


def draw_neighbors(neighbors, k, rng):
    """Reference SAGE sample: numpy's own choice of k distinct neighbors,
    or every neighbor, in order and with rng untouched, if there are at
    most k. The program's batched sampler must match it bit for bit."""
    if len(neighbors) > k:
        return rng.choice(neighbors, size=k, replace=False)
    return neighbors


def reference_normalized_apply(genres, features, self_loops):
    """Reference GCN block: each genre's members found by their own scan,
    and each clique's rows (S - x_i)/(n-1), or S/n with self-loops, written
    one clique at a time. The program, which forms every row from the
    per-genre sums in one pass, must match it bit for bit."""
    out = np.empty_like(features)
    for genre in np.unique(genres):
        members = np.flatnonzero(genres == genre)
        rows = features[members]
        total = rows.sum(axis=0)
        if self_loops:
            out[members] = total / len(members)
        else:
            out[members] = (total - rows) / (len(members) - 1)
    return out


def reference_split_train_test(label_indices, test_fraction, seed):
    """Reference split: each genre's members found by their own scan, in
    ascending genre order, then shuffled on one seeded rng. The program's
    split, which reads the members from one grouping, must match it bit
    for bit."""
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for genre in np.unique(label_indices):
        members = np.flatnonzero(label_indices == genre)
        shuffled = rng.permutation(members)
        n_test = int(round(len(members) * test_fraction))
        n_test = min(max(n_test, 1), len(members) - 1)
        test_parts.append(np.sort(shuffled[:n_test]))
        train_parts.append(np.sort(shuffled[n_test:]))
    return np.concatenate(train_parts), np.concatenate(test_parts)


def reference_mlp_forward(inputs, mlp):
    """Reference dense-stack forward: each layer's ReLU(hidden @ W + b) as
    three new arrays. The program's in-place forward must match it bit for
    bit."""
    hidden = np.asarray(inputs, dtype=np.float64)
    for layer in mlp[:-1]:
        hidden = np.maximum(hidden @ layer.weight + layer.bias, 0.0)
    return hidden @ mlp[-1].weight + mlp[-1].bias


def reference_mlp_loss_and_grads(inputs, targets, mlp):
    """Reference loss and gradients of a dense stack, keeping every
    pre-activation beside its activation and masking the backward by
    pre-activation > 0 into a new array. The program's step, which keeps
    the activations alone, must match it bit for bit."""
    inputs = np.asarray(inputs, dtype=np.float64)
    pre_acts, activations = [], [inputs]
    for layer in mlp[:-1]:
        pre_acts.append(activations[-1] @ layer.weight + layer.bias)
        activations.append(np.maximum(pre_acts[-1], 0.0))
    logits = activations[-1] @ mlp[-1].weight + mlp[-1].bias
    loss, delta = softmax_cross_entropy(logits, targets)
    grads = []
    for i in range(len(mlp) - 1, -1, -1):
        grads[:0] = [activations[i].T @ delta, delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ mlp[i].weight.T) * (pre_acts[i - 1] > 0)
    return loss, grads


def reference_fit(layers, batches, targets, lr, variant, inputs):
    """Reference training loop: every epoch takes its pre-step loss and
    gradients, steps, then runs a forward of its own for the post-step
    loss. The program, which takes a repeated block's post-step loss from
    the next epoch's pass, must match its losses and parameters bit for bit
    and raise the same error at the same epoch."""
    params = [arr for layer in layers for arr in layer.arrays()]
    state = AdamState.for_params(params, lr=lr)
    train_losses, eval_losses = [], []
    for epoch, block in enumerate(batches):
        loss, grads = mlp_loss_and_grads(block, targets, layers)
        if epoch == 0 and not np.isfinite(loss) and np.isfinite(inputs).all():
            raise ModelOverflowError(variant)
        adam_step(params, grads, state)
        eval_loss, _ = softmax_cross_entropy(mlp_forward(block, layers), targets)
        if not np.isfinite([loss, eval_loss]).all():
            raise TrainingDivergedError(epoch)
        train_losses.append(loss)
        eval_losses.append(eval_loss)
    return LossCurve(train_losses=train_losses, eval_losses=eval_losses)


def reference_nearest(query, vectors, ids, k, exclude=-1):
    """Reference k-NN search: every row's exact distance, then the rows at
    or below the (k + 1)-th stably sorted, as a full stable argsort ranks
    them. The program's candidate search must return the same row indices
    and distance bits, and raise the same ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        distances = np.sqrt(((vectors - query) ** 2).sum(axis=1))
    finite = np.isfinite(distances)
    if not finite.all():
        song_id = ids[int(np.argmin(finite))]
        raise ValueError(f"distance from the query to {song_id!r} is not finite")
    cut = np.partition(distances, k)[k] if k + 1 < distances.size else np.inf
    candidates = np.flatnonzero(distances <= cut)
    order = candidates[np.argsort(distances[candidates], kind="stable")][: k + 1]
    order = order[order != exclude][:k]
    return order, distances[order]


def train_models(ids, labels, features, variants=tuple(Variant), **settings):
    """One model per variant, trained by train_pipeline on the training rows
    of the split its TrainConfig(**settings) names, as the train verb does."""
    cfg = TrainConfig(**settings)
    train_idx, _ = split_train_test(labels, test_fraction=cfg.test_fraction, seed=cfg.seed)
    graph = build_graph(labels[train_idx], node_ids=[ids[i] for i in train_idx])
    return [
        train_pipeline(graph, features[train_idx], labels[train_idx], TrainConfig(variant=v, **settings))[0]
        for v in variants
    ]


def longdouble_generate_clip(recipe, seconds, sample_rate, rng):
    """Oracle synthesis in long double: the same draws in the same order, each
    partial's float64 frequency, amplitude and phase formed as the program
    forms them, then every sample computed in np.longdouble, one full-length
    sine per partial. Returns the samples and x_max, the largest phase
    argument, in radians, of any sine in the clip."""
    n = int(round(seconds * sample_rate))
    two_pi = 8 * np.arctan(np.longdouble(1))
    t = np.arange(n, dtype=np.longdouble) / sample_rate
    signal, x = np.zeros(n, dtype=np.longdouble), np.empty(n, dtype=np.longdouble)
    x_max = 0.0

    def sine(freq, phase):
        nonlocal x_max
        np.add(np.multiply(two_pi * np.longdouble(freq), t, out=x), np.longdouble(phase), out=x)
        x_max = max(x_max, float(x[-1]))
        return np.sin(x, out=x)

    detune = 2.0 ** (rng.uniform(-3.0, 3.0) / 12.0)
    tilt = rng.uniform(-0.9, 0.9)
    for ratio, weight in zip(recipe.ratios, recipe.weights):
        freq = recipe.base_hz * detune * ratio
        if freq >= sample_rate / 2:
            continue
        amp = weight * (np.exp(rng.normal(0.0, 0.5)) * ratio**tilt)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal += np.multiply(sine(freq, phase), np.longdouble(amp), out=x)
    if recipe.tremolo_hz > 0.0 and recipe.tremolo_depth > 0.0:
        trem_phase = rng.uniform(0.0, 2.0 * np.pi)
        signal *= 1 + np.longdouble(recipe.tremolo_depth) * sine(recipe.tremolo_hz, trem_phase)
    noise = recipe.noise_level * np.exp(rng.normal(0.0, 0.8))
    signal += np.longdouble(noise) * rng.standard_normal(n).astype(np.longdouble)
    signal *= np.longdouble(0.9) / np.max(np.abs(signal))
    return signal, x_max


def reference_generate_clip(recipe, seconds, sample_rate, rng):
    """Whole-array synthesis: one float64 np.sin over the clip per partial
    and one for the tremolo, as the program rendered before its block
    render. Held to the same bound against the long-double oracle as the
    program, so that the bound is not fitted to the program."""
    n = int(round(seconds * sample_rate))
    t = np.arange(n) / sample_rate
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


def reference_power_spectrogram(clip):
    """Reference STFT: the whole clip reflect-padded, every frame windowed
    and transformed at once. The program's blocks must match it bit for bit."""
    pad = N_FFT // 2
    padded = np.pad(clip.samples, pad, mode="reflect")
    n_frames = 1 + (padded.size - N_FFT) // HOP_LENGTH
    frames = np.lib.stride_tricks.as_strided(
        padded, shape=(n_frames, N_FFT),
        strides=(HOP_LENGTH * padded.strides[0], padded.strides[0]),
    )
    return np.abs(np.fft.rfft(frames * _fixed_arrays()[0], axis=1)) ** 2


def reference_mfcc(clip, cfg):
    """Reference MFCC on the whole reference spectrogram: each filter parity
    summed over every frame at once, then the program's log, mean and DCT
    steps. mfcc must match it bit for bit."""
    spec = reference_power_spectrogram(clip)
    mel_energy = np.zeros((len(spec), N_MELS))
    for weights, starts, filters in _filter_layers(cfg):
        mel_energy[:, filters] = np.add.reduceat(spec * weights, starts, axis=1)
    log_mel = np.log(np.maximum(mel_energy, LOG_FLOOR)).mean(axis=0)
    level = log_mel[0]
    cepstra = (_fixed_arrays()[1] * (log_mel - level)).sum(axis=1)
    cepstra[0] += np.sqrt(N_MELS) * level
    return cepstra


def reference_resample(clip, target_sample_rate):
    """Reference resampler: every output sample of the whole clip, one
    strided view per phase over the zero-padded clip. A window the program
    resamples alone must match its slice bit for bit."""
    if clip.sample_rate == target_sample_rate:
        return clip
    g = math.gcd(clip.sample_rate, target_sample_rate)
    up, down = target_sample_rate // g, clip.sample_rate // g
    x, taps = clip.samples, _lowpass(up, down)
    half = (taps.size - 1) // 2
    n_out = -(-x.size * up // down)
    front = half // up
    end = ((n_out - 1) // up) * down + ((up - 1) * down + half) // up + 1
    padded = np.zeros(front + max(x.size, end))
    padded[front : front + x.size] = x
    out = np.empty(n_out)
    step = padded.itemsize
    for s in range(min(up, n_out)):
        m_lo = -((half - s * down) // up)
        phase_taps = np.ascontiguousarray(taps[half + s * down - m_lo * up :: -up])
        view = np.ndarray(
            ((n_out - s + up - 1) // up, phase_taps.size), padded.dtype, padded,
            offset=(front + m_lo) * step, strides=(down * step, step),
        )
        np.einsum("qj,j->q", view, phase_taps, out=out[s::up])
    return AudioClip(np.clip(out, -1.0, 1.0), target_sample_rate)


@pytest.fixture
def fresh_python(tmp_path):
    """Run a Python snippet in a new interpreter, as each CLI verb runs;
    genregraph imports from this checkout's src/. A numpy RuntimeWarning is
    an error there, as pytest's filterwarnings makes it in this process."""

    def run(code: str, timeout: float = 300) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=timeout,
        )

    return run


@pytest.fixture(scope="session")
def desk_records():
    """8 genres x 50 songs through the full in-memory pipeline, seed 0."""
    return synthesize_features(SyntheticSpec(seed=0))


@pytest.fixture(scope="session")
def desk_arrays(desk_records):
    ids = [r.song_id for r in desk_records]
    labels = np.array([r.genre_index for r in desk_records], dtype=np.int64)
    features = np.array([r.values for r in desk_records], dtype=np.float64)
    return ids, labels, features


@pytest.fixture(scope="session")
def small_records():
    """8 genres x 8 songs; enough structure for cheap training tests."""
    return synthesize_features(SyntheticSpec(songs_per_genre=8, seed=3))


@pytest.fixture(scope="session")
def small_arrays(small_records):
    ids = [r.song_id for r in small_records]
    labels = np.array([r.genre_index for r in small_records], dtype=np.int64)
    features = np.array([r.values for r in small_records], dtype=np.float64)
    return ids, labels, features


@pytest.fixture(scope="session")
def desk_cli_workspace(tmp_path_factory):
    """Full desk-scale run through the CLI: synth, extract, train x3.

    Built once per session; returns the artifact paths plus the wall-clock
    seconds the pipeline took.
    """
    root = tmp_path_factory.mktemp("desk_cli")
    started = time.monotonic()
    assert main(["synth", "--out", str(root), "--seed", "0"]) == 0
    assert main(["extract", "--manifest", str(root / "manifest.csv"), "--seed", "0"]) == 0
    for variant in ("plain", "sage", "gcn"):
        rc = main(
            ["train", "--store", str(root / "features.grmf"), "--variant", variant, "--seed", "0"]
        )
        assert rc == 0
    elapsed = time.monotonic() - started
    return {
        "root": root,
        "manifest": root / "manifest.csv",
        "store": root / "features.grmf",
        "weights": {v: root / f"{v}.grmw" for v in ("plain", "sage", "gcn")},
        "train_seconds": elapsed,
    }
