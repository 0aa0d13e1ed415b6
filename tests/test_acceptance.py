"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test prints exactly one `[PASS]`/`[FAIL]` line straight to the
terminal (bypassing capture) and then asserts, so a plain pytest run
shows the full checklist.
"""

import json
import time

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from genregraph.cli import main
from genregraph.graph import GenreLabel, build_graph, normalize
from genregraph.mfcc import HOP_LENGTH, N_FFT, MfccConfig, mfcc, power_spectrogram
from genregraph.audio import AudioClip
from genregraph.nn import (
    Variant,
    build_model,
    embedding_loss_and_grads,
    init_layer,
    mlp_loss_and_grads,
    sampled_neighbor_means,
    softmax_cross_entropy,
)
from genregraph.recommend import recommend, run_experiment
from genregraph.synth import SyntheticSpec, synthesize_features
from genregraph.train import TrainConfig, train_pipeline

from conftest import train_models


def verdict(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_sets(desk_records):
    """Desk-scale feature sets (8 genres x 50 songs) for seeds 0, 1, 2."""
    sets = {}
    for seed in (0, 1, 2):
        records = (
            desk_records if seed == 0 else synthesize_features(SyntheticSpec(seed=seed))
        )
        ids = [r.song_id for r in records]
        labels = np.array([r.genre_index for r in records], dtype=np.int64)
        features = np.array([r.values for r in records], dtype=np.float64)
        sets[seed] = (ids, labels, features)
    return sets


def test_criterion_01_parameter_counts(capsys):
    started = time.monotonic()
    gcn = build_model(Variant.GCN, seed=0)
    sage = build_model(Variant.SAGE, seed=0)
    plain = build_model(Variant.PLAIN, seed=0)
    counts = (
        gcn.graph_layer.param_count,
        sage.graph_layer.param_count,
        sum(layer.param_count for layer in plain.mlp),
    )
    elapsed = time.monotonic() - started
    ok = counts == (1860, 3660, 8360) and elapsed < 1.0
    verdict(
        capsys, 1, ok,
        f"graph layers {counts[0]}/{counts[1]} params, plain MLP {counts[2]} "
        f"(want 1860/3660/8360, {elapsed:.2f}s)",
    )


def test_criterion_02_gamma_ceiling(desk_cli_workspace, tmp_path, capsys):
    started = time.monotonic()
    rc = main(
        [
            "evaluate",
            "--store", str(desk_cli_workspace["store"]),
            "--weights",
            str(desk_cli_workspace["weights"]["plain"]),
            str(desk_cli_workspace["weights"]["sage"]),
            str(desk_cli_workspace["weights"]["gcn"]),
            "--seed", "0",
            "--out", str(tmp_path),
        ]
    )
    total = desk_cli_workspace["train_seconds"] + (time.monotonic() - started)
    gcn = json.loads((tmp_path / "report.json").read_text())["gcn"]
    per_genre = gcn["gamma_percent"]["per_genre"]
    ok = (
        rc == 0
        and gcn["gamma_percent"]["average"] == 100.0
        and all(v == 100.0 for v in per_genre.values())
        and total < 300.0
    )
    verdict(
        capsys, 2, ok,
        f"desk GCN oracle gamma = {gcn['gamma_percent']['average']:.2f} "
        f"(want exactly 100.00; pipeline {total:.1f}s < 300s)",
    )


def test_criterion_03_gamma_ordering(desk_sets, capsys):
    averages = {}
    ok = True
    for seed, (ids, labels, features) in desk_sets.items():
        models = train_models(ids, labels, features, seed=seed)
        reports = run_experiment(ids, labels, features, models)
        triple = tuple(reports[v].gamma_average for v in ("gcn", "sage", "plain"))
        averages[seed] = triple
        ok = ok and triple[0] >= triple[1] >= triple[2]
    shown = "; ".join(
        f"seed {s}: {g:.2f} >= {sa:.2f} >= {p:.2f}" for s, (g, sa, p) in averages.items()
    )
    verdict(capsys, 3, ok, f"gamma GCN >= SAGE >= PLAIN on {shown}")


def test_criterion_04_training_loss_ordering(desk_sets, capsys):
    pairs = {}
    ok = True
    for seed, (_, labels, features) in desk_sets.items():
        graph = build_graph(labels)
        finals = {}
        for variant in (Variant.PLAIN, Variant.GCN):
            cfg = TrainConfig(seed=seed, variant=variant)
            _, curves = train_pipeline(graph, features, labels, cfg)
            finals[variant] = curves["classifier"].train_losses[-1]
        pairs[seed] = (finals[Variant.GCN], finals[Variant.PLAIN])
        ok = ok and finals[Variant.GCN] < finals[Variant.PLAIN]
    shown = "; ".join(f"seed {s}: {g:.4f} < {p:.4f}" for s, (g, p) in pairs.items())
    verdict(capsys, 4, ok, f"final classifier loss GCN < PLAIN on {shown}")


def finite_difference_check(param_arrays, grads, loss_and_masks, h=1e-5, tol=1e-4):
    """Central differences against analytic grads, skipping ReLU kinks.

    A coordinate whose activation masks differ between the +h and -h
    evaluations sits on a kink, where the loss is not differentiable and
    the comparison is meaningless.
    """
    checked = passed = kinked = 0
    for arr, grad in zip(param_arrays, grads):
        flat, gflat = arr.ravel(), np.asarray(grad).ravel()
        for i in range(flat.size):
            origin = flat[i]
            flat[i] = origin + h
            loss_plus, masks_plus = loss_and_masks()
            flat[i] = origin - h
            loss_minus, masks_minus = loss_and_masks()
            flat[i] = origin
            if any(not np.array_equal(a, b) for a, b in zip(masks_plus, masks_minus)):
                kinked += 1
                continue
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            rel = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-8)
            checked += 1
            passed += rel < tol
    return checked, passed, kinked


def test_criterion_05_gradient_correctness(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(11)
    labels = [GenreLabel.from_index(g) for g in [0] * 6 + [7] * 6]
    graph = build_graph(labels)
    norm_adj = normalize(graph)
    features = rng.normal(size=(12, 30))
    targets = np.array([lbl.index for lbl in labels])
    sample_seed = 17

    totals = {"checked": 0, "passed": 0, "kinked": 0}

    def tally(counts):
        for key, value in zip(("checked", "passed", "kinked"), counts):
            totals[key] += value

    for variant in (Variant.GCN, Variant.SAGE):
        if variant is Variant.GCN:
            block = norm_adj.apply(features)
            layer = init_layer(30, 60, rng)
        else:
            means = sampled_neighbor_means(graph, features, 10, sample_seed)
            block = np.hstack([features, means])
            layer = init_layer(60, 60, rng)
        head = init_layer(60, 8, rng)

        def embed_loss():
            z1 = block @ layer.weight + layer.bias
            logits = np.maximum(z1, 0.0) @ head.weight + head.bias
            return softmax_cross_entropy(logits, targets)[0], (z1 > 0,)

        loss, grads = embedding_loss_and_grads(block, targets, layer, head)
        assert abs(loss - embed_loss()[0]) < 1e-12
        assert loss < 4.0
        tally(finite_difference_check(layer.arrays() + head.arrays(), grads, embed_loss))

    for in_dim in (30, 60):
        mlp = [
            init_layer(in_dim, 128, rng),
            init_layer(128, 32, rng),
            init_layer(32, 8, rng),
        ]
        inputs = rng.normal(size=(12, in_dim))

        def mlp_loss():
            z1 = inputs @ mlp[0].weight + mlp[0].bias
            h1 = np.maximum(z1, 0.0)
            z2 = h1 @ mlp[1].weight + mlp[1].bias
            logits = np.maximum(z2, 0.0) @ mlp[2].weight + mlp[2].bias
            return softmax_cross_entropy(logits, targets)[0], (z1 > 0, z2 > 0)

        loss, grads = mlp_loss_and_grads(inputs, targets, mlp)
        assert abs(loss - mlp_loss()[0]) < 1e-12
        assert loss < 4.0
        params = [a for lay in mlp for a in lay.arrays()]
        tally(finite_difference_check(params, grads, mlp_loss))

    elapsed = time.monotonic() - started
    fraction = totals["passed"] / max(totals["checked"], 1)
    ok = fraction >= 0.99 and elapsed < 60.0
    verdict(
        capsys, 5, ok,
        f"{totals['passed']}/{totals['checked']} grads within 1e-4 "
        f"({fraction:.2%}, {totals['kinked']} kinks excluded, {elapsed:.1f}s)",
    )


def test_criterion_06_dsp_oracles(capsys):
    rng = np.random.default_rng(29)
    sr = 22050
    t = np.arange(sr // 5) / sr
    short = 0.2 * np.sin(2 * np.pi * 440.0 * t) + 0.1 * rng.normal(size=t.size)
    spec = power_spectrogram(AudioClip(samples=short, sample_rate=sr))

    pad = N_FFT // 2
    padded = np.pad(short, pad, mode="reflect")
    window = np.hanning(N_FFT + 1)[:-1]
    bins = np.arange(N_FFT // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(np.arange(N_FFT), bins) / N_FFT)
    worst_frame = 0.0
    for frame_index in range(spec.shape[0]):
        start = frame_index * HOP_LENGTH
        frame = padded[start : start + N_FFT] * window
        naive = np.abs(frame.astype(complex) @ basis) ** 2
        rel = np.linalg.norm(spec[frame_index] - naive) / np.linalg.norm(naive)
        worst_frame = max(worst_frame, rel)

    # Broadband signal keeps every mel band above the log floor, where
    # scaling shifts only the DC cepstral coefficient.
    t5 = np.arange(5 * sr) / sr
    loud = (
        0.3 * np.sin(2 * np.pi * 220.0 * t5)
        + 0.2 * np.sin(2 * np.pi * 1760.0 * t5)
        + 0.1 * rng.normal(size=t5.size)
    )
    base = mfcc(AudioClip(samples=loud, sample_rate=sr), MfccConfig())
    scaled = mfcc(AudioClip(samples=2.5 * loud, sample_rate=sr), MfccConfig())
    worst_coeff = float(np.max(np.abs(scaled[1:] - base[1:])))

    ok = worst_frame < 1e-6 and worst_coeff < 1e-6
    verdict(
        capsys, 6, ok,
        f"naive-DFT frame error {worst_frame:.2e} < 1e-6; "
        f"scaling shift on coeffs 1..29 {worst_coeff:.2e} < 1e-6",
    )


def test_criterion_07_clique_collapse(capsys):
    rng = np.random.default_rng(41)
    results = {}
    ok = True
    for n in (10, 100):
        labels = [GenreLabel.from_index(0)] * n
        norm_adj = normalize(build_graph(labels), add_self_loops=False)
        inputs = rng.normal(size=(n, 30)) * 3.0
        layer = init_layer(30, 60, rng)
        pre_act = norm_adj.apply(inputs) @ layer.weight + layer.bias
        factor = np.linalg.norm(layer.weight, 2) / (n - 1)
        in_dists = pdist(inputs)
        out_dists = pdist(pre_act)
        ok = ok and bool(
            np.all(out_dists <= factor * in_dists * (1 + 1e-9) + 1e-12)
        )
        results[n] = float(np.max(out_dists / np.maximum(factor * in_dists, 1e-300)))
    verdict(
        capsys, 7, ok,
        "pairwise contraction within ||W||_2/(n-1): worst ratio "
        + ", ".join(f"n={n}: {r:.4f}" for n, r in results.items()),
    )


def test_criterion_08_recommender_oracle(capsys):
    rng = np.random.default_rng(53)
    mismatches = 0
    for trial in range(1000):
        size = int(rng.integers(5, 201))
        dim = int(rng.integers(2, 17))
        vectors = rng.normal(size=(size, dim))
        if trial % 4 == 0:
            # duplicate rows force exact distance ties onto the id tie-break
            clones = rng.integers(0, size, size=min(6, size))
            vectors[clones] = vectors[clones[0]]
        ids = [f"t{trial}_s{i:03d}" for i in range(size)]
        catalog = {sid: vectors[i] for i, sid in enumerate(ids)}
        if trial % 3 == 0:
            query_id = ids[int(rng.integers(size))]
            query = catalog[query_id]
        else:
            query_id = ""
            query = rng.normal(size=dim)

        result = recommend(query, catalog, k=10, query_id=query_id)
        rows = []
        for sid, vec in catalog.items():
            if sid == query_id:
                continue
            delta = vec - query
            rows.append((float(np.sqrt((delta**2).sum())), sid))
        rows.sort(key=lambda r: (r[0], r[1]))
        expected = tuple((sid, d) for d, sid in rows[:10])
        mismatches += result.items != expected
    ok = mismatches == 0
    verdict(
        capsys, 8, ok,
        f"{1000 - mismatches}/1000 random catalogs (sizes 5-200) match the "
        "exhaustive sort exactly, ties included",
    )


def test_criterion_09_loss_sanity(small_arrays, capsys):
    _, labels, features = small_arrays
    graph = build_graph(labels)
    ln8 = float(np.log(8.0))
    observed = {}
    for variant in (Variant.PLAIN, Variant.SAGE, Variant.GCN):
        cfg = TrainConfig(seed=0, variant=variant, epochs=1)
        _, curves = train_pipeline(graph, features, labels, cfg)
        for stage, curve in curves.items():
            observed[f"{variant.value}/{stage}"] = float(curve.train_losses[0])
    worst = max(abs(v - ln8) for v in observed.values())
    ok = worst < 1e-6
    verdict(
        capsys, 9, ok,
        f"epoch-0 loss within {worst:.2e} of ln 8 across {len(observed)} "
        "zero-initialized training stages",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    def run(root):
        root.mkdir()
        assert main(["synth", "--out", str(root), "--seed", "7", "--songs-per-genre", "6"]) == 0
        assert main(["extract", "--manifest", str(root / "manifest.csv"), "--seed", "7"]) == 0
        for variant in ("plain", "sage", "gcn"):
            rc = main(
                ["train", "--store", str(root / "features.grmf"),
                 "--variant", variant, "--seed", "7"]
            )
            assert rc == 0
        rc = main(
            [
                "evaluate",
                "--store", str(root / "features.grmf"),
                "--weights",
                str(root / "plain.grmw"), str(root / "sage.grmw"), str(root / "gcn.grmw"),
                "--seed", "7",
            ]
        )
        assert rc == 0
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    first = run(tmp_path / "one")
    second = run(tmp_path / "two")
    same_names = sorted(first) == sorted(second)
    differing = [name for name in first if first[name] != second.get(name)]
    ok = same_names and not differing
    verdict(
        capsys, 10, ok,
        f"two seed-7 pipeline runs byte-identical across {len(first)} files "
        "(audio, features, weights, curves, reports)"
        + ("" if ok else f"; differs: {differing[:5]}"),
    )
