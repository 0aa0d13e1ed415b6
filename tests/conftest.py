import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from genregraph.cli import main
from genregraph.synth import SyntheticSpec, synthesize_features

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run
# and no per-example deadline, which a loaded runner would trip.
settings.register_profile("ci", derandomize=True, deadline=None)

SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.fixture
def fresh_python(tmp_path):
    """Run a Python snippet in a new interpreter, as each CLI verb runs;
    genregraph imports from this checkout's src/."""

    def run(code: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
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
