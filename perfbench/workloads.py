"""The two workloads: desk and queries.

Each takes the workload seed and builds its inputs from it; the program
sees only the generated files (desk passes the seed to `synth --seed`,
as the README quick start does). Each workload fills `run.report` with
the metrics it measures and, when traced, `run.per_layer`.

Why these two:

- desk: the README quick start at 400 songs, one process per verb. The only
  workload through the audio front-end (synth, audio, mfcc carry most of
  its time), plus seven interpreter start-ups.
- queries: the serving path, one client calling `recommend` in one
  long-lived process. `resample` does real work (44.1 kHz clips), every
  call re-reads the store and re-embeds the catalog, and process start-up
  is skipped.

Both run a fixed amount of work, so a faster program shows as a shorter
`wall_s` and every count repeats from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from genregraph.audio import encode_wav
from genregraph.cli import main as cli_main
from genregraph.graph import GENRE_NAMES, GenreLabel, build_graph
from genregraph.nn import Variant
from genregraph.stores import FeatureRecord, read_feature_store, read_model, write_feature_store
from genregraph.synth import DEFAULT_RECIPES, SyntheticSpec, generate_clip, synthesize_features
from genregraph.train import TrainConfig, compute_embeddings

from harness import BENCH, PYTHON, BenchError, Proc, Run, import_seconds, run_process, warm_start
from tracer import inclusive_cpu, layer_metrics, load_spans

VARIANTS = ("plain", "gcn", "sage")
VERBS = ("synth", "extract", "train", "evaluate", "recommend")

# seed streams for the generated inputs
_STREAM_STORE = 1
_STREAM_WAV = 2
_STREAM_QUERY_IDS = 3

CLUSTER_SPREAD = 0.5  # std of the genre centres; songs add unit-variance noise
QUERY_WAV_RATE = 44100
QUERY_WAV_SECONDS = 6.0


@dataclass(frozen=True)
class Scale:
    """Input sizes; `smoke` is the smallest size, used by the self-test."""

    desk_songs_per_genre: int | None  # None: synth's default (50)
    queries_store_per_genre: int
    queries_wavs_per_genre: int
    query_calls: int  # recommend calls per pass; p90 needs >= 100 so ten lie beyond it


SCALES = {
    "full": Scale(None, 512, 3, 180),
    "smoke": Scale(3, 32, 1, 12),
}

# metrics shown by name with unit; the first four are in every workload
REPORT_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_s": "s",
    "synth_songs_per_s": "songs/s",
    "extract_songs_per_s": "songs/s",
    "train_s": "s",
    "evaluate_queries_per_s": "queries/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "gamma_mfcc": "%",
    "gamma_oracle_sage": "%",
    "gamma_oracle_gcn": "%",
    "gamma_knn_sage": "%",
    "gamma_knn_gcn": "%",
}


def _metric(run: Run, name: str, value: float) -> None:
    run.report[name] = (float(value), REPORT_UNITS[name])


def _quiet(args: list[str]) -> None:
    """Run a verb in this process for set-up, discarding what it prints."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(args)
    if code != 0:
        raise BenchError(f"set-up step genregraph {' '.join(args)} exited {code}")


def gaussian_store(path: Path, seed: int, per_genre: int) -> None:
    """Feature-only store: per_genre songs of each genre around a seeded 30-dim centre."""
    rng = np.random.default_rng([seed, _STREAM_STORE])
    centres = rng.normal(0.0, CLUSTER_SPREAD, size=(len(GENRE_NAMES), 30))
    records = []
    for g, genre in enumerate(GENRE_NAMES):
        values = centres[g] + rng.standard_normal((per_genre, 30))
        records += [
            FeatureRecord(song_id=f"{genre}/{genre}_{i:05d}", genre_index=g, values=values[i])
            for i in range(per_genre)
        ]
    write_feature_store(path, records)


def _read_report(data: bytes, attachment: str) -> dict:
    doc = json.loads(data)
    for variant in VARIANTS:
        entry = doc[variant]["gamma_percent"]
        values = [entry["average"], *entry["per_genre"].values()]
        if doc[variant]["attachment_mode"] != attachment or not all(0 <= v <= 100 for v in values):
            raise ValueError(f"{variant}: attachment or gamma out of range")
    return doc


def _queries_scored(doc: dict) -> int:
    return sum(sum(doc[v]["counts"]["queries_per_genre"].values()) for v in VARIANTS)


def _check_weights(run: Run, paths: dict[str, Path]) -> None:
    for variant, path in paths.items():
        run.ops.check(
            f"{path.name} parses as {variant}", lambda p=path, v=variant: read_model(p).variant.value == v
        )


def _check_identical(run: Run, untraced: dict[str, bytes], traced: dict[str, bytes]) -> None:
    for name, data in untraced.items():
        run.ops.check(f"{name} identical with tracing on", lambda n=name, d=data: traced[n] == d)


def _merge_spans(spans_dir: Path, trace_file: Path) -> list[dict]:
    """Collect the spans of every traced process into the run's trace file."""
    spans = load_spans(sorted(spans_dir.glob("*.jsonl")))
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return spans


def _run_steps(
    run: Run, cwd: Path, steps: list[tuple[str, list[str]]], spans: Path | None, first: int = 0
) -> list[tuple[str, Proc]]:
    """Run (verb, args) steps as processes in order; spans, if given, go one file per step."""
    procs = []
    for i, (verb, args) in enumerate(steps, start=first):
        span_file = None if spans is None else spans / f"{i:02d}-{verb}.jsonl"
        procs.append((verb, run.verb(args, cwd, span_file)))
    return procs


def _batch_metrics(run: Run, setup_s: float, procs: list[tuple[str, Proc]]) -> None:
    """End-to-end metrics of a timed phase of verb processes run back to back."""
    _metric(run, "setup_s", setup_s)
    _metric(run, "wall_s", sum(p.wall for _, p in procs))
    _metric(run, "peak_rss_mb", max(p.rss_mb for _, p in procs))
    _metric(run, "cpu_s", sum(p.cpu for _, p in procs))


def _batch_layers(run: Run, spans: list[dict], procs: list[tuple[str, Proc]], overhead: float) -> None:
    """Per-layer metrics of a traced pass of verb processes."""
    run.per_layer.update(layer_metrics(spans))
    for verb in VERBS:
        run.per_layer[f"cli.{verb}.s"] = float(sum(p.wall for v, p in procs if v == verb))
    extract = [p for v, p in procs if v == "extract"]
    core_util = 0.0
    if extract:
        busy = inclusive_cpu(spans, ("audio.decode_wav", "audio.resample", "mfcc.mfcc"), extract[0].pid)
        core_util = busy / (extract[0].wall * len(os.sched_getaffinity(0)))
    run.per_layer["cli.extract.core_util"] = core_util
    run.per_layer["cli.import_s"] = import_seconds(run.work)
    run.per_layer["trace.overhead_s"] = overhead


# ---------------------------------------------------------------- desk


def _desk_pass(run: Run, cwd: Path, songs_per_genre: int | None, spans: Path | None):
    """synth -> extract -> train x3 -> evaluate (oracle) -> evaluate (feature_knn)."""
    cwd.mkdir()
    synth = ["synth", "--out", "data", "--seed", str(run.seed)]
    if songs_per_genre is not None:
        synth += ["--songs-per-genre", str(songs_per_genre)]
    store = ["--store", "data/features.grmf"]
    weights = ["--weights", "data/plain.grmw", "data/sage.grmw", "data/gcn.grmw"]
    steps = [
        ("synth", synth),
        ("extract", ["extract", "--manifest", "data/manifest.csv"]),
        ("train", ["train", *store, "--variant", "gcn"]),
        ("train", ["train", *store, "--variant", "sage"]),
        ("train", ["train", *store, "--variant", "plain"]),
        ("evaluate", ["evaluate", *store, *weights]),
        ("evaluate", ["evaluate", *store, *weights, "--attachment", "feature_knn"]),
    ]
    # both evaluate steps write data/report.json, so the second runs after the first is kept
    procs = _run_steps(run, cwd, steps[:-1], spans)
    outputs = {"report_oracle.json": (cwd / "data" / "report.json").read_bytes()}
    procs += _run_steps(run, cwd, steps[-1:], spans, first=len(steps) - 1)
    outputs["report_knn.json"] = (cwd / "data" / "report.json").read_bytes()
    outputs["features.grmf"] = (cwd / "data" / "features.grmf").read_bytes()
    for variant in VARIANTS:
        outputs[f"{variant}.grmw"] = (cwd / "data" / f"{variant}.grmw").read_bytes()
    return procs, outputs


def desk(run: Run, scale: Scale) -> None:
    base, setup_s = run.set_up(warm_start)
    procs, outputs = _desk_pass(run, base / "untraced", scale.desk_songs_per_genre, None)
    data = base / "untraced" / "data"
    wall = {verb: sum(p.wall for v, p in procs if v == verb) for verb in VERBS}
    n_songs = len(read_feature_store(data / "features.grmf"))

    def check_store():
        manifest = (data / "manifest.csv").read_text().splitlines()[1:]
        records = read_feature_store(data / "features.grmf")
        rows = [line.split(",") for line in manifest]
        return (
            [r.song_id for r in records] == [row[0] for row in rows]
            and [r.genre_name for r in records] == [row[1] for row in rows]
            and all(np.all(np.isfinite(r.values)) and r.values.shape == (30,) for r in records)
        )

    run.ops.check("features.grmf holds one finite 30-dim record per manifest row", check_store)
    _check_weights(run, {v: data / f"{v}.grmw" for v in VARIANTS})
    reports = {}
    for name, attachment in (("report_oracle.json", "oracle"), ("report_knn.json", "feature_knn")):
        check = lambda n=name, a=attachment: _read_report(outputs[n], a)  # noqa: E731
        if run.ops.check(f"{name} parses, gamma in [0, 100]", check):
            reports[attachment] = json.loads(outputs[name])
    if len(reports) < 2:
        raise BenchError("report.json failed its checks: " + "; ".join(run.ops.errors))
    oracle, knn = reports["oracle"], reports["feature_knn"]

    def gamma(doc, variant):
        return doc[variant]["gamma_percent"]["average"]

    scored = _queries_scored(oracle) + _queries_scored(knn)
    _batch_metrics(run, setup_s, procs)
    _metric(run, "synth_songs_per_s", n_songs / wall["synth"])
    _metric(run, "extract_songs_per_s", n_songs / wall["extract"])
    _metric(run, "train_s", wall["train"])
    _metric(run, "evaluate_queries_per_s", scored / wall["evaluate"])
    _metric(run, "gamma_mfcc", (gamma(oracle, "plain") + gamma(knn, "plain")) / 2)
    _metric(run, "gamma_oracle_sage", gamma(oracle, "sage"))
    _metric(run, "gamma_oracle_gcn", gamma(oracle, "gcn"))
    _metric(run, "gamma_knn_sage", gamma(knn, "sage"))
    _metric(run, "gamma_knn_gcn", gamma(knn, "gcn"))

    if not run.trace:
        return
    spans_dir = run.work / "spans"
    spans_dir.mkdir()
    traced_procs, traced_outputs = _desk_pass(run, base / "traced", scale.desk_songs_per_genre, spans_dir)
    _check_identical(run, outputs, traced_outputs)

    def matches_synthesize_features():
        spec = SyntheticSpec(seed=run.seed, **(
            {} if scale.desk_songs_per_genre is None else {"songs_per_genre": scale.desk_songs_per_genre}
        ))
        expected = run.work / "expected.grmf"
        # synth ran with --seed run.seed, extract with its default --seed 0
        write_feature_store(expected, synthesize_features(spec, extract_seed=0))
        return expected.read_bytes() == outputs["features.grmf"]

    run.ops.check(
        "features.grmf equals write_feature_store(synthesize_features(spec))", matches_synthesize_features
    )
    spans = _merge_spans(spans_dir, run.trace_file)
    overhead = sum(p.wall for _, p in traced_procs) - sum(p.wall for _, p in procs)
    _batch_layers(run, spans, traced_procs, overhead)


# ---------------------------------------------------------------- queries


def _queries_setup(run: Run, scale: Scale):
    def build(path: Path) -> None:
        gaussian_store(path / "features.grmf", run.seed, scale.queries_store_per_genre)
        for variant in VARIANTS:
            _quiet(["train", "--store", str(path / "features.grmf"), "--variant", variant,
                    "--epochs", "5", "--out", str(path)])
        for g, genre in enumerate(GENRE_NAMES):
            for j in range(scale.queries_wavs_per_genre):
                rng = np.random.default_rng([run.seed, _STREAM_WAV, g, j])
                clip = generate_clip(DEFAULT_RECIPES[genre], QUERY_WAV_SECONDS, QUERY_WAV_RATE, rng)
                (path / f"query_{genre}_{j}.wav").write_bytes(encode_wav(clip))

    return run.set_up(build)


def _plan(run: Run, base: Path, ids: list[str], n: int) -> list[list[str]]:
    """n calls alternating --song-id and --audio, each pair on the next variant in turn."""
    wavs = sorted(base.glob("query_*.wav"))
    order = np.random.default_rng([run.seed, _STREAM_QUERY_IDS]).permutation(len(ids))
    calls = []
    for i in range(n):
        p = i // 2
        args = ["recommend", "--store", str(base / "features.grmf"),
                "--weights", str(base / f"{VARIANTS[p % 3]}.grmw")]
        if i % 2 == 0:
            calls.append([*args, "--song-id", ids[int(order[p % len(ids)])]])
        else:
            calls.append([*args, "--audio", str(wavs[(p // 3) % len(wavs)])])
    return calls


def _client(base: Path, name: str, plan: dict) -> tuple[dict, Proc]:
    """Run the queries client on one plan; return its result and its process."""
    plan_path, result_path = base / f"{name}_plan.json", base / f"{name}_result.json"
    plan_path.write_text(json.dumps(plan))
    proc = run_process([PYTHON, str(BENCH / "client.py"), str(plan_path), str(result_path)], base)
    if proc.code != 0:
        raise BenchError(f"queries client exited {proc.code}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text()), proc


def _parse_table(text: str) -> list[tuple[str, str, float]]:
    rows = [line.split() for line in text.splitlines()[1:] if line.strip()]
    return [(song_id, genre, float(dist)) for _, song_id, genre, dist in rows]


def _check_calls(run: Run, base: Path, calls: list[list[str]], result: dict) -> None:
    """Every call: exit 0 and 10 distinct catalog ids in nondecreasing distance.

    Every --song-id call: the ids and distances of an exhaustive ranking, by
    distance then id, of catalog embeddings from compute_embeddings.
    """
    records = read_feature_store(base / "features.grmf")
    ids = np.array([r.song_id for r in records])
    genre_of = {r.song_id: r.genre_name for r in records}
    features = np.array([r.values for r in records])
    graph = build_graph([GenreLabel.from_index(r.genre_index) for r in records], node_ids=list(ids))
    id_rank = np.argsort(np.argsort(ids))
    row_of = {sid: i for i, sid in enumerate(ids)}
    embeddings = {}
    for variant in VARIANTS:
        model = read_model(base / f"{variant}.grmw")
        cfg = TrainConfig(variant=Variant(variant))
        embeddings[str(base / f"{variant}.grmw")] = compute_embeddings(model, graph, features, cfg)

    for i, (args, code) in enumerate(zip(calls, result["codes"])):
        run.ops.record(code == 0, f"genregraph {' '.join(args)}")
        if code != 0:
            continue
        rows = _parse_table(result["outputs"][i])

        def well_formed(rows=rows):
            dists = [d for _, _, d in rows]
            return (
                len(rows) == 10
                and len({s for s, _, _ in rows}) == 10
                and all(s in genre_of and genre_of[s] == g for s, g, _ in rows)
                and all(a <= b for a, b in zip(dists, dists[1:]))
            )

        run.ops.check(f"call {i}: 10 distinct catalog ids, nondecreasing distance", well_formed)
        if "--song-id" not in args:
            continue

        def exhaustive(rows=rows, args=args):
            emb = embeddings[args[args.index("--weights") + 1]]
            q = row_of[args[args.index("--song-id") + 1]]
            dist = np.sqrt(((emb - emb[q]) ** 2).sum(axis=1))
            order = [int(j) for j in np.lexsort((id_rank, dist)) if j != q][:10]
            return [s for s, _, _ in rows] == [str(ids[j]) for j in order] and all(
                abs(d - dist[j]) <= 1e-6 for (_, _, d), j in zip(rows, order)
            )

        run.ops.check(f"call {i}: matches the exhaustive ranking", exhaustive)


def queries(run: Run, scale: Scale) -> None:
    base, setup_s = _queries_setup(run, scale)
    ids = [r.song_id for r in read_feature_store(base / "features.grmf")]
    calls = _plan(run, base, ids, scale.query_calls)
    untraced, proc = _client(base, "untraced", {"calls": calls})
    _check_calls(run, base, calls, untraced)
    latencies_ms = 1000.0 * np.array(untraced["latencies"])
    _metric(run, "setup_s", setup_s)
    _metric(run, "wall_s", untraced["wall"])
    _metric(run, "peak_rss_mb", proc.rss_mb)
    _metric(run, "cpu_s", untraced["cpu"])
    _metric(run, "query_p50_ms", np.percentile(latencies_ms, 50))
    _metric(run, "query_p90_ms", np.percentile(latencies_ms, 90))

    if not run.trace:
        return
    spans_dir = run.work / "spans"
    spans_dir.mkdir()
    traced, _ = _client(base, "traced", {"calls": calls, "spans": str(spans_dir / "client.jsonl")})
    run.ops.check(
        "recommend output identical with tracing on", lambda: untraced["outputs"] == traced["outputs"]
    )
    spans = _merge_spans(spans_dir, run.trace_file)
    run.per_layer.update(layer_metrics(spans))
    for verb in VERBS:
        run.per_layer[f"cli.{verb}.s"] = sum(traced["latencies"]) if verb == "recommend" else 0.0
    run.per_layer["cli.extract.core_util"] = 0.0
    run.per_layer["cli.import_s"] = import_seconds(run.work)
    run.per_layer["trace.overhead_s"] = traced["wall"] - untraced["wall"]


WORKLOADS = {"desk": desk, "queries": queries}
