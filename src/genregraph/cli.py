"""Command-line pipeline: synth, extract, train, evaluate, recommend.

Settings resolve in three layers: the defaults of the library type or
function a verb passes them to, then a JSON config file (--config), then
flags; evaluate and recommend take the training settings from the weights,
recommend the MFCC front end from the store. Every command is
deterministic given (inputs, config, seed). Exit codes: 0 success, 1
internal error, 2 input validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .audio import ClipTooShortError, SeedStream, WavDecodeError, clip_workers, derive_seed
from .dataset import DatasetManifest, ManifestError
from .graph import GENRE_NAMES, AttachmentMode, GenreGraph, GenreLabel, IsolatedNodeError, build_graph
from .mfcc import N_MFCC, MfccConfig, wav_mfcc
from .nn import EmbeddingModel, Variant
from .recommend import (
    Catalog,
    ExperimentConfig,
    SplitMismatchError,
    recommend,
    render_text_report,
    reports_to_json,
    run_experiment,
)
from .stores import (
    FeatureRecord,
    FeatureTable,
    StoreFormatError,
    read_feature_store,
    read_model,
    write_feature_store,
    write_model,
)
from .synth import SyntheticSpec, generate_dataset
from .train import (
    ModelOverflowError,
    TrainConfig,
    TrainingDivergedError,
    compute_embeddings,
    infer_embedding,
    split_train_test,
    train_pipeline,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad user input: flags, config, manifest, store, or audio files."""


def _genre_list(value) -> tuple[str, ...]:
    if isinstance(value, str):
        value = [g.strip() for g in value.split(",") if g.strip()]
    return tuple(value)


# each config key and the cast of its value; the flag of its name gives that type
_CONFIG_KEYS = {
    "seed": int,
    "songs_per_genre": int,
    "clip_seconds": float,
    "sample_rate": int,
    "genres": _genre_list,
    "test_fraction": float,
    "window_seconds": float,
    "epochs": int,
    "embed_lr": float,
    "mlp_lr": float,
    "sage_sample_k": int,
    "self_loops": bool,
    "attachment": AttachmentMode,
    "queries_per_genre": int,
    "knn_k": int,
    "recommend_k": int,
    "k": int,
}

# the JSON types a config value may take, by its key's cast
_CONFIG_TYPES = {
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    AttachmentMode: ("a string", (str,)),
    _genre_list: ("a string or a list of strings", (str, list)),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(doc.keys() - _CONFIG_KEYS.keys())
    if unknown:
        raise UsageError(f"unknown config keys {unknown}; known keys: {sorted(_CONFIG_KEYS)}")
    return doc


def _given(args: argparse.Namespace, config: dict, *keys: str) -> dict:
    """The settings among `keys` that a flag or else the config file gives,
    cast. A key given by neither is left out, so it keeps the default of the
    type or function the verb passes the settings to. A config value must
    have the JSON type of its key; true and false are booleans, not numbers.
    """
    given = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is None and key in config:
            value = config[key]
            kind, types = _CONFIG_TYPES[_CONFIG_KEYS[key]]
            listed = value if type(value) is list else []
            if type(value) not in types or any(type(g) is not str for g in listed):
                raise UsageError(f"config key {key!r} must be {kind}, got {json.dumps(value)}")
        if value is not None:
            given[key] = _CONFIG_KEYS[key](value)
    return given


def cmd_synth(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    keys = ("genres", "songs_per_genre", "clip_seconds", "sample_rate", "seed")
    spec = SyntheticSpec(**_given(args, config, *keys))
    out_dir = Path(args.out)
    manifest = generate_dataset(spec, out_dir)
    print(f"wrote {len(manifest)} WAV files across {len(spec.genres)} genres to {out_dir}")
    print(f"manifest: {out_dir / 'manifest.csv'}")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    manifest_path = Path(args.manifest)
    manifest = DatasetManifest.load(manifest_path)
    base = manifest_path.parent
    seed = _given(args, config, "seed").get("seed", 0)
    front_end = _given(args, config, "window_seconds", "sample_rate")
    if "sample_rate" in front_end:
        front_end["target_sample_rate"] = front_end.pop("sample_rate")
    cfg = MfccConfig(**front_end)

    def extract_one(item: tuple[int, object]):
        index, entry = item
        path = manifest.resolve(entry, base)
        try:
            values = wav_mfcc(path.read_bytes(), cfg, seed, index)
        except (WavDecodeError, ClipTooShortError, OSError, ValueError) as exc:
            return index, None, f"{path}: {exc}"
        record = FeatureRecord(
            song_id=entry.path,
            genre_index=GenreLabel.from_name(entry.genre).index,
            values=values,
        )
        return index, record, None

    with ThreadPoolExecutor(max_workers=clip_workers(len(manifest))) as pool:
        results = list(pool.map(extract_one, enumerate(manifest.entries)))

    failures = [msg for _, rec, msg in results if rec is None]
    for msg in failures:
        print(f"error: {msg}", file=sys.stderr)
    if failures:
        raise UsageError(f"{len(failures)} of {len(manifest)} files failed extraction")

    records = [rec for _, rec, _ in results]
    out_dir = Path(args.out) if args.out else base
    out_dir.mkdir(parents=True, exist_ok=True)
    store_path = out_dir / "features.grmf"
    write_feature_store(store_path, records, front_end=cfg)
    print(f"extracted {len(records)} x {N_MFCC} features -> {store_path}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    keys = ("embed_lr", "mlp_lr", "epochs", "seed", "sage_sample_k", "self_loops", "test_fraction")
    cfg = TrainConfig(variant=Variant(args.variant), **_given(args, config, *keys))
    table = read_feature_store(args.store)
    ids, labels, features = table.ids, table.genre_indices, table.values
    train_idx, _ = split_train_test(labels, test_fraction=cfg.test_fraction, seed=cfg.seed)

    graph = None
    if cfg.variant is not Variant.PLAIN:
        graph = build_graph(labels[train_idx], node_ids=[ids[i] for i in train_idx])
    try:
        model, curves = train_pipeline(graph, features[train_idx], labels[train_idx], cfg)
    except ModelOverflowError as exc:
        raise UsageError(f"{args.store}: {exc}") from None

    out_dir = Path(args.out) if args.out else Path(args.store).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    weights_path = out_dir / f"{cfg.variant.value}.grmw"
    write_model(weights_path, model)
    print(f"trained {cfg.variant.value} on {len(train_idx)} songs -> {weights_path}")
    for stage, curve in curves.items():
        csv_path = out_dir / f"{cfg.variant.value}_{stage}_loss.csv"
        curve.to_csv(csv_path)
        print(
            f"{stage}: loss {curve.train_losses[0]:.6f} -> {curve.train_losses[-1]:.6f} "
            f"over {curve.epochs} epochs ({csv_path})"
        )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    table = read_feature_store(args.store)
    ids, labels, features = table.ids, table.genre_indices, table.values

    models = [read_model(weights_path) for weights_path in args.weights]
    paths = {model.variant.value: weights_path for model, weights_path in zip(models, args.weights)}
    trained = models[0].cfg.seed  # run_experiment holds every file to the first one's split
    seed = _given(args, config, "seed").get("seed", trained)
    if seed != trained:
        raise UsageError(f"{args.weights[0]}: trained with seed {trained}, not the given seed {seed}")

    keys = ("queries_per_genre", "attachment", "knn_k", "recommend_k")
    cfg = ExperimentConfig(**_given(args, config, *keys))
    try:
        reports = run_experiment(ids, labels, features, models, cfg)
    except ModelOverflowError as exc:
        raise UsageError(f"{args.store} or {paths[exc.variant.value]}: {exc}") from None
    except SplitMismatchError as exc:
        raise UsageError(f"{args.weights[0]} and {paths[exc.variant]} were {exc}") from None

    text = render_text_report(reports)
    out_dir = Path(args.out) if args.out else Path(args.store).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(reports_to_json(reports))
    (out_dir / "report.txt").write_text(text)
    print(text, end="")
    print(f"report -> {out_dir / 'report.json'}")
    return EXIT_OK


class _Served(NamedTuple):
    """The columns and graph of one store's bytes, per variant the weight
    bytes, the model parsed from them and the catalog it embeds under the
    settings it carries, and the read-only MFCC vector of the last query
    clip with the WAV bytes, the store's MfccConfig and the seed it was made from."""

    data: bytes | None = None
    table: FeatureTable | None = None
    graph: GenreGraph | None = None
    catalogs: dict[Variant, tuple[bytes, EmbeddingModel, Catalog]] = {}
    clip: tuple[tuple[bytes, MfccConfig, int], np.ndarray] | None = None


# the last store and query clip served: replaced whole, only by a call that
# succeeded, and never changed in place (but for the table's norms, computed
# once to the same value in any thread), so concurrent calls each see one
# whole entry
_served = _Served()


def _holds(path: Path, data: bytes | None) -> bool:
    """Whether the file holds exactly `data`, read 64 KiB at a time."""
    if data is None or path.stat().st_size != len(data):
        return False
    chunk, view = bytearray(1 << 16), memoryview(data)
    with path.open("rb", buffering=0) as fh:
        for start in range(0, len(data), len(chunk)):
            del chunk[len(data) - start :]  # the last chunk is shorter
            if fh.readinto(chunk) != len(chunk) or chunk != view[start : start + len(chunk)]:
                return False
        return not fh.read(1)


def cmd_recommend(args: argparse.Namespace) -> int:
    global _served
    config = _load_config(args.config)
    if (args.song_id is None) == (args.audio is None):
        raise UsageError("give exactly one of --song-id or --audio")
    true_label = None
    if args.song_id is not None and (args.attachment, args.genre) != (None, None):
        raise UsageError("--attachment and --genre apply only to an --audio query")
    if args.audio is not None:
        attachment = _given(args, config, "attachment").get("attachment", AttachmentMode.FEATURE_KNN)
        if attachment is AttachmentMode.ORACLE:
            if args.genre is None:
                raise UsageError("oracle attachment for an audio file needs --genre")
            true_label = GenreLabel.from_name(args.genre).index
        elif args.genre is not None:
            raise UsageError(f"--genre applies only to oracle attachment, not {attachment.value}")

    # a hit keeps the bytes the table was parsed from: its values view them
    served, store = _served, Path(args.store)
    data, table, graph, catalogs, clip = served if _holds(store, served.data) else _Served(store.read_bytes(), clip=served.clip)
    if table is None:
        table = read_feature_store(args.store, data)
        table.genre_indices.flags.writeable = False  # values: a read-only view of data
    ids, labels, features = table.ids, table.genre_indices, table.values
    weights = Path(args.weights).read_bytes()
    # the variant tag is in the bytes, so at most one kept entry matches
    model, catalog = next(((m, c) for w, m, c in catalogs.values() if w == weights), (None, None))
    model = read_model(args.weights, weights) if model is None else model
    cfg = model.cfg

    if graph is None:
        graph = build_graph(labels, node_ids=ids)
    if args.song_id is not None and args.song_id not in graph:
        raise UsageError(f"unknown song id {args.song_id!r}")
    try:
        if catalog is None:
            catalog = Catalog(ids, compute_embeddings(model, graph, features, cfg), graph.node_index)
        if args.song_id is not None:
            query_vec = catalog[args.song_id]
            query_id = args.song_id
        else:
            made_from = (Path(args.audio).read_bytes(), table.front_end, cfg.seed)
            if clip is None or clip[0] != made_from:
                try:
                    vec = wav_mfcc(*made_from)
                except ClipTooShortError as exc:
                    raise UsageError(f"{args.audio}: {exc}, the window {args.store} records") from None
                except (WavDecodeError, ValueError) as exc:
                    raise UsageError(f"{args.audio}: {exc}") from None
                vec.flags.writeable = False
                clip = (made_from, vec)
            query_vec = infer_embedding(
                model,
                graph,
                features,
                clip[1],
                attachment,
                true_label=true_label,
                **_given(args, config, "knn_k"),
                seed=derive_seed(cfg.seed, SeedStream.QUERY_AUDIO),
                train_norms=table.norms,
            )
            query_id = None
    except ModelOverflowError as exc:
        raise UsageError(f"{args.store} or {args.weights}: {exc}") from None

    result = recommend(query_vec, catalog, **_given(args, config, "k"), query_id=query_id)
    kept = {**catalogs, model.variant: (weights, model, catalog)}
    _served = _Served(data, table, graph, kept, clip)
    print(f"{'rank':>4}  {'song_id':<40} {'genre':<14} distance")
    for rank, (song_id, distance) in enumerate(result.items, start=1):
        genre = GENRE_NAMES[graph.label_indices[graph.index_of(song_id)]]
        shown = song_id if song_id.isprintable() else repr(song_id)  # one line per row
        print(f"{rank:>4}  {shown:<40} {genre:<14} {distance:.6f}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, help="run seed (default 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The verbs' parser, built once per process: parsing leaves it as it
    was, and a long-lived caller of main would otherwise rebuild it per call."""
    parser = argparse.ArgumentParser(
        prog="genregraph",
        description="Graph-refined MFCC music genre recommendation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic WAV dataset + manifest")
    _add_common(p)
    p.add_argument("--out", metavar="DIR", required=True, help="output directory")
    p.add_argument("--songs-per-genre", type=int)
    p.add_argument("--clip-seconds", type=float)
    p.add_argument("--sample-rate", type=int)
    p.add_argument("--genres", help="comma-separated subset of the 8 genre names")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract one MFCC vector per manifest song")
    _add_common(p)
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--manifest", required=True, metavar="CSV")
    p.add_argument("--window-seconds", type=float)
    p.add_argument("--sample-rate", type=int)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one variant; write weights + loss CSVs")
    _add_common(p)
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--store", required=True, metavar="GRMF")
    p.add_argument("--variant", required=True, choices=[v.value for v in Variant])
    p.add_argument("--epochs", type=int)
    p.add_argument("--embed-lr", type=float)
    p.add_argument("--mlp-lr", type=float)
    p.add_argument("--sage-sample-k", type=int)
    p.add_argument("--self-loops", action=argparse.BooleanOptionalAction)
    p.add_argument("--test-fraction", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="Γ report comparing trained variants")
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--seed", type=int, help="the weights' training seed; a seed given must equal it")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--store", required=True, metavar="GRMF")
    p.add_argument("--weights", required=True, nargs="+", metavar="GRMW")
    p.add_argument("--attachment", choices=[m.value for m in AttachmentMode])
    p.add_argument("--queries-per-genre", type=int)
    p.add_argument("--knn-k", type=int)
    p.add_argument("--recommend-k", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-10 most similar songs for a query")
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--store", required=True, metavar="GRMF")
    p.add_argument("--weights", required=True, metavar="GRMW")
    p.add_argument("--song-id", help="query by id of a song in the store")
    p.add_argument("--audio", metavar="WAV", help="query by audio file")
    p.add_argument("--genre", help="true genre for oracle attachment of --audio")
    p.add_argument("--attachment", choices=[m.value for m in AttachmentMode])
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_recommend)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except IsolatedNodeError as exc:
        print(
            f"error: song {exc.node_id!r} is the only {exc.genre} song in the graph; re-run "
            "train with --self-loops to let the GCN normalize a song with no same-genre company",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except (
        UsageError,
        ManifestError,
        StoreFormatError,
        WavDecodeError,
        ClipTooShortError,
        OSError,
        ValueError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
