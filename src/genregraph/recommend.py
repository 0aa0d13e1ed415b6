"""Euclidean top-k recommendation over embeddings and the Γ accuracy score.

Γ is the mean over genres of the mean fraction of a query's top-k
recommendations that share its genre, reported as a percentage. The
experiment harness compares the plain-MFCC baseline against the
graph-refined embeddings on a held-out split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .audio import SeedStream, derive_seed
from .graph import GENRE_NAMES, AttachmentMode, build_graph, genre_cliques, nearest, row_norms
from .nn import EmbeddingModel, Variant
from .train import TrainConfig, compute_embeddings, infer_embedding, split_train_test

TOP_K = 10

VARIANT_DISPLAY = {Variant.PLAIN: "MFCC", Variant.SAGE: "GraphSAGE", Variant.GCN: "GCN"}


@dataclass(frozen=True)
class RecommendationList:
    """Up to k (song_id, distance) pairs in ascending distance order; the
    query id is None for a query from outside the catalog."""

    query_id: str | None
    items: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple((str(s), float(d)) for s, d in self.items))
        distances = [d for _, d in self.items]
        if any(d < 0 for d in distances):
            raise ValueError("distances must be nonnegative")
        if any(b < a for a, b in zip(distances, distances[1:])):
            raise ValueError("distances must be nondecreasing")
        if any(s == self.query_id for s, _ in self.items):
            raise ValueError(f"query {self.query_id!r} appears in its own recommendations")

    @property
    def item_ids(self) -> list[str]:
        return [s for s, _ in self.items]


@dataclass(frozen=True)
class EvalReport:
    """Per-genre and average Γ (as percentages) for one embedding variant."""

    variant: str
    attachment_mode: str
    gamma_per_genre: dict[str, float]
    gamma_average: float
    queries_per_genre: dict[str, int]
    catalog_size: int

    def __post_init__(self):
        values = list(self.gamma_per_genre.values())
        if not values:
            raise ValueError("report needs at least one genre")
        if any(not (0.0 <= v <= 100.0) for v in values):
            raise ValueError("per-genre gamma must lie in [0, 100]")
        if abs(self.gamma_average - float(np.mean(values))) > 1e-9:
            raise ValueError("average gamma must be the mean of the per-genre values")

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "attachment_mode": self.attachment_mode,
            "query_source": "held_out",
            "gamma_percent": {
                "per_genre": self.gamma_per_genre,
                "average": self.gamma_average,
            },
            "counts": {
                "queries_per_genre": self.queries_per_genre,
                "catalog_size": self.catalog_size,
            },
        }


class Catalog(Mapping[str, np.ndarray]):
    """Catalog vectors keyed by song id, as one read-only matrix in id order.

    The ids are sorted once (Python string order); row i of `vectors` is
    the vector of `ids[i]`, and `norms` holds the rows' read-only squared
    norms. Built once per catalog and searched by every query. An id's row
    is the rank of its index in `positions`: a GenreGraph's `node_index`
    over the same ids, or a dict built here.
    """

    def __init__(
        self, ids: Sequence[str], vectors: np.ndarray, positions: Mapping[str, int] | None = None
    ):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} ids for vectors of shape {vectors.shape}")
        if positions is None:
            positions = {song_id: i for i, song_id in enumerate(ids)}
            if len(positions) != len(ids):
                raise ValueError("catalog ids must be unique")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids = [ids[i] for i in order]
        self.vectors = vectors[order]
        self.vectors.flags.writeable = False
        self.norms = row_norms(self.vectors)
        self._positions = positions
        self._rank = np.empty(len(ids), dtype=np.int64)
        self._rank[order] = np.arange(len(ids))

    def __getitem__(self, song_id: str) -> np.ndarray:
        return self.vectors[self._rank[self._positions[song_id]]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def recommend(
    query: np.ndarray,
    catalog: Mapping[str, np.ndarray],
    k: int = TOP_K,
    query_id: str | None = None,
) -> RecommendationList:
    """The k catalog songs nearest the query in Euclidean distance.

    The query's own id is excluded; a query from outside the catalog has
    query_id None and excludes nothing. Exact distance ties break by
    ascending song id. A distance that overflows (or is NaN) raises
    ValueError naming the catalog song. A catalog that is not a Catalog is
    turned into one first, so callers with many queries should build the
    Catalog once.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(catalog) - (query_id in catalog) < 1:
        raise ValueError("catalog is empty (or holds only the query itself)")
    if not isinstance(catalog, Catalog):
        ids = list(catalog)
        catalog = Catalog(ids, np.array([catalog[i] for i in ids], dtype=np.float64))
    query = np.asarray(query, dtype=np.float64).ravel()
    own = catalog._rank[catalog._positions[query_id]] if query_id in catalog else -1
    order, distances = nearest(query, catalog.vectors, catalog.ids, k, own, catalog.norms)
    return RecommendationList(
        query_id=query_id,
        items=tuple(zip([catalog.ids[i] for i in order.tolist()], distances.tolist())),
    )


def gamma(
    recommendations: Sequence[RecommendationList],
    labels: Mapping[str, int],
    variant: str = "",
    attachment_mode: str = "",
    catalog_size: int = 0,
) -> EvalReport:
    """Score recommendation lists: per-genre mean of R/L as a percentage.

    R counts the recommendations sharing the query's genre and L is the
    length of the list, min(k, catalog size - 1) for a list from
    recommend(). The average is the unweighted mean over the genres that
    appear among the queries. Every query and recommended id must have a
    genre index in `labels`, and no list may be empty.
    """
    if not recommendations:
        raise ValueError("no recommendation lists to score")
    per_genre_scores: dict[int, list[float]] = {}
    for rec in recommendations:
        if rec.query_id not in labels:
            raise KeyError(f"query {rec.query_id!r} has no genre label")
        query_genre = labels[rec.query_id]
        hits = 0
        for song_id in rec.item_ids:
            if song_id not in labels:
                raise KeyError(f"recommended song {song_id!r} has no genre label")
            hits += labels[song_id] == query_genre
        if not rec.items:
            raise ValueError(f"query {rec.query_id!r} has an empty recommendation list")
        per_genre_scores.setdefault(query_genre, []).append(hits / len(rec.items))

    ordered = sorted(per_genre_scores)
    per_genre = {GENRE_NAMES[g]: 100.0 * float(np.mean(per_genre_scores[g])) for g in ordered}
    return EvalReport(
        variant=variant,
        attachment_mode=attachment_mode,
        gamma_per_genre=per_genre,
        gamma_average=float(np.mean(list(per_genre.values()))),
        queries_per_genre={GENRE_NAMES[g]: len(per_genre_scores[g]) for g in ordered},
        catalog_size=catalog_size,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    queries_per_genre: int = 10
    attachment: AttachmentMode = AttachmentMode.ORACLE
    knn_k: int = 10
    recommend_k: int = TOP_K

    def __post_init__(self):
        for name in ("queries_per_genre", "knn_k", "recommend_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class SplitMismatchError(ValueError):
    """A model was trained on a split other than the experiment's."""

    def __init__(self, variant: str, model: TrainConfig, split: TrainConfig):
        self.variant = variant
        super().__init__(
            f"trained on different splits: seed {split.seed} and {model.seed}, "
            f"test_fraction {split.test_fraction} and {model.test_fraction}"
        )


def run_experiment(
    song_ids: Sequence[str],
    label_indices: np.ndarray,
    features: np.ndarray,
    models: Sequence[EmbeddingModel],
    cfg: ExperimentConfig = ExperimentConfig(),
) -> dict[str, EvalReport]:
    """Embed held-out songs with each trained model, recommend, and score Γ.

    The split is the first model's seed and test_fraction: a model of
    another split raises SplitMismatchError, and a second model of one
    variant ValueError. The catalog is the training songs' embeddings
    under each model's own settings; queries are up to queries_per_genre
    held-out songs per genre, attached by cfg.attachment.
    """
    if not models:
        raise ValueError("no models to score")
    split = models[0].cfg
    variants = [model.variant for model in models]
    for model in models:
        if variants.count(model.variant) > 1:
            raise ValueError(f"two models of variant {model.variant.value!r}")
        if (model.cfg.seed, model.cfg.test_fraction) != (split.seed, split.test_fraction):
            raise SplitMismatchError(model.variant.value, model.cfg, split)
    label_indices = np.asarray(label_indices, dtype=np.int64)
    features = np.asarray(features, dtype=np.float64)
    labels_by_id = dict(zip(song_ids, label_indices.tolist()))

    train_idx, test_idx = split_train_test(
        label_indices, test_fraction=split.test_fraction, seed=split.seed
    )
    train_ids = [song_ids[i] for i in train_idx]
    train_features = features[train_idx]
    train_norms = row_norms(train_features)
    graph = build_graph(label_indices[train_idx], node_ids=train_ids)

    query_idx: list[int] = []
    for members in genre_cliques(label_indices[test_idx]):
        query_idx.extend(test_idx[members[: cfg.queries_per_genre]])

    reports: dict[str, EvalReport] = {}
    for model in models:
        catalog_vectors = compute_embeddings(model, graph, train_features, model.cfg)
        catalog = Catalog(train_ids, catalog_vectors, graph.node_index)
        recommendations = []
        for qi in query_idx:
            query_vec = infer_embedding(
                model,
                graph,
                train_features,
                features[qi],
                cfg.attachment,
                true_label=int(label_indices[qi]),
                knn_k=cfg.knn_k,
                seed=derive_seed(model.cfg.seed, SeedStream.QUERY, int(qi)),
                train_norms=train_norms,
            )
            recommendations.append(
                recommend(query_vec, catalog, k=cfg.recommend_k, query_id=song_ids[qi])
            )

        reports[model.variant.value] = gamma(
            recommendations,
            labels_by_id,
            variant=model.variant.value,
            attachment_mode=cfg.attachment.value,
            catalog_size=len(train_ids),
        )
    return reports


def reports_to_json(reports: Mapping[str, EvalReport]) -> str:
    doc = {variant: report.to_dict() for variant, report in sorted(reports.items())}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text_report(reports: Mapping[str, EvalReport]) -> str:
    """Plain-text comparison table: genres as rows, variants as columns."""
    variant_order = [v for v in (Variant.PLAIN, Variant.SAGE, Variant.GCN) if v.value in reports]
    columns = [VARIANT_DISPLAY[v] for v in variant_order]
    genre_rows = [
        name
        for name in GENRE_NAMES
        if any(name in reports[v.value].gamma_per_genre for v in variant_order)
    ]
    modes = sorted({reports[v.value].attachment_mode for v in variant_order})

    name_width = max(len("Average"), *(len(g) for g in genre_rows)) + 2
    col_width = max(12, *(len(c) + 2 for c in columns))
    lines = [f"attachment mode: {', '.join(modes)}"]
    lines.append("queries: held-out songs; catalog: training songs")
    lines.append("Genre".ljust(name_width) + "".join(c.rjust(col_width) for c in columns))
    for genre in genre_rows:
        cells = []
        for v in variant_order:
            value = reports[v.value].gamma_per_genre.get(genre)
            cells.append(("-" if value is None else f"{value:.2f}").rjust(col_width))
        lines.append(genre.ljust(name_width) + "".join(cells))
    avg_cells = [f"{reports[v.value].gamma_average:.2f}".rjust(col_width) for v in variant_order]
    lines.append("Average".ljust(name_width) + "".join(avg_cells))
    return "\n".join(lines) + "\n"
