"""Euclidean top-k recommendation over embeddings and the Γ accuracy score.

Γ is the mean over genres of the mean fraction of a query's top-k
recommendations that share its genre, reported as a percentage. The
experiment harness compares the plain-MFCC baseline against the
graph-refined embeddings on a held-out split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graph import GENRE_NAMES, AttachmentMode, GenreLabel, build_graph, nearest
from .nn import EmbeddingModel, Variant
from .train import (
    TrainConfig,
    compute_embeddings,
    derive_seed,
    infer_embedding,
    split_train_test,
    train_embeddings,
)

TOP_K = 10

_STREAM_QUERY = 3

VARIANT_DISPLAY = {Variant.PLAIN: "MFCC", Variant.SAGE: "GraphSAGE", Variant.GCN: "GCN"}


@dataclass(frozen=True)
class RecommendationList:
    """Up to k (song_id, distance) pairs in ascending distance order."""

    query_id: str
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
    """Catalog vectors keyed by song id, as one matrix in id order.

    The ids are sorted once (Python string order); row i of `vectors` is
    the vector of `ids[i]`. Built once per catalog and searched by every
    query.
    """

    def __init__(self, ids: Sequence[str], vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} ids for vectors of shape {vectors.shape}")
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.ids = [ids[i] for i in order]
        self.vectors = vectors[order]
        self._rows = {song_id: row for row, song_id in enumerate(self.ids)}
        if len(self._rows) != len(self.ids):
            raise ValueError("catalog ids must be unique")

    def __getitem__(self, song_id: str) -> np.ndarray:
        return self.vectors[self._rows[song_id]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def recommend(
    query: np.ndarray,
    catalog: Mapping[str, np.ndarray],
    k: int = TOP_K,
    query_id: str = "",
) -> RecommendationList:
    """The k catalog songs nearest the query in Euclidean distance.

    The query's own id is excluded; exact distance ties break by
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
    own = catalog._rows.get(query_id, -1)
    order, distances = nearest(query, catalog.vectors, catalog.ids, k, exclude=own)
    return RecommendationList(
        query_id=query_id,
        items=tuple(zip([catalog.ids[i] for i in order.tolist()], distances.tolist())),
    )


def gamma(
    recommendations: Sequence[RecommendationList],
    labels: Mapping[str, GenreLabel],
    variant: str = "",
    attachment_mode: str = "",
    catalog_size: int = 0,
) -> EvalReport:
    """Score recommendation lists: per-genre mean of R/L as a percentage.

    R counts the recommendations sharing the query's genre and L is the
    length of the list, min(k, catalog size - 1) for a list from
    recommend(). The average is the unweighted mean over the genres that
    appear among the queries. Every query and recommended id must have a
    label, and no list may be empty.
    """
    if not recommendations:
        raise ValueError("no recommendation lists to score")
    per_genre_scores: dict[str, list[float]] = {}
    for rec in recommendations:
        if rec.query_id not in labels:
            raise KeyError(f"query {rec.query_id!r} has no genre label")
        query_genre = labels[rec.query_id].name
        hits = 0
        for song_id in rec.item_ids:
            if song_id not in labels:
                raise KeyError(f"recommended song {song_id!r} has no genre label")
            hits += labels[song_id].name == query_genre
        if not rec.items:
            raise ValueError(f"query {rec.query_id!r} has an empty recommendation list")
        per_genre_scores.setdefault(query_genre, []).append(hits / len(rec.items))

    ordered = [name for name in GENRE_NAMES if name in per_genre_scores]
    per_genre = {name: 100.0 * float(np.mean(per_genre_scores[name])) for name in ordered}
    return EvalReport(
        variant=variant,
        attachment_mode=attachment_mode,
        gamma_per_genre=per_genre,
        gamma_average=float(np.mean(list(per_genre.values()))),
        queries_per_genre={name: len(per_genre_scores[name]) for name in ordered},
        catalog_size=catalog_size,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    queries_per_genre: int = 10
    test_fraction: float = 0.1
    attachment: AttachmentMode = AttachmentMode.ORACLE
    knn_k: int = 10
    recommend_k: int = TOP_K


def run_experiment(
    song_ids: Sequence[str],
    label_indices: np.ndarray,
    features: np.ndarray,
    variants: Iterable[Variant],
    cfg: ExperimentConfig,
    pretrained: Mapping[str, EmbeddingModel] | None = None,
) -> dict[str, EvalReport]:
    """Train each variant, embed held-out songs, recommend, and score Γ.

    The catalog is the training songs' embeddings; queries are up to
    queries_per_genre held-out songs per genre, attached by cfg.attachment.
    A pretrained model (keyed by variant value) skips that variant's
    training and reuses its weights.
    """
    label_indices = np.asarray(label_indices, dtype=np.int64)
    features = np.asarray(features, dtype=np.float64)
    labels_by_id = {
        sid: GenreLabel.from_index(int(g)) for sid, g in zip(song_ids, label_indices)
    }

    train_idx, test_idx = split_train_test(
        label_indices, test_fraction=cfg.test_fraction, seed=cfg.train.seed
    )
    train_ids = [song_ids[i] for i in train_idx]
    train_labels = [GenreLabel.from_index(int(g)) for g in label_indices[train_idx]]
    train_features = features[train_idx]
    train_targets = label_indices[train_idx]

    query_idx: list[int] = []
    for genre in np.unique(label_indices[test_idx]):
        genre_tests = test_idx[label_indices[test_idx] == genre]
        query_idx.extend(genre_tests[: cfg.queries_per_genre])

    reports: dict[str, EvalReport] = {}
    for variant in variants:
        vcfg = replace(cfg.train, variant=variant)
        if variant is Variant.PLAIN:
            model = None
            graph = None
            catalog_vectors = train_features
        else:
            graph = build_graph(train_labels, node_ids=train_ids)
            if pretrained and variant.value in pretrained:
                model = pretrained[variant.value]
                catalog_vectors = compute_embeddings(model, graph, train_features, vcfg)
            else:
                model, _, catalog_vectors = train_embeddings(
                    graph, train_features, train_targets, vcfg
                )
        catalog = Catalog(train_ids, catalog_vectors)

        recommendations = []
        for qi in query_idx:
            qid = song_ids[qi]
            if variant is Variant.PLAIN:
                query_vec = features[qi]
            else:
                query_vec = infer_embedding(
                    model,
                    graph,
                    train_features,
                    features[qi],
                    cfg.attachment,
                    true_label=labels_by_id[qid],
                    knn_k=cfg.knn_k,
                    sample_k=vcfg.sage_sample_k,
                    self_loops=vcfg.self_loops,
                    seed=derive_seed(vcfg.seed, _STREAM_QUERY, int(qi)),
                )
            recommendations.append(
                recommend(query_vec, catalog, k=cfg.recommend_k, query_id=qid)
            )

        reports[variant.value] = gamma(
            recommendations,
            labels_by_id,
            variant=variant.value,
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
