"""Two-stage training: graph-layer embedding learning, then the genre MLP.

Stage 1 trains the graph layer with a throwaway linear head at lr 0.01;
stage 2 freezes the embeddings and trains the three-layer classifier at
lr 0.001. Both stages are the same full-batch Adam loop over a dense stack
for the configured epoch count and are bit-for-bit reproducible for a
fixed seed.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .audio import derive_seed
from .graph import (
    AttachmentMode,
    GenreGraph,
    GenreLabel,
    attach_unseen,
    draw_neighbors,
    extended_adjacency_row,
    normalize,
)
from .nn import (
    AdamState,
    EmbeddingModel,
    LayerParams,
    Variant,
    adam_step,
    build_model,
    embedding_forward,
    mlp_forward,
    mlp_loss_and_grads,
    sampled_neighbor_means,
    softmax_cross_entropy,
)

# stream tags for deriving independent per-purpose seeds from one run seed
_STREAM_EPOCH = 0
_STREAM_FINAL = 1


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch}")


class ModelOverflowError(ValueError):
    """Finite values overflowed the model: feature values or weights too
    large, as a .grmf or .grmw file may hold."""

    def __init__(self, variant: Variant):
        self.variant = variant
        super().__init__(f"values too large for the {variant.value} model")


@dataclass(frozen=True)
class TrainConfig:
    embed_lr: float = 0.01
    mlp_lr: float = 0.001
    epochs: int = 50
    seed: int = 0
    variant: Variant = Variant.GCN
    sage_sample_k: int = 10
    self_loops: bool = False

    def __post_init__(self):
        if self.embed_lr <= 0 or self.mlp_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.sage_sample_k < 1:
            raise ValueError(f"sage_sample_k must be >= 1, got {self.sage_sample_k}")


@dataclass(frozen=True)
class LossCurve:
    """Per-epoch (pre-step train loss, post-step loss on the same batch)."""

    train_losses: np.ndarray
    eval_losses: np.ndarray

    def __post_init__(self):
        train = np.asarray(self.train_losses, dtype=np.float64)
        eval_ = np.asarray(self.eval_losses, dtype=np.float64)
        object.__setattr__(self, "train_losses", train)
        object.__setattr__(self, "eval_losses", eval_)
        if train.shape != eval_.shape or train.ndim != 1:
            raise ValueError("train and eval losses must be 1-D and the same length")
        if not (np.all(np.isfinite(train)) and np.all(np.isfinite(eval_))):
            raise ValueError("loss curve contains non-finite values")
        if np.any(train < 0) or np.any(eval_ < 0):
            raise ValueError("cross-entropy losses cannot be negative")

    @property
    def epochs(self) -> int:
        return len(self.train_losses)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "eval_loss"])
            for epoch, (train, eval_) in enumerate(zip(self.train_losses, self.eval_losses)):
                writer.writerow([epoch, repr(float(train)), repr(float(eval_))])

    @classmethod
    def from_csv(cls, path: str | Path) -> "LossCurve":
        train, eval_ = [], []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                train.append(float(row["train_loss"]))
                eval_.append(float(row["eval_loss"]))
        return cls(train_losses=np.array(train), eval_losses=np.array(eval_))


def split_train_test(
    label_indices: np.ndarray, test_fraction: float = 0.1, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-genre seeded shuffle split; every genre keeps at least one of each."""
    if not (0 < test_fraction < 1):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    label_indices = np.asarray(label_indices)
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for genre in np.unique(label_indices):
        members = np.flatnonzero(label_indices == genre)
        if len(members) < 2:
            raise ValueError(f"genre index {genre} has {len(members)} song(s); need >= 2 to split")
        shuffled = rng.permutation(members)
        n_test = int(round(len(members) * test_fraction))
        n_test = min(max(n_test, 1), len(members) - 1)
        test_parts.append(np.sort(shuffled[:n_test]))
        train_parts.append(np.sort(shuffled[n_test:]))
    return np.concatenate(train_parts), np.concatenate(test_parts)


def _fit(
    layers: list[LayerParams],
    batches: Iterable[np.ndarray],
    targets: np.ndarray,
    lr: float,
    variant: Variant,
    inputs: np.ndarray,
) -> LossCurve:
    """Full-batch Adam on a dense stack, one epoch per input block, updating
    the layers in place. Records each epoch's loss before the step and
    after it, on the same block.

    Output layers start at zero, so the first loss is ln 8 unless the
    stage's `inputs` overflowed a hidden layer: if it is not finite while
    they are, ModelOverflowError. Any other non-finite loss is
    TrainingDivergedError. Callers run it under np.errstate, so neither
    prints a numpy warning.
    """
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


def graph_block(
    variant: Variant, graph: GenreGraph, features: np.ndarray, cfg: TrainConfig, seed: int
) -> np.ndarray:
    """The graph layer's input rows for every node.

    GCN: A_hat X. SAGE: each node's feature beside the mean of a neighbor
    sample of at most cfg.sage_sample_k drawn from `seed`.
    """
    if variant is Variant.PLAIN:
        raise ValueError(f"variant {variant} has no graph layer")
    if variant is Variant.GCN:
        return normalize(graph, add_self_loops=cfg.self_loops).apply(features)
    means = sampled_neighbor_means(graph, features, cfg.sage_sample_k, seed)
    return np.hstack([features, means])


def train_embeddings(
    graph: GenreGraph,
    features: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
) -> tuple[EmbeddingModel, LossCurve, np.ndarray]:
    """Train the graph layer plus its temporary head; return embeddings.

    Embeddings are the post-training graph-layer outputs (head excluded).
    SAGE draws a fresh neighbor sample each epoch from seeds derived from
    cfg.seed; the final embedding forward uses its own derived seed.
    """
    if cfg.variant is Variant.PLAIN:
        raise ValueError("PLAIN has no embedding stage; train the classifier on raw features")
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if features.shape[0] != graph.n_nodes:
        raise ValueError(f"{features.shape[0]} feature rows for {graph.n_nodes} nodes")

    model = build_model(cfg.variant, cfg.seed)

    def block(epoch: int) -> np.ndarray:
        seed = derive_seed(cfg.seed, _STREAM_EPOCH, epoch)
        return graph_block(cfg.variant, graph, features, cfg, seed)

    layers = [model.graph_layer, model.embed_head]
    with np.errstate(over="ignore", invalid="ignore"):
        # A_hat X is the same every epoch, so GCN builds it once (as in
        # SGC); SAGE draws a fresh neighbor sample per epoch.
        if cfg.variant is Variant.GCN:
            blocks = itertools.repeat(block(0), cfg.epochs)
        else:
            blocks = map(block, range(cfg.epochs))
        curve = _fit(layers, blocks, targets, cfg.embed_lr, cfg.variant, features)
    return model, curve, compute_embeddings(model, graph, features, cfg)


def compute_embeddings(
    model: EmbeddingModel,
    graph: GenreGraph,
    features: np.ndarray,
    cfg: TrainConfig,
) -> np.ndarray:
    """Catalog embeddings for a trained model.

    Reproduces the final embedding pass of train_embeddings bit for bit,
    so weights loaded from disk yield the same catalog as the training
    run that wrote them (given the same cfg).
    """
    features = np.asarray(features, dtype=np.float64)
    if model.variant is Variant.PLAIN:
        return features
    seed = derive_seed(cfg.seed, _STREAM_FINAL)
    with np.errstate(over="ignore", invalid="ignore"):
        return _embed(graph_block(model.variant, graph, features, cfg, seed), model)


def _embed(block: np.ndarray, model: EmbeddingModel) -> np.ndarray:
    """embedding_forward, or ModelOverflowError if the block or the
    embedding is not finite. Callers run it under np.errstate."""
    embeddings = embedding_forward(block, model.graph_layer)
    if not (np.isfinite(block).all() and np.isfinite(embeddings).all()):
        raise ModelOverflowError(model.variant)
    return embeddings


def train_classifier(
    inputs: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    mlp: list[LayerParams],
) -> tuple[list[LayerParams], LossCurve]:
    """Train the three-layer MLP (as from build_model) on frozen inputs
    (raw MFCC or embeddings), updating its layers in place."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if mlp[0].in_dim != inputs.shape[1]:
        raise ValueError(f"classifier expects {mlp[0].in_dim}-dim inputs, got {inputs.shape[1]}")

    batches = itertools.repeat(inputs, cfg.epochs)
    with np.errstate(over="ignore", invalid="ignore"):
        curve = _fit(mlp, batches, targets, cfg.mlp_lr, cfg.variant, inputs)
    return mlp, curve


def train_pipeline(
    graph: GenreGraph,
    features: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
) -> tuple[EmbeddingModel, dict[str, LossCurve]]:
    """Run both stages for cfg.variant; PLAIN skips the embedding stage."""
    curves: dict[str, LossCurve] = {}
    if cfg.variant is Variant.PLAIN:
        model, inputs = build_model(Variant.PLAIN, cfg.seed), features
    else:
        model, curves["embedding"], inputs = train_embeddings(graph, features, targets, cfg)
    _, curves["classifier"] = train_classifier(inputs, targets, cfg, mlp=model.mlp)
    return model, curves


def infer_embedding(
    model: EmbeddingModel,
    graph: GenreGraph,
    train_features: np.ndarray,
    new_feature: np.ndarray,
    attachment: AttachmentMode,
    true_label: GenreLabel | None = None,
    knn_k: int = 10,
    sample_k: int = 10,
    self_loops: bool = False,
    seed: int = 0,
) -> np.ndarray:
    """Embed a song that is not in the training graph.

    The song is attached by ORACLE or FEATURE_KNN; its one-row block is
    built from its neighbors' stored training features and goes through
    the same graph-layer forward as catalog rows. PLAIN passes the raw
    feature through unchanged.
    """
    new_feature = np.asarray(new_feature, dtype=np.float64).ravel()
    if model.variant is Variant.PLAIN:
        return new_feature

    train_features = np.asarray(train_features, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        neighbors = attach_unseen(graph, new_feature, attachment, true_label, knn_k, train_features)
        if model.variant is Variant.GCN:
            weights, self_weight = extended_adjacency_row(len(neighbors), self_loops)
            row = weights @ train_features[neighbors] + self_weight * new_feature
        else:
            sampled = draw_neighbors(neighbors, sample_k, np.random.default_rng(seed))
            if len(sampled):
                neighbor_mean = train_features[sampled].mean(axis=0)
            else:
                neighbor_mean = np.zeros_like(new_feature)
            row = np.concatenate([new_feature, neighbor_mean])
        return _embed(row[None, :], model)[0]
