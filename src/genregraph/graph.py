"""Song-similarity graph: a union of genre cliques.

Two songs are connected exactly when they share a genre, so the graph is a
disjoint union of one clique per genre. Adjacency is kept as per-genre
member lists; neighbor lists are materialized on demand in sorted order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

GENRE_NAMES = (
    "Electronic",
    "Experimental",
    "Folk",
    "Hip-Hop",
    "Instrumental",
    "International",
    "Pop",
    "Rock",
)


class IsolatedNodeError(ValueError):
    """Normalization without self-loops hit a degree-zero node."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        super().__init__(
            f"node {node_id!r} is isolated; normalize with add_self_loops=True "
            "or give it same-genre company"
        )


class UnknownNodeError(KeyError):
    def __init__(self, node_id: str):
        self.node_id = node_id
        super().__init__(f"unknown node id {node_id!r}")


class AttachmentMode(enum.Enum):
    ORACLE = "oracle"
    FEATURE_KNN = "feature_knn"


@dataclass(frozen=True)
class GenreLabel:
    """One of the eight canonical genres, index 0..7."""

    index: int
    name: str

    def __post_init__(self):
        if not (0 <= self.index < len(GENRE_NAMES)):
            raise ValueError(f"genre index {self.index} out of range 0..{len(GENRE_NAMES) - 1}")
        if GENRE_NAMES[self.index] != self.name:
            raise ValueError(f"genre index {self.index} is {GENRE_NAMES[self.index]!r}, not {self.name!r}")

    @classmethod
    def from_index(cls, index: int) -> "GenreLabel":
        """The shared label of genre `index`."""
        if not (0 <= index < len(GENRE_NAMES)):
            raise ValueError(f"genre index {index} out of range 0..{len(GENRE_NAMES) - 1}")
        return _LABELS[index]

    @classmethod
    def from_name(cls, name: str) -> "GenreLabel":
        try:
            return _LABELS[GENRE_NAMES.index(name)]
        except ValueError:
            raise ValueError(f"unknown genre {name!r}; expected one of {GENRE_NAMES}") from None


# the eight labels, built once: a store of N songs needs no N label objects
_LABELS = tuple(GenreLabel(index=i, name=name) for i, name in enumerate(GENRE_NAMES))


class GenreGraph:
    """Union-of-cliques graph over songs labeled by genre."""

    def __init__(self, node_ids: Sequence[str], labels: Sequence[GenreLabel]):
        if len(node_ids) == 0:
            raise ValueError("graph needs at least one song")
        if len(node_ids) != len(labels):
            raise ValueError(f"{len(node_ids)} ids for {len(labels)} labels")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("node ids must be unique")
        self.node_ids = list(node_ids)
        self.labels = list(labels)
        self.label_indices = np.array([lab.index for lab in labels], dtype=np.int64)
        self._id_to_index = {node_id: i for i, node_id in enumerate(self.node_ids)}
        # sorted member indices per genre index present in the graph
        self._members = {
            int(g): np.flatnonzero(self.label_indices == g)
            for g in np.unique(self.label_indices)
        }

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return sum(len(m) * (len(m) - 1) // 2 for m in self._members.values())

    def index_of(self, node_id: str) -> int:
        try:
            return self._id_to_index[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def genre_members(self, genre_index: int) -> np.ndarray:
        """Sorted node indices of one genre (empty if absent)."""
        return self._members.get(int(genre_index), np.empty(0, dtype=np.int64))

    def neighbors(self, node_index: int) -> np.ndarray:
        """Sorted indices of same-genre nodes, excluding the node itself."""
        members = self._members[int(self.label_indices[node_index])]
        pos = np.searchsorted(members, node_index)
        return np.concatenate([members[:pos], members[pos + 1 :]])

    def degree(self, node_index: int) -> int:
        members = self._members[int(self.label_indices[node_index])]
        return len(members) - 1

    @property
    def degrees(self) -> np.ndarray:
        sizes = {g: len(m) for g, m in self._members.items()}
        return np.array([sizes[int(g)] - 1 for g in self.label_indices], dtype=np.int64)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetrically degree-normalized adjacency D^{-1/2} A D^{-1/2}.

    The graph is a union of cliques, so the matrix is kept as its clique
    member lists. Inside a clique of size n every entry is 1/(n-1) off the
    diagonal without self-loops, or 1/n everywhere with them.
    """

    cliques: tuple[np.ndarray, ...]
    n_nodes: int
    self_loops: bool

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Left-multiply node features by the normalized adjacency.

        With S the sum of a clique's feature rows, row i becomes
        (S - x_i)/(n-1), or S/n with self-loops: O(N*d), no n x n block.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != self.n_nodes:
            raise ValueError(
                f"adjacency is {self.n_nodes} nodes but features have {features.shape[0]} rows"
            )
        out = np.empty_like(features)
        for members in self.cliques:
            rows = features[members]
            total = rows.sum(axis=0)
            if self.self_loops:
                out[members] = total / len(members)
            else:
                out[members] = (total - rows) / (len(members) - 1)
        return out


def build_graph(labels: Sequence[GenreLabel], node_ids: Sequence[str] | None = None) -> GenreGraph:
    """Build the union-of-cliques graph from per-song genre labels."""
    if node_ids is None:
        node_ids = [f"song_{i:06d}" for i in range(len(labels))]
    return GenreGraph(node_ids=node_ids, labels=labels)


def normalize(graph: GenreGraph, add_self_loops: bool = False) -> NormalizedAdjacency:
    """Normalized adjacency of the graph, optionally after adding self-loops."""
    cliques = tuple(graph.genre_members(g) for g in np.unique(graph.label_indices))
    for members in cliques:
        if len(members) == 1 and not add_self_loops:
            raise IsolatedNodeError(graph.node_ids[int(members[0])])
    return NormalizedAdjacency(cliques=cliques, n_nodes=graph.n_nodes, self_loops=add_self_loops)


def draw_neighbors(neighbors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of min(k, len(neighbors)) distinct entries of `neighbors`.

    With at most k neighbors every one is kept, in order, and the
    generator is not advanced.
    """
    if len(neighbors) > k:
        return rng.choice(neighbors, size=k, replace=False)
    return neighbors


def attach_unseen(
    graph: GenreGraph,
    feature: np.ndarray,
    mode: AttachmentMode,
    true_label: GenreLabel | None = None,
    k: int = 10,
    train_features: np.ndarray | None = None,
) -> list[str]:
    """Choose the neighbor set for a song that is not in the graph.

    ORACLE places it by its true genre label and returns every node of that
    genre. FEATURE_KNN places it by feature similarity and returns the k
    training nodes nearest in Euclidean distance (`train_features` must hold
    one row per graph node, aligned with graph order).
    """
    if mode is AttachmentMode.ORACLE:
        if true_label is None:
            raise ValueError("ORACLE attachment requires the true genre label")
        members = graph.genre_members(true_label.index)
        return [graph.node_ids[int(i)] for i in members]

    if mode is AttachmentMode.FEATURE_KNN:
        if k < 1:
            raise ValueError(f"FEATURE_KNN needs k >= 1, got {k}")
        if train_features is None:
            raise ValueError("FEATURE_KNN attachment requires train_features")
        feats = np.asarray(train_features, dtype=np.float64)
        if feats.shape[0] != graph.n_nodes:
            raise ValueError(
                f"train_features has {feats.shape[0]} rows for {graph.n_nodes} nodes"
            )
        query = np.asarray(feature, dtype=np.float64).ravel()
        dists = np.sqrt(((feats - query) ** 2).sum(axis=1))
        k_eff = min(k, graph.n_nodes)
        # stable order: distance first, node index breaks ties
        order = np.lexsort((np.arange(graph.n_nodes), dists))[:k_eff]
        return [graph.node_ids[int(i)] for i in sorted(order)]

    raise ValueError(f"unknown attachment mode {mode!r}")


def extended_adjacency_row(
    graph: GenreGraph, neighbor_indices: np.ndarray, self_loops: bool
) -> tuple[np.ndarray, float]:
    """Normalized-adjacency row of a new node attached to `neighbor_indices`.

    Degrees are taken in the extended graph: the new node has
    len(neighbors) edges and each chosen neighbor gains one. Returns
    (weight per neighbor, weight on the new node's own feature).
    Empty neighbor sets get all-zero weights.
    """
    n_neighbors = len(neighbor_indices)
    if n_neighbors == 0:
        # degree 1 with a self-loop, degree 0 (all-zero row) without
        return np.empty(0), 1.0 if self_loops else 0.0
    d_new = n_neighbors + (1 if self_loops else 0)
    neighbor_degrees = np.array(
        [graph.degree(int(i)) + 1 + (1 if self_loops else 0) for i in neighbor_indices],
        dtype=np.float64,
    )
    weights = 1.0 / np.sqrt(d_new * neighbor_degrees)
    self_weight = 1.0 / d_new if self_loops else 0.0
    return weights, self_weight
