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

    def __init__(self, node_id: str, genre: str):
        self.node_id = node_id
        self.genre = genre
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

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.label_indices)[self.label_indices] - 1


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
            node = int(members[0])
            raise IsolatedNodeError(graph.node_ids[node], graph.labels[node].name)
    return NormalizedAdjacency(cliques=cliques, n_nodes=graph.n_nodes, self_loops=add_self_loops)


def draw_neighbors(neighbors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of min(k, len(neighbors)) distinct entries of `neighbors`.

    With at most k neighbors every one is kept, in order, and the
    generator is not advanced.
    """
    if len(neighbors) > k:
        return rng.choice(neighbors, size=k, replace=False)
    return neighbors


# rows per vectorized pass: bounds the temporaries of draw_neighbor_positions
_BLOCK_ROWS = 4096


def _bounds(degrees: np.ndarray, k: int) -> np.ndarray:
    """Per row, the 2k-1 bounds numpy's choice draws below: j + 1 for
    Floyd's j = deg-k..deg-1, then i + 1 for the shuffle's i = k-1..1."""
    bounds = np.empty((len(degrees), 2 * k - 1), dtype=np.uint64)
    bounds[:, :k] = degrees[:, None] + np.arange(1 - k, 1)
    bounds[:, k:] = np.arange(k, 1, -1)
    return bounds


def _rejected(scaled: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Where Lemire's method, as numpy's buffered_bounded_lemire_uint32
    runs it, throws the value u away: u * bound mod 2**32 < 2**32 mod bound."""
    return (scaled & 0xFFFFFFFF) < (1 << 32) % bounds


def _floyd_rows(draws: np.ndarray, degrees: np.ndarray, k: int) -> np.ndarray:
    """Floyd's algorithm and the shuffle after it, for many rows at once,
    from each row's 2k-1 bounded draws."""
    picks = np.empty((len(degrees), k), dtype=np.int64)
    for c in range(k):
        val = draws[:, c]
        seen = (picks[:, :c] == val[:, None]).any(axis=1)
        picks[:, c] = np.where(seen, degrees - k + c, val)
    rows = np.arange(len(degrees))
    for c, i in enumerate(range(k - 1, 0, -1)):
        j = draws[:, k + c]
        swapped = picks[rows, j]
        picks[rows, j] = picks[:, i]
        picks[:, i] = swapped
    return picks


def _tail_shuffled(degree, k: int):
    """Where numpy's choice shuffles the tail of 0..degree-1 in place of
    running Floyd's algorithm (degree an int or an array)."""
    return (degree > 10000) & (k > degree // 50)


def draw_neighbor_positions(degrees: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k distinct positions in 0..degree-1 per row, every degree above k.

    Equal, bit for bit, to calling rng.choice(degree, k, replace=False) for
    each row in order on one rng = default_rng(seed). numpy draws each
    bounded value by Lemire's method from one 32-bit output of the
    generator, and a row takes 2k-1 of them: k for Floyd's algorithm, k-1
    for the shuffle after it. Rows run in blocks, vectorized, on those
    outputs read with rng.integers. A row with a draw numpy rejects and
    redoes, or for which numpy takes its tail shuffle, is drawn by
    rng.choice itself, after the block is read again up to that row.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if len(degrees) and degrees.min() <= k:
        raise ValueError(f"every degree must exceed k = {k}")
    rng = np.random.default_rng(seed)
    tail = _tail_shuffled(degrees, k)
    out = np.empty((len(degrees), k), dtype=np.int64)
    row = 0
    while row < len(degrees):
        if not tail[row]:
            # a block ends before the next tail row
            deg = degrees[row : row + _BLOCK_ROWS]
            deg = deg[: np.append(tail[row : row + len(deg)], True).argmax()]
            bounds = _bounds(deg, k)
            state = rng.bit_generator.state
            values = rng.integers(1 << 32, size=bounds.size, dtype=np.uint32)
            scaled = values.reshape(bounds.shape) * bounds
            rejected = _rejected(scaled, bounds).any(axis=1)
            n_fast = int(rejected.argmax()) if rejected.any() else len(deg)
            draws = (scaled[:n_fast] >> 32).astype(np.int64)
            out[row : row + n_fast] = _floyd_rows(draws, deg[:n_fast], k)
            row += n_fast
            if n_fast == len(deg):
                continue
            # rewind to the end of the rows kept, where choice takes over
            rng.bit_generator.state = state
            rng.integers(1 << 32, size=n_fast * bounds.shape[1], dtype=np.uint32)
        out[row] = rng.choice(int(degrees[row]), k, replace=False)
        row += 1
    return out


def nearest(
    query: np.ndarray, vectors: np.ndarray, ids: Sequence[str], k: int, exclude: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """The k rows of `vectors` nearest the query in Euclidean distance.

    Returns their row indices, nearest first, and their distances. Exact
    ties break by ascending row index, and row `exclude` is left out. A
    distance that overflows (or is NaN) raises ValueError naming the id of
    its row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        distances = np.sqrt(((vectors - query) ** 2).sum(axis=1))
    finite = np.isfinite(distances)
    if not finite.all():
        song_id = ids[int(np.argmin(finite))]
        raise ValueError(f"distance from the query to {song_id!r} is not finite")
    order = np.argsort(distances, kind="stable")[: k + 1]
    order = order[order != exclude][:k]
    return order, distances[order]


def attach_unseen(
    graph: GenreGraph,
    feature: np.ndarray,
    mode: AttachmentMode,
    true_label: GenreLabel | None = None,
    k: int = 10,
    train_features: np.ndarray | None = None,
) -> np.ndarray:
    """Sorted node indices of the neighbor set of a song not in the graph.

    ORACLE places it by its true genre label and returns every node of that
    genre. FEATURE_KNN places it by feature similarity and returns the k
    training nodes nearest in Euclidean distance (`train_features` must hold
    one row per graph node, aligned with graph order).
    """
    if mode is AttachmentMode.ORACLE:
        if true_label is None:
            raise ValueError("ORACLE attachment requires the true genre label")
        return graph.genre_members(true_label.index)

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
        return np.sort(nearest(query, feats, graph.node_ids, k)[0])

    raise ValueError(f"unknown attachment mode {mode!r}")


def extended_adjacency_row(n_neighbors: int, self_loops: bool) -> tuple[np.ndarray, float]:
    """GCN row of a new node attached to n_neighbors nodes: their mean.

    A catalog row is the mean of its clique's other rows, or of all its
    clique's rows with self-loops. The new node's row likewise gives each
    neighbor 1/k, or each neighbor and the node itself 1/(k+1) with
    self-loops. Returns (weight per neighbor, weight on the node's own
    feature); no neighbors and no self-loop give an all-zero row.
    """
    d = n_neighbors + int(self_loops)
    weight = 1.0 / d if d else 0.0
    return np.full(n_neighbors, weight), weight if self_loops else 0.0
