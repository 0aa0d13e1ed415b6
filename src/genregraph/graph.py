"""Song-similarity graph: a union of genre cliques.

Two songs are connected exactly when they share a genre, so the graph is a
disjoint union of one clique per genre. A song's genre is its index into
GENRE_NAMES, and adjacency is kept as per-genre member lists.
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
    """One of the eight canonical genres, index 0..7; converts to its index."""

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

    def __index__(self) -> int:
        return self.index


# the eight labels, built once
_LABELS = tuple(GenreLabel(index=i, name=name) for i, name in enumerate(GENRE_NAMES))


def genre_cliques(genres: np.ndarray) -> list[np.ndarray]:
    """Each present genre's ascending member indices, in ascending genre order: read-only
    views of one stable argsort, cut where the sorted column changes (by a comparison, which
    cannot wrap as an int64 difference can; np.unique would import numpy.ma)."""
    order = np.argsort(genres, kind="stable")
    order.flags.writeable = False
    ordered = genres[order]
    return np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1) if order.size else []


class GenreGraph:
    """Union-of-cliques graph over songs, each given by its genre index (kept as a read-only copy)."""

    def __init__(self, node_ids: Sequence[str], genres: Sequence[int]):
        genres = np.array(genres, dtype=np.int64)
        genres.flags.writeable = False
        if len(node_ids) == 0:
            raise ValueError("graph needs at least one song")
        if genres.shape != (len(node_ids),):
            raise ValueError(f"{len(node_ids)} ids for {genres.size} genres")
        outside = genres[(genres < 0) | (genres >= len(GENRE_NAMES))]
        if outside.size:
            raise ValueError(f"genre index {outside[0]} out of range 0..{len(GENRE_NAMES) - 1}")
        self.node_ids = list(node_ids)
        self.label_indices = genres
        # id -> node index; a Catalog of these ids may share it
        self.node_index = {node_id: i for i, node_id in enumerate(self.node_ids)}
        if len(self.node_index) != len(self.node_ids):
            raise ValueError("node ids must be unique")
        # songs per genre index, and the present genres' member indices
        self.counts = np.bincount(genres, minlength=len(GENRE_NAMES))
        self.cliques = genre_cliques(genres)
        self._members = dict(zip(np.flatnonzero(self.counts).tolist(), self.cliques))

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.node_index

    def index_of(self, node_id: str) -> int:
        try:
            return self.node_index[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def genre_members(self, genre_index: int) -> np.ndarray:
        """Sorted node indices of one genre, read-only (empty if absent)."""
        return self._members.get(int(genre_index), np.empty(0, dtype=np.int64))

    @property
    def degrees(self) -> np.ndarray:
        return self.counts[self.label_indices] - 1


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetrically degree-normalized adjacency D^{-1/2} A D^{-1/2}.

    The graph is a union of cliques, so the matrix is kept as the graph
    itself. Inside a clique of size n every entry is 1/(n-1) off the
    diagonal without self-loops, or 1/n everywhere with them.
    """

    graph: GenreGraph
    self_loops: bool

    def __post_init__(self):
        graph = self.graph
        for members in graph.cliques:
            if len(members) == 1 and not self.self_loops:  # a degree-zero node
                node = int(members[0])
                raise IsolatedNodeError(graph.node_ids[node], GENRE_NAMES[graph.label_indices[node]])

    def apply(self, features: np.ndarray) -> np.ndarray:
        """Left-multiply node features by the normalized adjacency.

        With S the sum of a clique's feature rows, row i becomes
        (S - x_i)/(n-1), or S/n with self-loops: O(N*d), no n x n block.
        """
        features = np.asarray(features, dtype=np.float64)
        graph = self.graph
        if features.shape[0] != graph.n_nodes:
            raise ValueError(
                f"adjacency is {graph.n_nodes} nodes but features have {features.shape[0]} rows"
            )
        sums = np.zeros((len(graph.counts), features.shape[1]))
        sums[graph.counts > 0] = [features[members].sum(axis=0) for members in graph.cliques]
        # (S[g] - X) / deg, or S[g] / (deg + 1) with self-loops, in place in one n x d array
        block = sums[graph.label_indices]
        if not self.self_loops:
            block -= features
        block /= (graph.degrees + self.self_loops)[:, None]
        return block


def build_graph(genres: Sequence[int], node_ids: Sequence[str] | None = None) -> GenreGraph:
    """Build the union-of-cliques graph from per-song genre indices."""
    if node_ids is None:
        node_ids = [f"song_{i:06d}" for i in range(len(genres))]
    return GenreGraph(node_ids=node_ids, genres=genres)


def normalize(graph: GenreGraph, add_self_loops: bool = False) -> NormalizedAdjacency:
    """Normalized adjacency of the graph, optionally after adding self-loops."""
    return NormalizedAdjacency(graph=graph, self_loops=add_self_loops)


# rows per vectorized pass: bounds the temporaries of draw_neighbor_positions
_BLOCK_ROWS = 4096


def _bounds(degrees: np.ndarray, k: int) -> np.ndarray:
    """Per row, the 2k-1 exclusive bounds numpy's choice draws below: j + 1
    for Floyd's j = deg-k..deg-1, then i + 1 for the shuffle's i = k-1..1."""
    bounds = np.empty((len(degrees), 2 * k - 1), dtype=np.int64)
    bounds[:, :k] = degrees[:, None] + np.arange(1 - k, 1)
    bounds[:, k:] = np.arange(k, 1, -1)
    return bounds


def _floyd_rows(draws: np.ndarray, degrees: np.ndarray, k: int) -> np.ndarray:
    """Floyd's algorithm and the shuffle after it, for many rows at once,
    from each row's 2k-1 bounded draws. The picks are kept column by
    column (Fortran order), as the loops below read and write them."""
    picks = np.empty((len(degrees), k), dtype=np.int64, order="F")
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
    each row in order on one rng = default_rng(seed). A row takes 2k-1
    bounded draws: k for Floyd's algorithm, k-1 for the shuffle after it.
    Rows run in blocks, vectorized, on the values one rng.integers call
    draws below their bounds; integers draws each value, redraws included,
    as choice does. A row for which numpy takes its tail shuffle is drawn
    by rng.choice itself.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if len(degrees) and degrees.min() <= k:
        raise ValueError(f"every degree must exceed k = {k}")
    rng = np.random.default_rng(seed)
    tail = _tail_shuffled(degrees, k)
    out = np.empty((len(degrees), k), dtype=np.int64)
    row = 0
    while row < len(degrees):
        if tail[row]:
            out[row] = rng.choice(int(degrees[row]), k, replace=False)
            row += 1
            continue
        # a block ends before the next tail row
        deg = degrees[row : row + _BLOCK_ROWS]
        deg = deg[: np.append(tail[row : row + len(deg)], True).argmax()]
        out[row : row + len(deg)] = _floyd_rows(rng.integers(_bounds(deg, k)), deg, k)
        row += len(deg)
    return out


# S = max ‖v‖² + ‖q‖² past which nearest's candidate pass could overflow
_NORM_LIMIT = np.finfo(np.float64).max / 4


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Read-only squared row norms for nearest; one that overflows is inf, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", vectors, vectors)
    norms.flags.writeable = False
    return norms


def nearest(
    query: np.ndarray, vectors: np.ndarray, ids: Sequence[str], k: int, exclude: int = -1,
    norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The k rows of `vectors` nearest the query in Euclidean distance.

    Returns their row indices, nearest first, and their distances
    sqrt(((row - query) ** 2).sum()). Exact ties break by ascending row
    index, and row `exclude` is left out. A distance that overflows (or is
    NaN) raises ValueError naming the id of its row.

    Only candidates get that distance: the rows whose ‖v‖² − 2v·q, from the
    squared row norms `norms` (row_norms(vectors) if not given), is within
    (d + 8)(2⁻⁵⁰S + 2⁻¹⁰⁷⁰) of the (k + 1)-th smallest; d is the dimension
    and S = max ‖v‖² + ‖q‖². It and the exact squared distance each err by
    under 2(d + 2)(2⁻⁵³S + 2⁻¹⁰⁷⁴), and a rounded sqrt ties squares under
    2⁻⁵⁰S apart, so the candidates hold a full sort's first k + 1. They are
    every row when k + 1 reaches the row count or S is not below
    _NORM_LIMIT (NaN and inf included).
    """
    candidates = np.arange(len(vectors))
    with np.errstate(over="ignore", invalid="ignore"):
        if k + 1 < len(vectors):
            norms = row_norms(vectors) if norms is None else norms
            scale = norms.max() + np.einsum("j,j", query, query)
            if scale < _NORM_LIMIT:
                approx = np.einsum("ij,j->i", vectors, query)
                approx *= -2.0
                approx += norms
                margin = (vectors.shape[1] + 8) * (2.0**-50 * scale + 2.0**-1070)
                candidates = np.flatnonzero(approx <= np.partition(approx, k)[k] + margin)
        rows = vectors if len(candidates) == len(vectors) else vectors[candidates]
        distances = np.sqrt(((rows - query) ** 2).sum(axis=1))
    finite = np.isfinite(distances)
    if not finite.all():
        song_id = ids[int(candidates[np.argmin(finite)])]
        raise ValueError(f"distance from the query to {song_id!r} is not finite")
    # the candidates ascend, so a stable sort breaks exact ties by row index
    order = np.argsort(distances, kind="stable")[: k + 1]
    order = order[candidates[order] != exclude][:k]
    return candidates[order], distances[order]


def attach_unseen(
    graph: GenreGraph,
    feature: np.ndarray,
    mode: AttachmentMode,
    true_label: int | None = None,
    k: int = 10,
    train_features: np.ndarray | None = None,
    train_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Sorted node indices of the neighbor set of a song not in the graph.

    ORACLE places it by its true genre index and returns every node of that
    genre (ValueError if the graph has none). FEATURE_KNN places it by
    feature similarity and returns the k training nodes nearest in Euclidean
    distance (`train_features` must hold one row per graph node, aligned
    with graph order; `train_norms`, if given, their row_norms).
    """
    if mode is AttachmentMode.ORACLE:
        if true_label is None:
            raise ValueError("ORACLE attachment requires the true genre label")
        members = graph.genre_members(true_label)
        if not len(members):
            genre = GenreLabel.from_index(int(true_label)).name
            raise ValueError(f"no {genre} song in the graph to attach to")
        return members

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
        return np.sort(nearest(query, feats, graph.node_ids, k, norms=train_norms)[0])

    raise ValueError(f"unknown attachment mode {mode!r}")


def extended_adjacency_row(n_neighbors: int, self_loops: bool) -> tuple[np.ndarray, float]:
    """GCN row of a new node attached to n_neighbors nodes: their mean.

    A catalog row is the mean of its clique's other rows, or of all its
    clique's rows with self-loops. The new node's row likewise gives each
    neighbor 1/k, or each neighbor and the node itself 1/(k+1) with
    self-loops. Returns (weight per neighbor, weight on the node's own
    feature).
    """
    weight = 1.0 / (n_neighbors + int(self_loops))
    return np.full(n_neighbors, weight), weight if self_loops else 0.0
