"""
Why clique convolution collapses a genre onto one point
=======================================================

Builds the genre-clique graph, prints the normalized adjacency weights,
and measures how a single GCN layer shrinks within-clique distances.
"""

import numpy as np

from genregraph.graph import GENRE_NAMES, build_graph, normalize
from genregraph.nn import embedding_forward, init_layer

# 1. Sixteen songs, two genres, no cross-genre edges anywhere.
genres = [GENRE_NAMES.index("Rock")] * 10 + [GENRE_NAMES.index("Folk")] * 6
graph = build_graph(genres, node_ids=[f"song_{i:02d}" for i in range(16)])
sizes = np.bincount(graph.label_indices)
print(f"graph: {graph.n_nodes} nodes, {(sizes * (sizes - 1) // 2).sum()} edges "
      f"(10-clique has 45, 6-clique has 15)")

# 2. Inside a clique of size n every neighbor weight is 1/(n-1); there is
#    no self edge, so a node's own features drop out entirely. The
#    adjacency is never stored as a matrix (each row of A X is a per-genre
#    sum), so the dense weights are read off as A times the identity.
norm_adj = normalize(graph, add_self_loops=False)
dense = norm_adj.apply(np.eye(graph.n_nodes))
print(f"row 0 weights: self {dense[0, 0]:.4f}, "
      f"clique-mate {dense[0, 1]:.4f} (expect 1/9 = {1 / 9:.4f})")
print(f"cross-genre weight: {dense[0, 12]:.4f}")

# 3. Push random features through one untrained layer. Rows of the same
#    clique land almost on top of each other; the contraction factor is
#    bounded by the layer's spectral norm over (n - 1).
rng = np.random.default_rng(3)
feats = rng.normal(size=(16, 30))
layer = init_layer(30, 60, rng)
hidden = embedding_forward(norm_adj.apply(feats), layer)

def spread(rows):
    diffs = rows[:, None, :] - rows[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())

for name, idx in [("Rock", slice(0, 10)), ("Folk", slice(10, 16))]:
    n = idx.stop - idx.start
    bound = np.linalg.norm(layer.weight, 2) / (n - 1)
    print(f"{name}: input spread {spread(feats[idx]):.3f} -> "
          f"output spread {spread(hidden[idx]):.3f} "
          f"(guaranteed factor <= {bound:.3f})")

# 4. Across genres nothing is averaged, so the gap survives.
gap = np.sqrt(((hidden[:10].mean(axis=0) - hidden[10:].mean(axis=0)) ** 2).sum())
print(f"between-genre centroid distance after one layer: {gap:.3f}")

# Self-loops put weight 1/n on the node itself; same collapse, softer.
with_loops = normalize(graph, add_self_loops=True).apply(np.eye(graph.n_nodes))
print(f"with self-loops, row 0: self {with_loops[0, 0]:.4f}, "
      f"clique-mate {with_loops[0, 1]:.4f} (both 1/10)")
