"""Graph-refined MFCC features for music genre recommendation.

Pipeline: decode audio -> frame-averaged MFCC vectors -> genre-clique
graph -> GCN or GraphSAGE embeddings trained with manual backprop ->
MLP genre classifier -> Euclidean top-10 recommendation scored by the
Γ genre-purity metric.
"""

import os

# OpenBLAS reads this when numpy first loads. On the pipeline's small products its workers cost
# start-up and CPU, and split sums tie trained bytes to the core count. A count set earlier wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
