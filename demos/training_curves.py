"""
Two-stage training, three embedding variants
============================================

Trains the plain MLP, GraphSAGE, and GCN pipelines on a small synthetic
set and prints their loss curves side by side. Every stage starts at
ln 8 because output layers begin at zero: eight genres, uniform softmax.
"""

import numpy as np

from genregraph.graph import build_graph
from genregraph.nn import Variant
from genregraph.synth import SyntheticSpec, synthesize_features
from genregraph.train import TrainConfig, train_pipeline

# 1. A compact corpus: 8 genres x 12 songs, features straight from audio.
records = synthesize_features(SyntheticSpec(songs_per_genre=12, seed=1))
labels = np.array([r.genre_index for r in records], dtype=np.int64)
features = np.array([r.values for r in records])
graph = build_graph(labels)
print(f"corpus: {len(records)} songs, {features.shape[1]} features each")
print(f"uniform-softmax baseline: ln 8 = {np.log(8.0):.6f}\n")

# 2. Train each variant with the same seed and default hyperparameters
#    (50 epochs per stage, Adam, lr 0.01 then 0.001).
curves = {}
for variant in (Variant.PLAIN, Variant.SAGE, Variant.GCN):
    _, stage_curves = train_pipeline(
        graph, features, labels, TrainConfig(seed=0, variant=variant)
    )
    curves[variant.value] = stage_curves

# 3. The embedding stage exists only for the graph variants.
print("embedding stage (graph layer + linear head):")
print(f"{'epoch':>6} {'sage':>10} {'gcn':>10}")
for epoch in (0, 1, 5, 10, 25, 49):
    row = [curves[v]["embedding"].train_losses[epoch] for v in ("sage", "gcn")]
    print(f"{epoch:>6} {row[0]:>10.6f} {row[1]:>10.6f}")

# 4. The classifier stage runs for all three, on frozen inputs: raw
#    features for plain, learned embeddings for the graph variants.
print("\nclassifier stage (128-32-8 MLP):")
print(f"{'epoch':>6} {'plain':>10} {'sage':>10} {'gcn':>10}")
for epoch in (0, 1, 5, 10, 25, 49):
    row = [curves[v]["classifier"].train_losses[epoch] for v in ("plain", "sage", "gcn")]
    print(f"{epoch:>6} {row[0]:>10.6f} {row[1]:>10.6f} {row[2]:>10.6f}")

final = {v: curves[v]["classifier"].train_losses[-1] for v in curves}
best = min(final, key=final.get)
print(f"\nlowest final classifier loss: {best} ({final[best]:.6f})")
