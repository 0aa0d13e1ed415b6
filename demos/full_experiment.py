"""
End-to-end recommendation accuracy experiment
=============================================

Synthesizes a corpus, holds out test songs, trains all three variants,
recommends ten songs per held-out query, and scores the lists with the
gamma metric: the per-genre mean fraction of recommendations that share
the query's genre, averaged over genres, as a percentage.
"""

import numpy as np

from genregraph.graph import build_graph
from genregraph.nn import Variant
from genregraph.recommend import AttachmentMode, ExperimentConfig, run_experiment, render_text_report
from genregraph.synth import SyntheticSpec, synthesize_features
from genregraph.train import TrainConfig, split_train_test, train_pipeline

# 1. 8 genres x 25 songs; a tenth of each genre is held out for queries.
records = synthesize_features(SyntheticSpec(songs_per_genre=25, seed=0))
ids = [r.song_id for r in records]
labels = np.array([r.genre_index for r in records], dtype=np.int64)
features = np.array([r.values for r in records])

# 2. Train each variant once on the training songs of the split that
#    run_experiment reads from the models' seed and test fraction, as the
#    `train` verb does. Both attachments below score these same models.
train_idx, _ = split_train_test(labels, seed=0)
graph = build_graph(labels[train_idx], node_ids=[ids[i] for i in train_idx])
models = [
    train_pipeline(graph, features[train_idx], labels[train_idx], TrainConfig(variant=v, seed=0))[0]
    for v in (Variant.PLAIN, Variant.SAGE, Variant.GCN)
]

# 3. Oracle attachment: a held-out song joins the graph through its true
#    genre clique before its embedding is read out. This is the upper
#    bound that gives graph variants their near-perfect scores.
oracle = run_experiment(ids, labels, features, models)
print(render_text_report(oracle))

# 4. Label-free attachment: the same song instead connects to its ten
#    nearest training songs in feature space. No genre label is used at
#    query time, so this is the honest inductive number.
knn_cfg = ExperimentConfig(attachment=AttachmentMode.FEATURE_KNN)
knn = run_experiment(ids, labels, features, models, knn_cfg)
print(render_text_report(knn))

# 5. Side by side: the oracle gap is the price of not knowing the label.
print("average gamma, oracle vs feature-knn attachment:")
for variant in ("plain", "sage", "gcn"):
    a = oracle[variant].gamma_average
    b = knn[variant].gamma_average
    print(f"  {variant:>5}: {a:6.2f} vs {b:6.2f}")
