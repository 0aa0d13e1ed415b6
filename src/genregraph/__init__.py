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

from .audio import (
    AudioClip,
    ClipTooShortError,
    EmptyWavError,
    MalformedWavError,
    UnsupportedWavError,
    WavDecodeError,
    decode_wav,
    derive_seed,
    encode_wav,
    random_window,
    resample,
)
from .dataset import DatasetManifest, ManifestEntry, ManifestError
from .graph import (
    GENRE_NAMES,
    AttachmentMode,
    GenreGraph,
    GenreLabel,
    IsolatedNodeError,
    NormalizedAdjacency,
    UnknownNodeError,
    attach_unseen,
    build_graph,
    extended_adjacency_row,
    normalize,
)
from .mfcc import (
    MfccConfig,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    power_spectrogram,
    wav_mfcc,
)
from .nn import (
    EMBED_DIM,
    INPUT_DIM,
    N_GENRES,
    AdamState,
    EmbeddingModel,
    LayerParams,
    Variant,
    adam_step,
    build_model,
    mlp_forward,
    softmax_cross_entropy,
)
from .recommend import (
    Catalog,
    EvalReport,
    ExperimentConfig,
    RecommendationList,
    gamma,
    recommend,
    render_text_report,
    reports_to_json,
    run_experiment,
)
from .stores import (
    FeatureRecord,
    FeatureTable,
    StoreFormatError,
    read_feature_store,
    read_model,
    write_feature_store,
    write_model,
)
from .synth import (
    DEFAULT_RECIPES,
    SyntheticSpec,
    TimbreRecipe,
    generate_clip,
    generate_dataset,
    synthesize_features,
)
from .train import (
    LossCurve,
    TrainConfig,
    TrainingDivergedError,
    compute_embeddings,
    infer_embedding,
    split_train_test,
    train_classifier,
    train_embeddings,
    train_pipeline,
)

__version__ = "0.1.0"
