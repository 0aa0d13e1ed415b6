"""Dense layers, the graph layer, softmax cross-entropy, manual
backpropagation, and Adam.

Everything is plain numpy with explicit gradients; no autodiff. The graph
layer sees one input block per node set: A_hat X for GCN, or each node's
feature beside its sampled-neighbor mean for GraphSAGE. Over a fixed block
the graph layer under its linear head is a two-layer dense stack, with the
same backward pass as the classifier. Forward passes are pure given
(inputs, params, seed) and repeat bit-identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import GenreGraph, draw_neighbor_positions
from .mfcc import N_MFCC

INPUT_DIM = N_MFCC
EMBED_DIM = 60
MLP_HIDDEN = (128, 32)
N_GENRES = 8

GCN_GRAPH_PARAM_COUNT = 1860
SAGE_GRAPH_PARAM_COUNT = 3660
PLAIN_MLP_PARAM_COUNT = 8360

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Variant(enum.Enum):
    PLAIN = "plain"
    GCN = "gcn"
    SAGE = "sage"


# each variant's layers as (in_dim, out_dim): the graph layer and its embed
# head (None for PLAIN), then the three-layer genre classifier
_CLASSIFIER = ((MLP_HIDDEN[0], MLP_HIDDEN[1]), (MLP_HIDDEN[1], N_GENRES))
ARCHITECTURE = {
    Variant.PLAIN: (None, None, (INPUT_DIM, MLP_HIDDEN[0]), *_CLASSIFIER),
    Variant.GCN: ((INPUT_DIM, EMBED_DIM), (EMBED_DIM, N_GENRES), (EMBED_DIM, MLP_HIDDEN[0]), *_CLASSIFIER),
    Variant.SAGE: ((2 * INPUT_DIM, EMBED_DIM), (EMBED_DIM, N_GENRES), (EMBED_DIM, MLP_HIDDEN[0]), *_CLASSIFIER),
}


@dataclass(frozen=True)
class TrainConfig:
    """The settings a model is trained under, which its weight file records."""

    embed_lr: float = 0.01
    mlp_lr: float = 0.001
    epochs: int = 50
    seed: int = 0
    variant: Variant = Variant.GCN
    sage_sample_k: int = 10
    self_loops: bool = False
    test_fraction: float = 0.1

    def __post_init__(self):
        if not (0 < self.embed_lr < np.inf and 0 < self.mlp_lr < np.inf):
            raise ValueError("learning rates must be positive and finite")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in 0..2**64-1, got {self.seed}")
        if not 1 <= self.epochs < 2**32:
            raise ValueError(f"epochs must be in 1..2**32-1, got {self.epochs}")
        if not 1 <= self.sage_sample_k < 2**32:
            raise ValueError(f"sage_sample_k must be in 1..2**32-1, got {self.sage_sample_k}")
        if not 0 < self.test_fraction < 1:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.self_loops not in (False, True):  # a weight file holds it in one byte
            raise ValueError(f"self_loops must be 0 or 1, got {self.self_loops}")
        object.__setattr__(self, "self_loops", bool(self.self_loops))


@dataclass
class LayerParams:
    """One affine layer: weight (in_dim x out_dim) plus bias (out_dim)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weight must be 2-D and bias 1-D")
        if self.weight.shape[1] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match out_dim {self.weight.shape[1]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def param_count(self) -> int:
        return self.weight.size + self.bias.size

    def arrays(self) -> list[np.ndarray]:
        return [self.weight, self.bias]


def init_layer(in_dim: int, out_dim: int, rng: np.random.Generator, zero: bool = False) -> LayerParams:
    """Uniform(-sqrt(1/in_dim), +sqrt(1/in_dim)) init, or all zeros for output heads."""
    if zero:
        weight = np.zeros((in_dim, out_dim))
    else:
        bound = np.sqrt(1.0 / in_dim)
        weight = rng.uniform(-bound, bound, size=(in_dim, out_dim))
    return LayerParams(weight=weight, bias=np.zeros(out_dim))


@dataclass
class EmbeddingModel:
    """Graph layer plus classifier heads for the variant cfg.variant, trained under cfg.

    embed_head is the throwaway linear classifier used only while the graph
    layer is trained; mlp is the three-layer genre classifier.
    """

    cfg: TrainConfig
    graph_layer: LayerParams | None
    embed_head: LayerParams | None
    mlp: list[LayerParams]

    @property
    def variant(self) -> Variant:
        return self.cfg.variant

    def __post_init__(self):
        shapes = tuple(
            layer and (layer.in_dim, layer.out_dim) for layer in (self.graph_layer, self.embed_head, *self.mlp)
        )
        expected = ARCHITECTURE[self.variant]
        if shapes != expected:
            shown = [", ".join(f"{i}x{o}" for i, o in filter(None, s)) for s in (expected, shapes)]
            raise ValueError(f"{self.variant.value} layers must be {shown[0]}, not {shown[1]}")


def build_model(variant: Variant, seed: int) -> EmbeddingModel:
    """Construct a model with fixed architecture and seeded initialization.

    Hidden layers use the uniform init; the final classifying layers
    (embed_head and the last MLP layer) start at zero so the first-epoch
    softmax is uniform over genres.
    """
    rng = np.random.default_rng(seed)
    graph_layer, embed_head, *mlp = (
        shape and init_layer(*shape, rng, zero=shape[1] == N_GENRES) for shape in ARCHITECTURE[variant]
    )
    return EmbeddingModel(TrainConfig(seed=seed, variant=variant), graph_layer, embed_head, mlp)


def _dense_relu(hidden: np.ndarray, layer: LayerParams) -> np.ndarray:
    """ReLU(hidden W + b) in the product's own array, by the same operations."""
    z = hidden @ layer.weight
    z += layer.bias
    return np.maximum(z, 0.0, out=z)


def _check_affine_shapes(features: np.ndarray, layer: LayerParams, name: str) -> None:
    if features.shape[1] != layer.in_dim:
        raise ValueError(
            f"{name}: input has {features.shape[1]} columns but layer expects {layer.in_dim}"
        )


def sampled_neighbor_means(
    graph: GenreGraph, features: np.ndarray, sample_k: int, seed: int
) -> np.ndarray:
    """Per-node mean of sample_k uniformly sampled neighbor feature rows.

    Nodes with no neighbors get a zero row. Nodes are visited in index
    order with a single seeded generator, so the result is deterministic:
    it equals, bit for bit, a per-node loop taking the mean of numpy's
    rng.choice of sample_k neighbors, or of all of them if not more.
    """
    if sample_k < 1:
        raise ValueError(f"sample_k must be >= 1, got {sample_k}")
    features = np.asarray(features, dtype=np.float64)
    if graph.n_nodes != features.shape[0]:
        raise ValueError(
            f"graph has {graph.n_nodes} nodes but features have {features.shape[0]} rows"
        )
    degrees = graph.degrees
    # Drawing positions in 0..deg-1 takes the generator through the same
    # stream as choosing from the neighbor array itself.
    sampled = degrees > sample_k
    positions = draw_neighbor_positions(degrees[sampled], sample_k, seed)
    position_row = np.cumsum(sampled) - 1

    means = np.zeros_like(features)
    for members in graph.cliques:
        n = len(members)
        if n == 1:
            continue
        if n - 1 > sample_k:
            pos = positions[position_row[members]]
        else:
            pos = np.broadcast_to(np.arange(n - 1), (n, n - 1))
        # position p among a member's sorted neighbors is clique slot p,
        # or p + 1 from the member's own slot on
        slots = pos + (pos >= np.arange(n)[:, None])
        # column by column: the sums of features[members[slots]].mean(axis=1)
        # in the same order, without its n x k x d temporary
        total = features[members[slots[:, 0]]]
        for j in range(1, slots.shape[1]):
            total += features[members[slots[:, j]]]
        means[members] = total / slots.shape[1]
    return means


def mlp_forward(inputs: np.ndarray, mlp: list[LayerParams]) -> np.ndarray:
    """Affine layers with ReLU between them, raw logits out."""
    inputs = np.asarray(inputs, dtype=np.float64)
    _check_affine_shapes(inputs, mlp[0], "mlp_forward")
    for layer in mlp[:-1]:
        inputs = _dense_relu(inputs, layer)
    return inputs @ mlp[-1].weight + mlp[-1].bias


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to the logits.

    Uses the max-subtraction trick; dlogits = (softmax - onehot) / n.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    n, n_classes = logits.shape
    if targets.shape != (n,):
        raise ValueError(f"expected {n} targets, got shape {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError(f"class index out of range 0..{n_classes - 1}")

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    log_probs = shifted - np.log(total)
    loss = 0.0 - float(log_probs[np.arange(n), targets].mean())  # never -0.0

    probs[np.arange(n), targets] -= 1.0
    probs /= n
    return loss, probs  # dlogits, in the probabilities' own array


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 0.001

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            lr=lr,
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One in-place Adam update with bias correction."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have matching lengths")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")

    state.t += 1
    bias1 = 1.0 - ADAM_BETA1**state.t
    bias2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    return params, state


def embedding_forward(block: np.ndarray, graph_layer: LayerParams) -> np.ndarray:
    """Graph-layer output rows (the embeddings): ReLU(block W + b), with
    block W taken in row blocks of at most 2**18 multiply-adds, a product
    OpenBLAS runs on the calling thread at any thread count."""
    block = np.asarray(block, dtype=np.float64)
    _check_affine_shapes(block, graph_layer, "embedding_forward")
    out = np.empty((block.shape[0], graph_layer.out_dim))
    rows = max(1, 2**18 // graph_layer.weight.size)
    for start in range(0, block.shape[0], rows):
        np.matmul(block[start : start + rows], graph_layer.weight, out=out[start : start + rows])
    out += graph_layer.bias
    return np.maximum(out, 0.0, out=out)


def embedding_loss_and_grads(
    block: np.ndarray,
    targets: np.ndarray,
    graph_layer: LayerParams,
    head: LayerParams,
) -> tuple[float, list[np.ndarray]]:
    """mlp_loss_and_grads of the stack [graph_layer, head]: [dWg, dbg, dWh, dbh].

    Training calls mlp_loss_and_grads itself; this name stays because
    perfbench/tracer.py wraps it.
    """
    return mlp_loss_and_grads(block, targets, [graph_layer, head])


def mlp_loss_and_grads(
    inputs: np.ndarray, targets: np.ndarray, mlp: list[LayerParams]
) -> tuple[float, list[np.ndarray]]:
    """Loss and exact gradients for a dense stack (ReLU between layers).

    The stack is the three-layer classifier, or the graph layer under its
    linear head; the graph layer's input block does not depend on the
    parameters (a SAGE neighbor sample stays fixed through the backward
    pass). Gradients come back as [dW1, db1, dW2, db2, ...].
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    activations = [inputs]
    for layer in mlp[:-1]:
        activations.append(_dense_relu(activations[-1], layer))
    logits = activations[-1] @ mlp[-1].weight + mlp[-1].bias
    loss, dlogits = softmax_cross_entropy(logits, targets)

    grads: list[np.ndarray] = []
    delta = dlogits
    for i in range(len(mlp) - 1, -1, -1):
        grads.insert(0, delta.sum(axis=0))
        grads.insert(0, activations[i].T @ delta)
        if i > 0:
            # the ReLU mask (activation > 0 iff pre-activation > 0, for every
            # float); delta W^T then goes into the activation's own array
            mask = activations[i] > 0
            delta = np.matmul(delta, mlp[i].weight.T, out=activations[i])
            delta *= mask
    return loss, grads
