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

INPUT_DIM = 30
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
    """Graph layer plus classifier heads for one pipeline variant.

    embed_head is the throwaway linear classifier used only while the graph
    layer is trained; mlp is the three-layer genre classifier.
    """

    variant: Variant
    graph_layer: LayerParams | None
    embed_head: LayerParams | None
    mlp: list[LayerParams]

    def __post_init__(self):
        if self.variant is Variant.PLAIN:
            if self.graph_layer is not None or self.embed_head is not None:
                raise ValueError("PLAIN variant has no graph layer")
            if sum(l.param_count for l in self.mlp) != PLAIN_MLP_PARAM_COUNT:
                raise ValueError(
                    f"PLAIN classifier must have {PLAIN_MLP_PARAM_COUNT} parameters, "
                    f"got {sum(l.param_count for l in self.mlp)}"
                )
        elif self.variant is Variant.GCN:
            if self.graph_layer is None or self.graph_layer.param_count != GCN_GRAPH_PARAM_COUNT:
                raise ValueError(f"GCN graph layer must have {GCN_GRAPH_PARAM_COUNT} parameters")
        elif self.variant is Variant.SAGE:
            if self.graph_layer is None or self.graph_layer.param_count != SAGE_GRAPH_PARAM_COUNT:
                raise ValueError(f"SAGE graph layer must have {SAGE_GRAPH_PARAM_COUNT} parameters")


def build_model(variant: Variant, seed: int) -> EmbeddingModel:
    """Construct a model with fixed architecture and seeded initialization.

    Hidden layers use the uniform init; the final classifying layers
    (embed_head and the last MLP layer) start at zero so the first-epoch
    softmax is uniform over genres.
    """
    rng = np.random.default_rng(seed)
    if variant is Variant.PLAIN:
        graph_layer = None
        embed_head = None
        mlp_in = INPUT_DIM
    else:
        graph_in = INPUT_DIM if variant is Variant.GCN else 2 * INPUT_DIM
        graph_layer = init_layer(graph_in, EMBED_DIM, rng)
        embed_head = init_layer(EMBED_DIM, N_GENRES, rng, zero=True)
        mlp_in = EMBED_DIM
    mlp = [
        init_layer(mlp_in, MLP_HIDDEN[0], rng),
        init_layer(MLP_HIDDEN[0], MLP_HIDDEN[1], rng),
        init_layer(MLP_HIDDEN[1], N_GENRES, rng, zero=True),
    ]
    return EmbeddingModel(variant=variant, graph_layer=graph_layer, embed_head=embed_head, mlp=mlp)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


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
    for g in np.unique(graph.label_indices):
        members = graph.genre_members(g)
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
    hidden = inputs
    for layer in mlp[:-1]:
        hidden = _relu(hidden @ layer.weight + layer.bias)
    return hidden @ mlp[-1].weight + mlp[-1].bias


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
    loss = float(-log_probs[np.arange(n), targets].mean())

    dlogits = probs.copy()
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    return loss, dlogits


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
    pre_acts = []
    activations = [inputs]
    hidden = inputs
    for layer in mlp[:-1]:
        z = hidden @ layer.weight + layer.bias
        pre_acts.append(z)
        hidden = _relu(z)
        activations.append(hidden)
    logits = hidden @ mlp[-1].weight + mlp[-1].bias
    loss, dlogits = softmax_cross_entropy(logits, targets)

    grads: list[np.ndarray] = []
    delta = dlogits
    for i in range(len(mlp) - 1, -1, -1):
        grads.insert(0, delta.sum(axis=0))
        grads.insert(0, activations[i].T @ delta)
        if i > 0:
            delta = (delta @ mlp[i].weight.T) * (pre_acts[i - 1] > 0)
    return loss, grads
