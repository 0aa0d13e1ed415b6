"""Binary stores for extracted features (GRMF) and model weights (GRMW).

GRMF: magic "GRMF", u32 LE version, u32 LE song count, u32 LE dimension,
then per song a u32-length-prefixed UTF-8 id, a u8 genre index, and
`dimension` little-endian float64 values.

GRMW: magic "GRMW", u32 LE version, u8 variant tag, u32 LE layer count,
then per layer u32 in_dim, u32 out_dim, weights (row-major) and bias as
little-endian float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import GENRE_NAMES
from .nn import EmbeddingModel, LayerParams, Variant

FEATURE_MAGIC = b"GRMF"
WEIGHT_MAGIC = b"GRMW"
STORE_VERSION = 1

_VARIANT_TAGS = {Variant.PLAIN: 0, Variant.GCN: 1, Variant.SAGE: 2}
_TAG_VARIANTS = {tag: variant for variant, tag in _VARIANT_TAGS.items()}


class StoreFormatError(ValueError):
    """File does not parse as the expected store format."""


@dataclass(frozen=True)
class FeatureRecord:
    song_id: str
    genre_index: int
    values: np.ndarray

    def __post_init__(self):
        if not (0 <= self.genre_index < len(GENRE_NAMES)):
            raise ValueError(f"genre index {self.genre_index} out of range")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @property
    def genre_name(self) -> str:
        return GENRE_NAMES[self.genre_index]


class _Reader:
    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise StoreFormatError(f"{self.what}: truncated at byte {self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def f64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)


def write_feature_store(path: str | Path, records: list[FeatureRecord], dimension: int = 30) -> None:
    parts = [FEATURE_MAGIC, struct.pack("<III", STORE_VERSION, len(records), dimension)]
    for rec in records:
        if rec.values.shape != (dimension,):
            raise ValueError(
                f"record {rec.song_id!r} has shape {rec.values.shape}, expected ({dimension},)"
            )
        encoded = rec.song_id.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", rec.genre_index))
        parts.append(rec.values.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_feature_store(path: str | Path) -> list[FeatureRecord]:
    reader = _Reader(Path(path).read_bytes(), what=str(path))
    if reader.take(4) != FEATURE_MAGIC:
        raise StoreFormatError(f"{path}: bad magic, not a feature store")
    version = reader.u32()
    if version != STORE_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}")
    count = reader.u32()
    dimension = reader.u32()
    ids, genres, chunks = [], [], []
    for _ in range(count):
        id_len = reader.u32()
        ids.append(reader.take(id_len).decode("utf-8"))
        genres.append(reader.u8())
        chunks.append(reader.take(8 * dimension))
    if reader.pos != len(reader.data):
        raise StoreFormatError(f"{path}: {len(reader.data) - reader.pos} trailing bytes")
    values = np.frombuffer(b"".join(chunks), dtype="<f8").astype(np.float64)
    values = values.reshape(count, dimension)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise StoreFormatError(f"{path}: song {ids[bad]!r} has a non-finite feature value")
    return [
        FeatureRecord(song_id=song_id, genre_index=genre, values=row)
        for song_id, genre, row in zip(ids, genres, values)
    ]


def _model_layers(model: EmbeddingModel) -> list[LayerParams]:
    if model.variant is Variant.PLAIN:
        return list(model.mlp)
    return [model.graph_layer, model.embed_head, *model.mlp]


def write_model(path: str | Path, model: EmbeddingModel) -> None:
    layers = _model_layers(model)
    parts = [
        WEIGHT_MAGIC,
        struct.pack("<IBI", STORE_VERSION, _VARIANT_TAGS[model.variant], len(layers)),
    ]
    for layer in layers:
        parts.append(struct.pack("<II", layer.in_dim, layer.out_dim))
        parts.append(layer.weight.astype("<f8").tobytes())
        parts.append(layer.bias.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_model(path: str | Path) -> EmbeddingModel:
    reader = _Reader(Path(path).read_bytes(), what=str(path))
    if reader.take(4) != WEIGHT_MAGIC:
        raise StoreFormatError(f"{path}: bad magic, not a weight store")
    version = reader.u32()
    if version != STORE_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}")
    tag = reader.u8()
    if tag not in _TAG_VARIANTS:
        raise StoreFormatError(f"{path}: unknown variant tag {tag}")
    variant = _TAG_VARIANTS[tag]
    layer_count = reader.u32()
    expected = 3 if variant is Variant.PLAIN else 5
    if layer_count != expected:
        raise StoreFormatError(f"{path}: {variant.value} model must have {expected} layers, got {layer_count}")

    layers = []
    for _ in range(layer_count):
        in_dim = reader.u32()
        out_dim = reader.u32()
        weight = reader.f64_array(in_dim * out_dim).reshape(in_dim, out_dim)
        bias = reader.f64_array(out_dim)
        layers.append(LayerParams(weight=weight, bias=bias))
    if reader.pos != len(reader.data):
        raise StoreFormatError(f"{path}: {len(reader.data) - reader.pos} trailing bytes")

    if variant is Variant.PLAIN:
        return EmbeddingModel(variant=variant, graph_layer=None, embed_head=None, mlp=layers)
    return EmbeddingModel(
        variant=variant, graph_layer=layers[0], embed_head=layers[1], mlp=layers[2:]
    )
