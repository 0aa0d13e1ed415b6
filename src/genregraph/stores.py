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
from typing import Iterator, Sequence

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


def write_feature_store(
    path: str | Path, records: Sequence[FeatureRecord], dimension: int = 30
) -> None:
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


class FeatureTable(Sequence[FeatureRecord]):
    """Read-only records of a feature store, kept as three columns.

    `ids` holds the song ids, `genre_indices` their genre indices (int64)
    and `values` one float64 row per song. A FeatureRecord is built only
    when one is indexed or iterated; callers that want arrays read the
    columns.
    """

    def __init__(self, ids: list[str], genre_indices: np.ndarray, values: np.ndarray):
        self.ids = ids
        self.genre_indices = genre_indices
        self.values = values

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> FeatureRecord:
        i = range(len(self.ids))[index]
        return FeatureRecord(
            song_id=self.ids[i], genre_index=int(self.genre_indices[i]), values=self.values[i]
        )

    def __iter__(self) -> Iterator[FeatureRecord]:
        return (self[i] for i in range(len(self.ids)))


def read_feature_store(path: str | Path) -> FeatureTable:
    data = Path(path).read_bytes()
    reader = _Reader(data, what=str(path))
    if reader.take(4) != FEATURE_MAGIC:
        raise StoreFormatError(f"{path}: bad magic, not a feature store")
    version = reader.u32()
    if version != STORE_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}")
    count = reader.u32()
    dimension = reader.u32()

    # one walk over the length prefixes; the values stay in the buffer
    view = memoryview(data)
    row_bytes = 8 * dimension
    ids, genres, chunks = [], [], []
    pos = reader.pos
    for i in range(count):
        start = pos + 4
        if start <= len(data):
            end = start + struct.unpack_from("<I", data, pos)[0]
            pos = end + 1 + row_bytes
        if start > len(data) or pos > len(data):
            raise StoreFormatError(
                f"{path}: truncated in record {i} of {count} (file ends at byte {len(data)})"
            )
        try:
            ids.append(data[start:end].decode("utf-8"))
        except UnicodeDecodeError:
            raise StoreFormatError(f"{path}: song id at byte {start} is not UTF-8") from None
        genres.append(data[end])
        chunks.append(view[end + 1 : pos])
    if pos != len(data):
        raise StoreFormatError(f"{path}: {len(data) - pos} trailing bytes")

    genres = np.array(genres, dtype=np.int64)
    out_of_range = np.flatnonzero(genres >= len(GENRE_NAMES))
    if len(out_of_range):
        bad = int(out_of_range[0])
        raise StoreFormatError(
            f"{path}: song {ids[bad]!r} has genre index {genres[bad]} out of range "
            f"0..{len(GENRE_NAMES) - 1}"
        )
    values = np.frombuffer(b"".join(chunks), dtype="<f8").astype(np.float64)
    values = values.reshape(count, dimension)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise StoreFormatError(f"{path}: song {ids[bad]!r} has a non-finite feature value")
    return FeatureTable(ids, genres, values)


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
    for i in range(layer_count):
        in_dim = reader.u32()
        out_dim = reader.u32()
        weight = reader.f64_array(in_dim * out_dim).reshape(in_dim, out_dim)
        bias = reader.f64_array(out_dim)
        if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
            raise StoreFormatError(f"{path}: layer {i} of {layer_count} has a non-finite weight")
        layers.append(LayerParams(weight=weight, bias=bias))
    if reader.pos != len(reader.data):
        raise StoreFormatError(f"{path}: {len(reader.data) - reader.pos} trailing bytes")

    if variant is Variant.PLAIN:
        return EmbeddingModel(variant=variant, graph_layer=None, embed_head=None, mlp=layers)
    return EmbeddingModel(
        variant=variant, graph_layer=layers[0], embed_head=layers[1], mlp=layers[2:]
    )
