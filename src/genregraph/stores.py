"""Binary stores for extracted features (GRMF) and model weights (GRMW).

GRMF: magic "GRMF", u32 LE version (3), u32 LE song count, u32 LE
dimension (N_MFCC, 30, the models' input width; no other is read), the
MfccConfig that made the values (u64 target_sample_rate, f64
window_seconds; every other front-end setting is a constant of the mfcc
module, so these 16 bytes are the whole front end), then three columns:
count x 30 little-endian float64 values (row-major, 8-byte aligned at
byte 32), count u8 genre indices, and count UTF-8 song ids, each
followed by a NUL byte. An id appears once. A version-2 file, without
the MfccConfig, is refused.

GRMW: magic "GRMW", u32 LE version (2), u8 variant tag, u32 LE layer
count, then the settings the model was trained under (u64 seed, u32
epochs, f64 embed_lr, f64 mlp_lr, u32 sage_sample_k, u8 self_loops 0 or
1, f64 test_fraction), then per layer u32 in_dim, u32 out_dim, weights
(row-major) and bias as little-endian float64. The layers are the
variant's nn.ARCHITECTURE, in its order; a file whose layers have other
shapes is refused, and so is a version-1 file, without the settings.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .graph import GENRE_NAMES, row_norms
from .mfcc import N_MFCC, MfccConfig
from .nn import ARCHITECTURE, EmbeddingModel, LayerParams, TrainConfig, Variant

FEATURE_MAGIC = b"GRMF"
WEIGHT_MAGIC = b"GRMW"
FEATURE_VERSION = 3
WEIGHT_VERSION = 2
# the MfccConfig fields a feature file records after its header, and their layout
_FRONT_END = ("target_sample_rate", "window_seconds")
_FRONT_END_LAYOUT = struct.Struct("<Qd")
# the TrainConfig fields a weight file records after its layer count, and their layout
_SETTINGS = ("seed", "epochs", "embed_lr", "mlp_lr", "sage_sample_k", "self_loops", "test_fraction")
_SETTINGS_LAYOUT = struct.Struct("<QIddIBd")

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

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise StoreFormatError(f"{self.what}: truncated at byte {self.pos}")
        chunk = memoryview(self.data)[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)


def write_feature_store(
    path: str | Path, records: Sequence[FeatureRecord], front_end: MfccConfig = MfccConfig()
) -> None:
    """Write the records, each an N_MFCC-wide row."""
    for rec in records:
        if rec.values.shape != (N_MFCC,):
            raise ValueError(f"record {rec.song_id!r} has shape {rec.values.shape}, expected ({N_MFCC},)")
        if "\0" in rec.song_id:
            raise ValueError(f"record {rec.song_id!r} has a NUL in its id")
    ids = "".join(f"{rec.song_id}\0" for rec in records)
    try:
        id_bytes = ids.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate; the NULs before it count the records
        bad = records[ids.count("\0", 0, exc.start)].song_id
        raise ValueError(f"record {bad!r} has an id UTF-8 cannot encode") from None
    if len(set(rec.song_id for rec in records)) < len(records):
        repeated = next(i for i, n in Counter(rec.song_id for rec in records).items() if n > 1)
        raise ValueError(f"record {repeated!r} appears more than once")
    parts = [
        FEATURE_MAGIC,
        struct.pack("<III", FEATURE_VERSION, len(records), N_MFCC),
        _FRONT_END_LAYOUT.pack(*(getattr(front_end, name) for name in _FRONT_END)),
        *(rec.values.astype("<f8").tobytes() for rec in records),
        bytes(rec.genre_index for rec in records),
        id_bytes,
    ]
    Path(path).write_bytes(b"".join(parts))


class FeatureTable(Sequence[FeatureRecord]):
    """Read-only records of a feature store, kept as three columns.

    `ids` holds the song ids, `genre_indices` their genre indices (int64)
    and `values` one float64 row per song, a read-only view of the bytes
    read; `norms`, their read-only squared norms, is computed on first use;
    `front_end` is the MfccConfig that made the values, and must make a query's.
    A FeatureRecord is built only when one is indexed or iterated; callers
    that want arrays read the columns.
    """

    def __init__(self, ids: list[str], genre_indices: np.ndarray, values: np.ndarray, front_end: MfccConfig):
        self.ids = ids
        self.genre_indices = genre_indices
        self.values = values
        self.front_end = front_end

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> FeatureRecord:
        i = range(len(self.ids))[index]
        return FeatureRecord(
            song_id=self.ids[i], genre_index=int(self.genre_indices[i]), values=self.values[i]
        )

    def __iter__(self) -> Iterator[FeatureRecord]:
        return (self[i] for i in range(len(self.ids)))

    @cached_property
    def norms(self) -> np.ndarray:
        return row_norms(self.values)


def read_feature_store(path: str | Path, data: bytes | None = None) -> FeatureTable:
    """The store at `path`, parsed from `data` if the caller read it."""
    reader = _Reader(Path(path).read_bytes() if data is None else data, what=str(path))
    if reader.take(4) != FEATURE_MAGIC:
        raise StoreFormatError(f"{path}: bad magic, not a feature store")
    version, count, dimension = struct.unpack("<III", reader.take(12))
    if version != FEATURE_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}; re-run extract")
    if dimension != N_MFCC:
        raise StoreFormatError(f"{path}: store has {dimension}-dim features, the model takes {N_MFCC}")
    recorded = _FRONT_END_LAYOUT.unpack(reader.take(_FRONT_END_LAYOUT.size))
    try:
        front_end = MfccConfig(**dict(zip(_FRONT_END, recorded)))
    except ValueError as exc:
        raise StoreFormatError(f"{path}: {exc}") from None
    values = np.frombuffer(reader.take(8 * count * N_MFCC), "<f8").reshape(count, N_MFCC)
    genres = np.frombuffer(reader.take(count), dtype=np.uint8).astype(np.int64)

    # the id column runs to the count-th NUL, which ends the file
    column = reader.data[reader.pos :]
    *terminated, tail = column.split(b"\0", count)
    if len(terminated) < count:
        raise StoreFormatError(f"{path}: truncated in the id of song {len(terminated)} of {count}")
    if tail:
        raise StoreFormatError(f"{path}: {len(tail)} trailing bytes")
    try:
        ids = column.decode("utf-8").split("\0")[:count]
    except UnicodeDecodeError as exc:
        at = reader.pos + exc.start
        raise StoreFormatError(f"{path}: song id is not UTF-8 at byte {at}") from None

    out_of_range = np.flatnonzero(genres >= len(GENRE_NAMES))
    if len(out_of_range):
        bad = int(out_of_range[0])
        raise StoreFormatError(
            f"{path}: song {ids[bad]!r} has genre index {genres[bad]} out of range "
            f"0..{len(GENRE_NAMES) - 1}"
        )
    if len(set(ids)) < count:
        repeated = next(i for i, n in Counter(ids).items() if n > 1)
        raise StoreFormatError(f"{path}: song id {repeated!r} appears more than once")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise StoreFormatError(f"{path}: song {ids[bad]!r} has a non-finite feature value")
    return FeatureTable(ids, genres, values, front_end)


def write_model(path: str | Path, model: EmbeddingModel) -> None:
    layers = [layer for layer in (model.graph_layer, model.embed_head, *model.mlp) if layer is not None]
    parts = [
        WEIGHT_MAGIC,
        struct.pack("<IBI", WEIGHT_VERSION, _VARIANT_TAGS[model.variant], len(layers)),
        _SETTINGS_LAYOUT.pack(*(getattr(model.cfg, name) for name in _SETTINGS)),
    ]
    for layer in layers:
        parts.append(struct.pack("<II", layer.in_dim, layer.out_dim))
        parts.append(layer.weight.astype("<f8").tobytes())
        parts.append(layer.bias.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_model(path: str | Path, data: bytes | None = None) -> EmbeddingModel:
    """The weights at `path`, parsed from `data` if the caller read it."""
    reader = _Reader(Path(path).read_bytes() if data is None else data, what=str(path))
    if reader.take(4) != WEIGHT_MAGIC:
        raise StoreFormatError(f"{path}: bad magic, not a weight store")
    version, tag, layer_count = struct.unpack("<IBI", reader.take(9))
    if version != WEIGHT_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}; re-run train")
    if tag not in _TAG_VARIANTS:
        raise StoreFormatError(f"{path}: unknown variant tag {tag}")
    variant = _TAG_VARIANTS[tag]
    expected = sum(shape is not None for shape in ARCHITECTURE[variant])
    if layer_count != expected:
        raise StoreFormatError(f"{path}: {variant.value} model must have {expected} layers, got {layer_count}")
    settings = _SETTINGS_LAYOUT.unpack(reader.take(_SETTINGS_LAYOUT.size))
    try:
        cfg = TrainConfig(variant=variant, **dict(zip(_SETTINGS, settings)))
    except ValueError as exc:
        raise StoreFormatError(f"{path}: {exc}") from None

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

    try:  # EmbeddingModel refuses a layer of a shape other than ARCHITECTURE's
        graph_layer, embed_head, *mlp = [None, None, *layers] if variant is Variant.PLAIN else layers
        return EmbeddingModel(cfg, graph_layer, embed_head, mlp)
    except ValueError as exc:
        raise StoreFormatError(f"{path}: {exc}") from None
