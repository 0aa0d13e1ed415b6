"""Span tracing of genregraph's public functions, installed from outside the package.

`Tracer.install()` replaces each function named in `LAYERS` by a wrapper
that records one span per call: (id, parent id, name, thread, start, end,
thread CPU seconds, counters). Several modules import functions by name
(`from .mfcc import mfcc` in `cli` and `synth`), so the wrapper is bound
under every name in every loaded `genregraph` module that refers to the
original function. Spans are kept in memory and written by `dump()`.

A span's parent is the innermost traced call open on the same thread, so
calls made on the `extract` thread pool are roots of their own thread.
Self time is a span's thread CPU time minus that of its child spans;
CPU time is busy time, so threads waiting on the interpreter lock or on
I/O add nothing. BLAS helper threads are not counted.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS: dict[str, tuple[str, ...]] = {
    "synth": ("generate_clip", "generate_dataset"),
    "audio": ("encode_wav", "decode_wav", "resample"),
    "mfcc": ("mfcc", "power_spectrogram", "mel_filterbank"),
    "stores": ("read_feature_store", "write_feature_store", "read_model", "write_model"),
    "graph": ("build_graph", "normalize", "attach_unseen", "extended_adjacency_row"),
    "nn": (
        "sampled_neighbor_means",
        "embedding_loss_and_grads",
        "embedding_forward",
        "mlp_loss_and_grads",
        "adam_step",
    ),
    "train": ("train_embeddings", "train_classifier", "compute_embeddings", "infer_embedding"),
    "recommend": ("recommend", "gamma", "run_experiment"),
}

TRACED = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

SPAN_FIELDS = ("id", "parent", "name", "tid", "start", "end", "cpu", "attrs")


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _clique_nnz(args, kwargs, result) -> dict:
    """Stored entries of the normalized adjacency, from clique sizes alone."""
    sizes = np.bincount(_arg(args, kwargs, 0, "graph").label_indices)
    sizes = sizes[sizes > 0].astype(np.int64)
    self_loops = bool(_arg(args, kwargs, 1, "add_self_loops", False))
    return {"nnz": int((sizes * (sizes if self_loops else sizes - 1)).sum())}


def _rows_scanned(args, kwargs, result) -> dict:
    catalog = _arg(args, kwargs, 1, "catalog")
    query_id = _arg(args, kwargs, 3, "query_id", "")
    return {"rows": len(catalog) - (query_id in catalog)}


# counters recorded with a span, computed from the call's arguments and result
COUNTERS = {
    "audio.resample": lambda a, k, r: {
        "changed": int(_arg(a, k, 0, "clip").sample_rate != _arg(a, k, 1, "target_sample_rate"))
    },
    "stores.read_feature_store": lambda a, k, r: {"records": len(r)},
    "graph.normalize": _clique_nnz,
    "recommend.recommend": _rows_scanned,
    "train.train_embeddings": lambda a, k, r: {
        "variant": _arg(a, k, 3, "cfg").variant.value,
        "epochs": _arg(a, k, 3, "cfg").epochs,
    },
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            attrs = None
            start = time.perf_counter()
            cpu_start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    attrs = counter(args, kwargs, result)
                return result
            finally:
                cpu = time.thread_time() - cpu_start
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, threading.get_ident(), start, end, cpu, attrs))

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS under every name that refers to it."""
        import genregraph.cli  # noqa: F401  loads every genregraph module

        modules = [
            m for n, m in sys.modules.items() if n == "genregraph" or n.startswith("genregraph.")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"genregraph.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def dump(self, path: str) -> None:
        """Write one JSON object per span, in SPAN_FIELDS plus the pid."""
        pid = os.getpid()
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({**dict(zip(SPAN_FIELDS, span)), "pid": pid}) + "\n")


def load_spans(paths) -> list[dict]:
    spans = []
    for path in paths:
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """`.calls`, `.s` (self CPU seconds) and the extra counts and ratios, from spans.

    Spans may come from several processes; ids are unique per pid.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans}
    child_cpu: dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_cpu[(s["pid"], s["parent"])] += s["cpu"]

    def ancestors(span):
        while span["parent"]:
            span = by_key[(span["pid"], span["parent"])]
            yield span

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    named: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += s["cpu"] - child_cpu[(s["pid"], s["id"])]
        named[s["name"]].append(s)

    metrics: dict[str, float] = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = self_s[name]

    def under(span, name, variant=None):
        return any(
            a["name"] == name and (variant is None or a["attrs"]["variant"] == variant)
            for a in ancestors(span)
        )

    trains = named["train.train_embeddings"]
    gcn_trains = [t for t in trains if t["attrs"] and t["attrs"]["variant"] == "gcn"]
    sage_epochs = sum(t["attrs"]["epochs"] for t in trains if t["attrs"] and t["attrs"]["variant"] == "sage")
    metrics["audio.resample.work_ratio"] = _ratio(
        sum(s["attrs"]["changed"] for s in named["audio.resample"] if s["attrs"]),
        calls["audio.resample"],
    )
    metrics["mfcc.mel_filterbank.per_clip"] = _ratio(calls["mfcc.mel_filterbank"], calls["mfcc.mfcc"])
    metrics["stores.read_feature_store.records"] = sum(
        s["attrs"]["records"] for s in named["stores.read_feature_store"] if s["attrs"]
    )
    metrics["graph.normalize.nnz"] = sum(s["attrs"]["nnz"] for s in named["graph.normalize"] if s["attrs"])
    metrics["graph.normalize.per_model"] = _ratio(
        sum(under(s, "train.train_embeddings", "gcn") for s in named["graph.normalize"]),
        len(gcn_trains),
    )
    metrics["nn.sampled_neighbor_means.per_epoch"] = _ratio(
        sum(
            under(s, "train.train_embeddings", "sage") and not under(s, "train.compute_embeddings")
            for s in named["nn.sampled_neighbor_means"]
        ),
        sage_epochs,
    )
    metrics["train.compute_embeddings.per_query"] = _ratio(
        sum(not under(s, "train.train_embeddings") for s in named["train.compute_embeddings"]),
        calls["recommend.recommend"],
    )
    metrics["recommend.recommend.rows_scanned"] = sum(
        s["attrs"]["rows"] for s in named["recommend.recommend"] if s["attrs"]
    )
    return metrics


def inclusive_cpu(spans: list[dict], names: tuple[str, ...], pid: int) -> float:
    """Thread CPU seconds of the named spans of one process, children included."""
    return sum(s["cpu"] for s in spans if s["pid"] == pid and s["name"] in names)
