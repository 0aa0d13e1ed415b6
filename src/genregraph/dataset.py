"""Dataset manifests: CSV rows of (path, genre) tying audio files to genres."""

from __future__ import annotations

import csv
from pathlib import Path

from .graph import GENRE_NAMES


class ManifestError(ValueError):
    """Malformed manifest: not CSV, bad header or row, unknown genre, duplicate path."""


def write_manifest(path: str | Path, rows: list[tuple[str, str]]) -> None:
    """The path,genre header, then one (path, genre) row per song."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("path", "genre"))
        writer.writerows(rows)


def read_manifest(path: str | Path) -> list[tuple[str, str]]:
    """The (path, genre) rows of a manifest; columns other than path and
    genre are ignored. Refuses a missing column, then the first row that
    is not CSV, has too few fields, an empty path or one with a line
    break, or an unknown genre, then an empty manifest, then the first
    repeated path."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, strict=True)
        # every message names the line after the last record read whole,
        # where the failing record starts unless blank lines come between
        start = 1
        try:
            fields = reader.fieldnames or []
            if "path" not in fields or "genre" not in fields:
                raise ManifestError(f"{path}: manifest needs 'path' and 'genre' columns, found {fields}")
            rows = []
            start = reader.line_num + 1
            for row in reader:
                song, genre = row["path"], row["genre"]
                if song is None or genre is None:
                    raise ManifestError(f"{path}: line {start}: row has too few fields")
                if not song:
                    raise ManifestError("manifest entry has an empty path")
                if "\n" in song or "\r" in song:
                    raise ManifestError(f"{path}: line {start}: path {song!r} holds a line break")
                if genre not in GENRE_NAMES:
                    raise ManifestError(f"unknown genre {genre!r} (expected one of {GENRE_NAMES})")
                rows.append((song, genre))
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ManifestError(f"{path}: line {start}: {exc}") from None
    if not rows:
        raise ManifestError("manifest has no entries")
    seen = set()
    for song, _ in rows:
        if song in seen:
            raise ManifestError(f"duplicate path {song!r}")
        seen.add(song)
    return rows
