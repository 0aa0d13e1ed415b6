"""Dataset manifests: CSV rows tying audio files to genres."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .graph import GENRE_NAMES

MANIFEST_COLUMNS = ("path", "genre")


class ManifestError(ValueError):
    """Malformed manifest: bad header, unknown genre, duplicate path."""


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    genre: str

    def __post_init__(self):
        if not self.path:
            raise ManifestError("manifest entry has an empty path")
        if self.genre not in GENRE_NAMES:
            raise ManifestError(f"unknown genre {self.genre!r} (expected one of {GENRE_NAMES})")


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ManifestError("manifest has no entries")
        seen = set()
        for entry in self.entries:
            if entry.path in seen:
                raise ManifestError(f"duplicate path {entry.path!r}")
            seen.add(entry.path)

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, entry: ManifestEntry, base: str | Path) -> Path:
        """Entry path resolved against the manifest's directory."""
        p = Path(entry.path)
        return p if p.is_absolute() else Path(base) / p

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(MANIFEST_COLUMNS)
            for entry in self.entries:
                writer.writerow([entry.path, entry.genre])

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        path = Path(path)
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            if "path" not in fields or "genre" not in fields:
                raise ManifestError(
                    f"{path}: manifest needs 'path' and 'genre' columns, found {fields}"
                )
            # columns other than path and genre are ignored
            entries = [ManifestEntry(path=row["path"], genre=row["genre"]) for row in reader]
        return cls(entries=tuple(entries))
