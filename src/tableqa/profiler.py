"""Per-column statistics and natural-language descriptions.

Descriptions come from the LLM (batched, at most 25 columns per prompt)
with a deterministic template fallback, and profiles are cached on disk
keyed by a content hash of the CSV bytes, since a table's profile is
question-independent.  `describe_requests` builds the prompts and the
caller sends them; `describe_columns` reads the reply texts, each once,
and reports whether every chunk parsed, which is the cache rule.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from .llm_client import ChatRequest, first_json
from .table_core import ColumnKind, Table

PROFILER_VERSION = "1"
EXAMPLE_COUNT = 3  # example values per column, in profiles and prompts
DESCRIBE_CHUNK_SIZE = 25  # columns per descriptor and selector prompt


@dataclass
class ColumnProfile:
    name: str
    kind: ColumnKind
    description: str = ""
    null_count: int = 0
    distinct_count: int = 0
    example_values: list[str] = field(default_factory=list)
    min: Optional[float] = None
    max: Optional[float] = None

    def to_dict(self) -> dict:
        return {**vars(self), "kind": self.kind.value}  # asdict would deep-copy

    @staticmethod
    def from_dict(d: dict) -> "ColumnProfile":
        d = dict(d)
        d["kind"] = ColumnKind(d["kind"])
        return ColumnProfile(**d)


def fallback_description(profile: ColumnProfile) -> str:
    examples = ", ".join(profile.example_values)
    return (f"Column '{profile.name}' of type {profile.kind.value} "
            f"with example values: {examples}")


def profile_table(t: Table) -> list[ColumnProfile]:
    """One profile per column; descriptions stay empty here and are
    filled by describe_columns (or its fallback template).

    The pass fills each Column's `distinct` view, which the explainer and
    the builtins read again, and works once per distinct cell."""
    profiles = []
    for col in t.columns:
        distinct = col.distinct
        # A stable sort keeps first-seen order among equal counts.
        examples = sorted(distinct, key=lambda k: -distinct[k][1])[:EXAMPLE_COUNT]
        lo = hi = None
        if col.kind in (ColumnKind.NUMERIC, ColumnKind.MIXED_NUMERIC):
            per_code = col.unique_numbers
            numbers = [per_code[code] for code in col.counts if per_code[code] is not None]
            if numbers:
                lo, hi = min(numbers), max(numbers)
        profiles.append(ColumnProfile(
            name=col.name,
            kind=col.kind,
            null_count=sum(n for code, n in col.counts.items() if col.uniques[code] is None),
            distinct_count=len(distinct),
            example_values=examples,
            min=lo,
            max=hi,
        ))
    return profiles


DESCRIBE_SYSTEM = (
    "You describe the columns of a tabular dataset. For each column you "
    "are given its name, inferred type, statistics and example values. "
    "Reply with a JSON object mapping each column name to a one-sentence "
    "description of what the column contains."
)


def _describe_prompt(profiles: list[ColumnProfile]) -> str:
    lines = ["Describe the following columns:", ""]
    for p in profiles:
        stats = f"type={p.kind.value}, nulls={p.null_count}, distinct={p.distinct_count}"
        if p.min is not None:
            stats += f", min={p.min:g}, max={p.max:g}"
        examples = ", ".join(p.example_values) or "(none)"
        lines.append(f"- {p.name} ({stats}; examples: {examples})")
    lines.append("")
    lines.append('Reply with a JSON object: {"<column name>": "<description>", ...}')
    return "\n".join(lines)


def column_chunks(profiles: list[ColumnProfile]) -> list[list[ColumnProfile]]:
    """`profiles` in column order, in chunks of at most DESCRIBE_CHUNK_SIZE."""
    return [profiles[start:start + DESCRIBE_CHUNK_SIZE]
            for start in range(0, len(profiles), DESCRIBE_CHUNK_SIZE)]


def describe_requests(profiles: list[ColumnProfile]) -> list[ChatRequest]:
    """The descriptor requests for `profiles`, one per column chunk."""
    return [ChatRequest("descriptor", DESCRIBE_SYSTEM, _describe_prompt(chunk))
            for chunk in column_chunks(profiles)]


def describe_columns(profiles: list[ColumnProfile], replies: list) -> bool:
    """Fill each profile's description from `replies`, the reply texts of
    `describe_requests(profiles)` in chunk order (None for a request that
    failed).  A chunk whose reply is None, missing or does not parse
    keeps the template.  Returns whether every chunk's reply parsed."""
    parsed_all = True
    for i, chunk in enumerate(column_chunks(profiles)):
        reply = replies[i] if i < len(replies) else None
        parsed = (reply is not None and first_json(reply, dict)) or {}
        parsed_all = parsed_all and bool(parsed)
        for p in chunk:
            desc = parsed.get(p.name)
            ok = isinstance(desc, str) and desc.strip()
            p.description = desc.strip() if ok else fallback_description(p)
    return parsed_all


def table_fingerprint(csv_bytes: bytes) -> str:
    import hashlib  # here, not at module level: only a profile cache needs it
    h = hashlib.sha256()
    h.update(csv_bytes)
    h.update(b"|v" + PROFILER_VERSION.encode())
    return h.hexdigest()


class ProfileCache:
    """One JSON document per table fingerprint in a cache directory.
    Corrupt entries are treated as misses and evicted."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.cache_dir, f"{fingerprint}.json")

    def get(self, fingerprint: str) -> Optional[list[ColumnProfile]]:
        path = self._path(fingerprint)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            return [ColumnProfile.from_dict(d) for d in data]
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError):
            try:
                os.remove(path)
            except FileNotFoundError:  # another reader evicted it first
                pass
            return None

    def put(self, fingerprint: str, profiles: list[ColumnProfile]) -> None:
        """Write to a temp file in the cache dir, then rename it into
        place, so a reader never sees a half-written entry."""
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with open(fd, "w", encoding="utf-8", errors="backslashreplace") as fh:
                fh.write(json.dumps([p.to_dict() for p in profiles],
                                    ensure_ascii=False, indent=2))
            os.replace(tmp, self._path(fingerprint))
        except BaseException:
            os.remove(tmp)
            raise
