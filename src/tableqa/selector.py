"""Column selection: rule-based pruning of uninformative columns, then an
LLM relevance pass over chunks of at most 25 columns.

The selection is biased toward recall: the prompt tells the model to keep
a column when in doubt, an unparseable chunk reply keeps the whole chunk,
an empty union keeps everything, and a transport failure degrades to
no-op selection.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .fuzzy import correct_name
from .llm_client import ChatRequest, LLMError, Message, first_json
from .profiler import ColumnProfile

DEFAULT_DENYLIST = [r"^N_R"]
_SUFFIX_FAMILY_RE = re.compile(r"^(?P<stem>.+)_\d+$")


@dataclass
class SelectorConfig:
    chunk_size: int = 25
    denylist_patterns: list[str] = field(default_factory=lambda: list(DEFAULT_DENYLIST))
    suffix_family_min: int = 5
    max_parse_retries: int = 2

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


def prune_uninformative(profiles: list[ColumnProfile],
                        cfg: SelectorConfig = SelectorConfig()
                        ) -> tuple[list[ColumnProfile], list[str]]:
    """Drop denylisted names and large `stem_<digits>` suffix families.

    A suffix family is dropped whole once it reaches suffix_family_min
    members.  Dropped names are returned for the trace.
    """
    patterns = [re.compile(p) for p in cfg.denylist_patterns]
    families: dict[str, list[str]] = {}
    for p in profiles:
        m = _SUFFIX_FAMILY_RE.match(p.name)
        if m:
            families.setdefault(m.group("stem"), []).append(p.name)
    family_drop = {
        name
        for members in families.values()
        if len(members) >= cfg.suffix_family_min
        for name in members
    }
    kept, dropped = [], []
    for p in profiles:
        if any(pat.search(p.name) for pat in patterns) or p.name in family_drop:
            dropped.append(p.name)
        else:
            kept.append(p)
    return kept, dropped


SELECT_SYSTEM = (
    "You pick which columns of a table could be relevant to answer a "
    "question. In case of doubt, you should return the column: missing a "
    "relevant column is much worse than keeping an extra one. Reply with "
    "a JSON array of column names, nothing else."
)


def _chunk_prompt(question: str, chunk: list[ColumnProfile]) -> str:
    lines = [f"Question: {question}", "", "Columns:"]
    for p in chunk:
        lines.append(f"- {p.name}: {p.description}")
    lines.append("")
    lines.append("Return a JSON array with the names of the relevant columns.")
    return "\n".join(lines)


def select_columns(question: str, profiles: list[ColumnProfile], llm,
                   cfg: SelectorConfig = SelectorConfig(),
                   warnings: Optional[list[str]] = None) -> list[ColumnProfile]:
    """LLM relevance selection in chunks; the result is the union over
    chunks in original column order."""
    if warnings is None:
        warnings = []
    if not profiles:
        return []
    selected_names: set[str] = set()
    for start in range(0, len(profiles), cfg.chunk_size):
        chunk = profiles[start:start + cfg.chunk_size]
        chunk_names = [p.name for p in chunk]
        prompt = _chunk_prompt(question, chunk)
        names: Optional[list] = None
        for _ in range(cfg.max_parse_retries):
            try:
                reply = llm.complete(ChatRequest(
                    messages=(Message("system", SELECT_SYSTEM),
                              Message("user", prompt)),
                    stage_tag="selector",
                ))
            except LLMError as exc:
                warnings.append(f"selector transport failure, keeping all columns: {exc}")
                return list(profiles)
            names = first_json(reply, list)
            if names is not None:
                break
        if names is None:
            # Unparseable chunk reply: keep the whole chunk (recall bias).
            selected_names.update(chunk_names)
            continue
        for name in names:
            if isinstance(name, str) and name.strip():
                selected_names.add(correct_name(name, chunk_names))
    result = [p for p in profiles if p.name in selected_names]
    if not result:
        return list(profiles)
    return result
