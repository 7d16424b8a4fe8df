"""Column selection: rule-based pruning of uninformative columns, then an
LLM relevance pass over chunks of at most 25 columns (`column_chunks`).

The selection is biased toward recall: the prompt tells the model to keep
a column when in doubt, an unparseable chunk reply keeps the whole chunk,
an empty union keeps everything, and a transport failure degrades to
no-op selection.
"""

from __future__ import annotations

import re
from typing import Optional

from .fuzzy import correct_name
from .llm_client import ChatRequest, LLMError, first_json
from .profiler import ColumnProfile, column_chunks

DENYLIST = re.compile(r"^N_R")  # names of columns that are never informative
SUFFIX_FAMILY_MIN = 5  # members from which a `stem_<digits>` family is dropped
PARSE_ATTEMPTS = 2  # selector replies asked for per chunk before keeping it whole
_SUFFIX_FAMILY_RE = re.compile(r"^(?P<stem>.+)_\d+$")


def prune_uninformative(profiles: list[ColumnProfile]) -> tuple[list[ColumnProfile], list[str]]:
    """Drop denylisted names and large `stem_<digits>` suffix families.

    A suffix family is dropped whole once it reaches SUFFIX_FAMILY_MIN
    members.  Dropped names are returned for the trace.
    """
    families: dict[str, list[str]] = {}
    for p in profiles:
        m = _SUFFIX_FAMILY_RE.match(p.name)
        if m:
            families.setdefault(m.group("stem"), []).append(p.name)
    family_drop = {
        name
        for members in families.values()
        if len(members) >= SUFFIX_FAMILY_MIN
        for name in members
    }
    kept, dropped = [], []
    for p in profiles:
        if DENYLIST.search(p.name) or p.name in family_drop:
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
                   warnings: Optional[list[str]] = None) -> list[ColumnProfile]:
    """LLM relevance selection in chunks; the result is the union over
    chunks in original column order."""
    if warnings is None:
        warnings = []
    selected_names: set[str] = set()
    for chunk in column_chunks(profiles):
        chunk_names = [p.name for p in chunk]
        req = ChatRequest("selector", SELECT_SYSTEM, _chunk_prompt(question, chunk))
        names: Optional[list] = None
        for _ in range(PARSE_ATTEMPTS):
            try:
                reply = llm.complete(req)
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
