"""LLM backend abstraction.

Two backends behind one `complete(request)` call: an HTTP client for any
OpenAI-compatible chat-completions server, and a deterministic scripted
mock for tests.  Model routing is per stage: one general model for
descriptor/selector/explainer and a dedicated coder model.

The HTTP client uses the standard library's `urllib.request`, imported on
the first request, so mock and offline runs load no HTTP or TLS module.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

STAGES = ("descriptor", "selector", "explainer", "coder")

# HTTPClient retries a request up to RETRIES times, RETRY_BASE_SECONDS * 2**attempt
# apart, and gives up on one that has not answered in REQUEST_TIMEOUT_SECONDS.
RETRIES = 3
RETRY_BASE_SECONDS = 1.0
REQUEST_TIMEOUT_SECONDS = 120

DEFAULT_CONCURRENCY = 8  # runs in flight: `bench`'s default repetitions


class LLMError(Exception):
    """Transport failure after retries, or a non-retryable HTTP error."""


class UnscriptedRequestError(LLMError):
    """Mock backend got a request no script entry matches (test aid)."""


def first_json(reply: str, kind: type) -> Optional[object]:
    """The first JSON value of `kind` (dict or list) in an LLM reply,
    wherever it starts: prose and code fences around it are skipped.
    None when the reply holds none before a value nested too deep to parse."""
    decoder = json.JSONDecoder()
    for m in re.finditer(r"\{" if kind is dict else r"\[", reply):
        try:
            value, _ = decoder.raw_decode(reply, m.start())
        except ValueError:
            continue
        except RecursionError:  # rather than recurse as deep from each later start
            return None
        if isinstance(value, kind):
            return value
    return None


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class ChatRequest:
    """One stage's request: a system message, then one user message."""
    stage_tag: str
    system: str
    user: str

    def __post_init__(self) -> None:
        if self.stage_tag not in STAGES:
            raise ValueError(f"unknown stage tag {self.stage_tag!r}")

    @property
    def messages(self) -> tuple[Message, Message]:
        return Message("system", self.system), Message("user", self.user)

    @property
    def last_user_content(self) -> str:
        return self.user


def _check_types(obj, kinds: tuple, what: str, *keys: str, prefix: str = "") -> None:
    """Raise ValueError naming the first of `keys` whose value is none of `kinds`;
    a bool is no int here (bool is an int subclass, and YAML reads `true` as one)."""
    for key in keys:
        value = getattr(obj, key)
        if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
            raise ValueError(f"{prefix}{key} must be {what}, not {value!r}")


@dataclass
class ModelNames:
    """The config file's `model:` mapping."""
    general: str = "qwen2.5-14b-instruct"  # descriptor, selector and explainer
    coder: str = "qwen2.5-coder-14b-instruct"

    def __post_init__(self) -> None:
        _check_types(self, (str,), "a string", "general", "coder", prefix="model.")


@dataclass
class LLMConfig:
    """The config file: its keys are these fields' names."""
    base_url: str = "http://localhost:8000/v1"
    api_key: str = "TABLEQA_API_KEY"  # names the environment variable that holds the key
    model: ModelNames = field(default_factory=ModelNames)
    temperature: float = 0.7
    max_tokens: int = 2048
    concurrency: int = DEFAULT_CONCURRENCY

    def __post_init__(self) -> None:
        _check_types(self, (str,), "a string", "base_url", "api_key")
        _check_types(self, (int, float), "a finite number", "temperature")
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be a finite number, not {self.temperature!r}")
        _check_types(self, (int,), "an integer", "max_tokens", "concurrency")
        for key, low in (("temperature", 0), ("max_tokens", 1), ("concurrency", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}")

    @staticmethod
    def from_dict(data: dict) -> "LLMConfig":
        """The config from a parsed config file; an unknown key raises TypeError,
        and a setting of the wrong shape, type or range ValueError, naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a mapping, not {data!r}")
        data = dict(data)
        model = data.pop("model", None)
        if model is None:  # `model:` with nothing under it
            model = {}
        elif not isinstance(model, dict):
            raise ValueError(f"model must be a mapping of model names, not {model!r}")
        return LLMConfig(**data, model=ModelNames(**model))


def route_model(stage_tag: str, config: LLMConfig) -> str:
    return config.model.coder if stage_tag == "coder" else config.model.general


class HTTPClient:
    """Client for an OpenAI-compatible /chat/completions endpoint.

    Transport errors, 5xx and 429 responses and replies without a
    choices[0].message.content string retry with exponential backoff;
    other 4xx responses fail immediately.
    """

    def __init__(self, config: LLMConfig):
        self.config = config

    def _body(self, req: ChatRequest) -> dict:
        return {
            "model": route_model(req.stage_tag, self.config),
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }

    def complete(self, req: ChatRequest) -> str:
        import http.client
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        data = json.dumps(self._body(req)).encode()
        last_exc: Optional[Exception] = None
        for attempt in range(RETRIES + 1):
            try:
                status, text = _post(url, data, headers)
            except (OSError, http.client.HTTPException) as exc:  # URLError is an OSError
                last_exc = exc
            else:
                if status < 400:
                    try:
                        content = json.loads(text)["choices"][0]["message"]["content"]
                    except (ValueError, LookupError, TypeError):
                        content = None
                    if isinstance(content, str):
                        return content
                    last_exc = LLMError(
                        f"HTTP {status} without a choices[0].message.content "
                        f"string: {text[:200]}")
                elif status < 500 and status != 429:
                    raise LLMError(f"HTTP {status}: {text[:200]}")
                else:
                    last_exc = LLMError(f"HTTP {status}")
            if attempt < RETRIES:
                time.sleep(RETRY_BASE_SECONDS * (2 ** attempt))
        raise LLMError(f"transport failure after {RETRIES} retries: {last_exc}")


def _post(url: str, data: bytes, headers: dict) -> tuple[int, str]:
    """Status and body text of one POST; a transport failure raises."""
    import urllib.error
    import urllib.request
    request = urllib.request.Request(url, data, headers)
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_SECONDS) as resp:
            return resp.status, resp.read().decode("utf-8", errors="replace")
    except urllib.error.HTTPError as exc:  # raised for every status >= 400
        with exc:
            return exc.code, exc.read().decode("utf-8", errors="replace")


@dataclass
class MockEntry:
    """One mock script entry: the script's keys are these fields' names."""
    stage: str
    reply: str
    match: str = ""  # substring over the last user message; "" matches anything
    consume_once: bool = False
    _consumed: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {', '.join(STAGES)}, not {self.stage!r}")
        _check_types(self, (str,), "a string", "reply", "match")
        _check_types(self, (bool,), "true or false", "consume_once")


class MockClient:
    """Deterministic scripted backend: the first non-consumed entry whose
    stage matches and whose `match` substring occurs in the last user
    message wins."""

    def __init__(self, entries: Sequence[MockEntry]):
        self.entries = list(entries)
        self._lock = threading.Lock()

    @staticmethod
    def from_file(path: str) -> "MockClient":
        with open(path, encoding="utf-8") as fh:
            return MockClient.from_list(json.load(fh))

    @staticmethod
    def from_list(data: Sequence[dict]) -> "MockClient":
        return MockClient([MockEntry(**e) for e in data])

    def complete(self, req: ChatRequest) -> str:
        with self._lock:
            prompt = req.last_user_content
            for entry in self.entries:  # "" is in every prompt
                if entry.stage == req.stage_tag and not entry._consumed and entry.match in prompt:
                    entry._consumed = entry.consume_once
                    return entry.reply
        raise UnscriptedRequestError(
            f"unscripted request for stage {req.stage_tag!r}")
