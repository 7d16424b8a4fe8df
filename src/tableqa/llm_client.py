"""LLM backend abstraction.

Two backends behind one `complete(request)` call: an HTTP client for any
OpenAI-compatible chat-completions server, and a deterministic scripted
mock for tests.  Model routing is per stage: one general model for
descriptor/selector/explainer, a dedicated coder model, and an optional
explainer override slot.

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

# HTTPClient sleeps RETRY_BASE_SECONDS * 2**attempt before each retry,
# and gives up on a request that has not answered in REQUEST_TIMEOUT_SECONDS.
RETRY_BASE_SECONDS = 1.0
REQUEST_TIMEOUT_SECONDS = 120

DEFAULT_CONCURRENCY = 8  # runs in flight: an ensemble's default repetitions


class LLMError(Exception):
    """Transport failure after retries, or a non-retryable HTTP error."""


class UnscriptedRequestError(LLMError):
    """Mock backend got a request no script entry matches (test aid)."""


def first_json(reply: str, kind: type) -> Optional[object]:
    """The first JSON value of `kind` (dict or list) in an LLM reply,
    wherever it starts: prose and code fences around it are skipped.
    None when the reply holds no such value."""
    decoder = json.JSONDecoder()
    for m in re.finditer(r"\{" if kind is dict else r"\[", reply):
        try:
            value, _ = decoder.raw_decode(reply, m.start())
        except ValueError:
            continue
        if isinstance(value, kind):
            return value
    return None


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[Message, ...]
    stage_tag: str

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("ChatRequest needs at least one message")
        if self.messages[0].role not in ("system", "user"):
            raise ValueError("first message must be system or user")
        if self.stage_tag not in STAGES:
            raise ValueError(f"unknown stage tag {self.stage_tag!r}")

    @property
    def last_user_content(self) -> str:
        for msg in reversed(self.messages):
            if msg.role == "user":
                return msg.content
        return ""


@dataclass
class LLMConfig:
    base_url: str = "http://localhost:8000/v1"
    api_key_env: str = "TABLEQA_API_KEY"
    model_general: str = "qwen2.5-14b-instruct"
    model_coder: str = "qwen2.5-coder-14b-instruct"
    model_explainer_override: Optional[str] = None
    temperature: float = 0.7
    max_tokens: int = 2048
    concurrency: int = DEFAULT_CONCURRENCY
    retries: int = 3

    def __post_init__(self) -> None:
        # bool is an int subclass, and YAML reads `true` as one.
        value = self.temperature
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"temperature must be a finite number, not {value!r}")
        for key in ("max_tokens", "concurrency", "retries"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, not {value!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    @staticmethod
    def from_dict(data: dict) -> "LLMConfig":
        """The config from a parsed config file; a setting of the wrong
        shape, type or range raises ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a mapping, not {data!r}")
        defaults = LLMConfig()
        model = data.get("model")
        if model is None:  # `model:` with nothing under it
            model = {}
        elif not isinstance(model, dict):
            raise ValueError(f"model must be a mapping of model names, not {model!r}")
        return LLMConfig(
            base_url=data.get("base_url", defaults.base_url),
            api_key_env=data.get("api_key", defaults.api_key_env),
            model_general=model.get("general", defaults.model_general),
            model_coder=model.get("coder", defaults.model_coder),
            model_explainer_override=model.get("explainer_override"),
            temperature=data.get("temperature", defaults.temperature),
            max_tokens=data.get("max_tokens", defaults.max_tokens),
            concurrency=data.get("concurrency", defaults.concurrency),
            retries=data.get("retries", defaults.retries),
        )


def route_model(stage_tag: str, config: LLMConfig) -> str:
    if stage_tag not in STAGES:
        raise LLMError(f"unknown stage tag {stage_tag!r}")
    if stage_tag == "coder":
        return config.model_coder
    if stage_tag == "explainer" and config.model_explainer_override:
        return config.model_explainer_override
    return config.model_general


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
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        data = json.dumps(self._body(req)).encode()
        last_exc: Optional[Exception] = None
        for attempt in range(self.config.retries + 1):
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
            if attempt < self.config.retries:
                time.sleep(RETRY_BASE_SECONDS * (2 ** attempt))
        raise LLMError(f"transport failure after {self.config.retries} retries: {last_exc}")


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
    stage: str
    match: str  # substring over the last user message; "" matches anything
    reply: str
    consume_once: bool = False
    _consumed: bool = field(default=False, repr=False)


class MockClient:
    """Deterministic scripted backend: the first non-consumed entry whose
    stage matches and whose `match` substring occurs in the last user
    message wins."""

    def __init__(self, entries: Sequence[MockEntry]):
        self.entries = list(entries)
        self.calls: list[ChatRequest] = []
        self._lock = threading.Lock()

    @staticmethod
    def from_file(path: str) -> "MockClient":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return MockClient.from_list(data)

    @staticmethod
    def from_list(data: Sequence[dict]) -> "MockClient":
        entries = [
            MockEntry(
                stage=e["stage"],
                match=e.get("match", ""),
                reply=e["reply"],
                consume_once=e.get("consume_once", False),
            )
            for e in data
        ]
        return MockClient(entries)

    def complete(self, req: ChatRequest) -> str:
        with self._lock:
            self.calls.append(req)
            prompt = req.last_user_content
            for entry in self.entries:
                if entry.stage != req.stage_tag:
                    continue
                if entry.consume_once and entry._consumed:
                    continue
                if entry.match and entry.match not in prompt:
                    continue
                if entry.consume_once:
                    entry._consumed = True
                return entry.reply
        raise UnscriptedRequestError(
            f"unscripted request for stage {req.stage_tag!r}")
