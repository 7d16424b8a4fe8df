"""LLM backend abstraction.

Two backends behind one `complete(request)` call: an HTTP client for any
OpenAI-compatible chat-completions server, and a deterministic scripted
mock for tests.  Model routing is per stage: one general model for
descriptor/selector/explainer/interpreter, a dedicated coder model, and
an optional explainer override slot.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import requests

STAGES = ("descriptor", "selector", "explainer", "coder", "interpreter")


class LLMError(Exception):
    """Transport failure after retries, or a non-retryable HTTP error."""


class UnscriptedRequestError(LLMError):
    """Mock backend got a request no script entry matches (test aid)."""


@dataclass(frozen=True)
class Message:
    role: str  # system | user | assistant
    content: str


@dataclass(frozen=True)
class ChatRequest:
    messages: tuple[Message, ...]
    stage_tag: str
    temperature: Optional[float] = None  # None: the client's configured value
    max_tokens: Optional[int] = None  # None: the client's configured value
    model: str = ""

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("ChatRequest needs at least one message")
        if self.messages[0].role not in ("system", "user"):
            raise ValueError("first message must be system or user")
        if self.stage_tag not in STAGES:
            raise ValueError(f"unknown stage tag {self.stage_tag!r}")
        if self.temperature is not None and self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")

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
    concurrency: int = 4
    retries: int = 3
    retry_base_seconds: float = 1.0
    deterministic: bool = False

    @staticmethod
    def from_dict(data: dict) -> "LLMConfig":
        cfg = LLMConfig()
        model = data.get("model", {})
        cfg.base_url = data.get("base_url", cfg.base_url)
        cfg.api_key_env = data.get("api_key", cfg.api_key_env)
        cfg.model_general = model.get("general", cfg.model_general)
        cfg.model_coder = model.get("coder", cfg.model_coder)
        cfg.model_explainer_override = model.get("explainer_override")
        cfg.temperature = data.get("temperature", cfg.temperature)
        cfg.max_tokens = data.get("max_tokens", cfg.max_tokens)
        cfg.concurrency = data.get("concurrency", cfg.concurrency)
        cfg.retries = data.get("retries", cfg.retries)
        return cfg


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

    Transport errors and 5xx responses retry with exponential backoff;
    4xx responses fail immediately.
    """

    def __init__(self, config: LLMConfig):
        self.config = config
        self._semaphore = threading.Semaphore(config.concurrency)

    def _body(self, req: ChatRequest) -> dict:
        temperature = 0.0 if self.config.deterministic else (
            req.temperature if req.temperature is not None else self.config.temperature)
        body = {
            "model": req.model or route_model(req.stage_tag, self.config),
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": temperature,
            "max_tokens": req.max_tokens or self.config.max_tokens,
        }
        # Round-trip through the serializer so a malformed body never
        # leaves the process.
        json.loads(json.dumps(body))
        return body

    def complete(self, req: ChatRequest) -> str:
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = self._body(req)
        last_exc: Optional[Exception] = None
        with self._semaphore:
            for attempt in range(self.config.retries + 1):
                try:
                    resp = requests.post(url, json=body, headers=headers, timeout=120)
                except requests.RequestException as exc:
                    last_exc = exc
                else:
                    if resp.status_code < 400:
                        payload = resp.json()
                        return payload["choices"][0]["message"]["content"]
                    if resp.status_code < 500:
                        raise LLMError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                    last_exc = LLMError(f"HTTP {resp.status_code}")
                if attempt < self.config.retries:
                    time.sleep(self.config.retry_base_seconds * (2 ** attempt))
        raise LLMError(f"transport failure after {self.config.retries} retries: {last_exc}")


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
