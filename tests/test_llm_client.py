import contextlib
import http.server
import json
import pathlib
import re
import threading
import time

import pytest
import yaml

from tableqa import llm_client
from tableqa.llm_client import (
    ChatRequest,
    HTTPClient,
    LLMConfig,
    LLMError,
    Message,
    MockClient,
    ModelNames,
    UnscriptedRequestError,
    first_json,
    route_model,
)


def req(stage, content):
    return ChatRequest(stage, "You answer.", content)


class TestChatRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            req("nope", "x")

    def test_one_system_then_one_user_message(self):
        r = req("coder", "write a plan")
        assert r.messages == (Message("system", "You answer."), Message("user", "write a plan"))
        assert r.last_user_content == "write a plan"

    def test_no_stage_after_the_coder(self):
        # The answer stage formats the run's value by rule; it asks no LLM.
        with pytest.raises(ValueError, match="unknown stage tag 'interpreter'"):
            req("interpreter", "x")


@pytest.mark.parametrize("reply, kind, expected", [
    ('Sure:\n```json\n{"a": [1]}\n```', dict, {"a": [1]}),
    ('Sure:\n```json\n{"a": [1]}\n```', list, [1]),
    ('{not json} then {"b": 2}', dict, {"b": 2}),
    ('["x"] {"b": 2}', dict, {"b": 2}),
    ("[1, 2", list, None),
    ("no json here", dict, None),
    # Nested past the recursion limit: None, and not one deep recursion per
    # later start, each ~0.1 ms, so that 20,000 starts would take seconds.
    pytest.param('{"a": ' * 5000, dict, None, id="unclosed-objects"),
    pytest.param("[" * 5000, list, None, id="unclosed-lists"),
    pytest.param('{"a": ' * 20000 + '{"b": 2}', dict, None, id="value-after-120-kchar"),
])
def test_first_json(reply, kind, expected):
    start = time.perf_counter()
    assert first_json(reply, kind) == expected
    assert time.perf_counter() - start < 1.0


class TestRouting:
    def test_coder_model(self):
        cfg = LLMConfig()
        assert route_model("coder", cfg) == cfg.model.coder
        assert route_model("explainer", cfg) == cfg.model.general


class TestMockClient:
    def test_scripted_match(self):
        mock = MockClient.from_list([
            {"stage": "coder", "match": "answer =", "reply": "plan text"},
        ])
        assert mock.complete(req("coder", "write a plan with answer = x")) == "plan text"

    def test_unscripted(self):
        mock = MockClient.from_list([])
        with pytest.raises(UnscriptedRequestError, match="coder"):
            mock.complete(req("coder", "hello"))

    def test_consume_once(self):
        mock = MockClient.from_list([
            {"stage": "coder", "reply": "first", "consume_once": True},
            {"stage": "coder", "reply": "second"},
        ])
        assert mock.complete(req("coder", "x")) == "first"
        assert mock.complete(req("coder", "x")) == "second"
        assert mock.complete(req("coder", "x")) == "second"

    def test_deterministic_sequences(self):
        script = [
            {"stage": "coder", "reply": "a", "consume_once": True},
            {"stage": "coder", "reply": "b"},
            {"stage": "selector", "reply": "[]"},
        ]
        seq = [("coder", "x"), ("selector", "y"), ("coder", "x"), ("coder", "z")]
        replies1 = [MockClient.from_list(script), []]
        out = []
        for _ in range(2):
            mock = MockClient.from_list(script)
            out.append([mock.complete(req(s, c)) for s, c in seq])
        assert out[0] == out[1]


class _StubHandler(http.server.BaseHTTPRequestHandler):
    last_body = None

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).last_body = body
        reply = {
            "choices": [{"message": {
                "role": "assistant",
                "content": f"echo:{body['model']}:{body['messages'][-1]['content']}",
            }}],
        }
        data = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next scripted reply (the last one
    repeats): a body, sent with HTTP 200, or a (status, body) pair.
    Counts requests in `hits` and keeps each request's headers (names
    lower-cased) and raw body in `received`.  While `stall` holds an
    unset Event, a request waits for it and gets no reply."""
    replies: list = []
    hits = 0
    received: list = []
    stall = None

    def do_POST(self):
        cls = type(self)
        body = self.rfile.read(int(self.headers["Content-Length"]))
        cls.received.append(({k.lower(): v for k, v in self.headers.items()}, body))
        reply = cls.replies[min(cls.hits, len(cls.replies) - 1)]
        cls.hits += 1
        if cls.stall is not None:
            cls.stall.wait(5)
            return
        status, data = reply if isinstance(reply, tuple) else (200, reply)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _serve(handler):
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    # A short poll interval keeps shutdown() from waiting the default 0.5 s.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def stub_server():
    with _serve(_StubHandler) as url:
        yield url


def scripted_server(*replies):
    handler = type("Handler", (_ScriptedHandler,),
                   {"replies": list(replies), "hits": 0, "received": []})
    return handler, _serve(handler)


GOOD_REPLY = json.dumps({"choices": [{"message": {"content": "fine"}}]}).encode()


@pytest.fixture
def fast_retries(monkeypatch):
    monkeypatch.setattr(llm_client, "RETRY_BASE_SECONDS", 0.01)


@pytest.fixture
def set_retries(monkeypatch):
    """Sets how many times HTTPClient retries a request (RETRIES is 3)."""
    return lambda n: monkeypatch.setattr(llm_client, "RETRIES", n)


@pytest.mark.usefixtures("fast_retries")
class TestHTTPClient:
    def test_wire_format(self, stub_server, set_retries):
        set_retries(0)
        cfg = LLMConfig(base_url=stub_server)
        client = HTTPClient(cfg)
        out = client.complete(req("coder", "hola"))
        assert out == f"echo:{cfg.model.coder}:hola"

    def test_transport_error_after_retries(self, set_retries):
        set_retries(1)
        cfg = LLMConfig(base_url="http://127.0.0.1:1/v1")
        with pytest.raises(LLMError, match="transport"):
            HTTPClient(cfg).complete(req("coder", "x"))

    def test_config_sampling_settings_reach_the_wire(self, stub_server, set_retries):
        set_retries(0)
        cfg = LLMConfig(base_url=stub_server, temperature=0.1, max_tokens=100)
        HTTPClient(cfg).complete(req("explainer", "x"))
        assert _StubHandler.last_body["temperature"] == 0.1
        assert _StubHandler.last_body["max_tokens"] == 100

    @pytest.mark.parametrize("body", [
        b"{}",
        b"<html>upstream busy</html>",
        b"[]",
        b'{"choices": []}',
        b'{"choices": [{"message": {"content": null}}]}',
    ], ids=["empty-object", "not-json", "list", "no-choices", "null-content"])
    def test_malformed_200_is_retried_then_llm_error(self, body, set_retries):
        set_retries(1)
        handler, server = scripted_server(body)
        with server as url:
            cfg = LLMConfig(base_url=url)
            with pytest.raises(LLMError, match="transport failure after 1 retries"):
                HTTPClient(cfg).complete(req("coder", "x"))
        assert handler.hits == 2

    def test_malformed_200_then_valid_reply(self, set_retries):
        set_retries(2)
        handler, server = scripted_server(b"{}", b"not json", GOOD_REPLY)
        with server as url:
            cfg = LLMConfig(base_url=url)
            assert HTTPClient(cfg).complete(req("coder", "x")) == "fine"
        assert handler.hits == 3

    def test_4xx_fails_at_once_with_the_body_prefix(self):
        handler, server = scripted_server((404, b"no such model " + b"x" * 300))
        with server as url:
            with pytest.raises(LLMError, match=r"^HTTP 404: no such model x+$") as info:
                HTTPClient(LLMConfig(base_url=url)).complete(req("coder", "x"))
        assert handler.hits == 1
        assert len(str(info.value)) == len("HTTP 404: ") + 200

    def test_5xx_is_retried_then_transport_failure(self, set_retries):
        set_retries(2)
        handler, server = scripted_server((503, b"overloaded"))
        with server as url:
            with pytest.raises(LLMError,
                               match=r"^transport failure after 2 retries: HTTP 503$"):
                HTTPClient(LLMConfig(base_url=url)).complete(req("coder", "x"))
        assert handler.hits == 3

    def test_a_request_is_retried_three_times(self):
        handler, server = scripted_server((503, b"overloaded"))
        with server as url:
            with pytest.raises(LLMError,
                               match=r"^transport failure after 3 retries: HTTP 503$"):
                HTTPClient(LLMConfig(base_url=url)).complete(req("coder", "x"))
        assert handler.hits == 4

    @pytest.mark.parametrize("status", [500, 429])  # 429: rate-limited, retried too
    def test_retried_status_then_valid_reply(self, status, set_retries):
        set_retries(1)
        handler, server = scripted_server((status, b"busy"), GOOD_REPLY)
        with server as url:
            cfg = LLMConfig(base_url=url)
            assert HTTPClient(cfg).complete(req("coder", "x")) == "fine"
        assert handler.hits == 2

    @pytest.mark.parametrize("key", ["sekrit", None], ids=["set", "unset"])
    def test_bearer_header_only_when_the_key_variable_is_set(self, monkeypatch, key,
                                                             set_retries):
        set_retries(0)
        if key is None:
            monkeypatch.delenv("TABLEQA_TEST_KEY", raising=False)
        else:
            monkeypatch.setenv("TABLEQA_TEST_KEY", key)
        handler, server = scripted_server(GOOD_REPLY)
        with server as url:
            cfg = LLMConfig(base_url=url, api_key="TABLEQA_TEST_KEY")
            HTTPClient(cfg).complete(req("coder", "x"))
        headers, _ = handler.received[0]
        assert headers.get("authorization") == (key and f"Bearer {key}")

    def test_wire_body_is_json(self, set_retries):
        set_retries(0)
        handler, server = scripted_server(GOOD_REPLY)
        with server as url:
            cfg = LLMConfig(base_url=url)
            HTTPClient(cfg).complete(req("selector", "¿hola?"))
        headers, body = handler.received[0]
        assert headers["content-type"] == "application/json"
        assert json.loads(body) == {
            "model": cfg.model.general,
            "messages": [{"role": "system", "content": "You answer."},
                         {"role": "user", "content": "¿hola?"}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }

    def test_stalled_server_times_out_as_transport_failure(self, monkeypatch, set_retries):
        monkeypatch.setattr(llm_client, "REQUEST_TIMEOUT_SECONDS", 0.2)
        set_retries(0)
        handler, server = scripted_server(GOOD_REPLY)
        handler.stall = threading.Event()
        with server as url:
            try:
                with pytest.raises(LLMError, match="^transport failure after 0 retries"):
                    HTTPClient(LLMConfig(base_url=url)).complete(
                        req("coder", "x"))
            finally:
                handler.stall.set()


def test_config_from_dict():
    cfg = LLMConfig.from_dict({
        "base_url": "http://host/v1",
        "model": {"general": "g", "coder": "c"},
        "temperature": 0.5,
        "concurrency": 2,
    })
    assert cfg.base_url == "http://host/v1"
    assert cfg.model == ModelNames("g", "c")
    assert cfg.concurrency == 2


@pytest.mark.parametrize("setting, value", [
    ("temperature", -0.1),
    ("max_tokens", 0),
    ("concurrency", 0),
])
def test_config_rejects_out_of_range_settings(setting, value):
    with pytest.raises(ValueError, match=f"{setting} must be"):
        LLMConfig.from_dict({setting: value})
    with pytest.raises(ValueError, match=f"{setting} must be"):
        LLMConfig(**{setting: value})


def test_config_model_key_with_nothing_under_it():
    cfg = LLMConfig.from_dict({"model": None})
    assert cfg.model == ModelNames()


@pytest.mark.parametrize("data, key", [
    ({"model": "qwen"}, "model"),
    ({"model": ["general"]}, "model"),
    ({"temperature": "hot"}, "temperature"),
    ({"temperature": True}, "temperature"),
    ({"temperature": float("nan")}, "temperature"),
    ({"temperature": None}, "temperature"),
    ({"max_tokens": "2048"}, "max_tokens"),
    ({"max_tokens": 2048.0}, "max_tokens"),
    ({"concurrency": 2.5}, "concurrency"),
    ({"concurrency": True}, "concurrency"),
    ({"concurrency": None}, "concurrency"),
    ({"concurrency": "8"}, "concurrency"),
    ({"base_url": 5}, "base_url"),
    ({"base_url": None}, "base_url"),
    ({"api_key": 5}, "api_key"),
    ({"model": {"general": 5}}, "model.general"),
    ({"model": {"coder": None}}, "model.coder"),
])
def test_config_rejects_wrong_shape_or_type(data, key):
    with pytest.raises(ValueError, match=f"^{re.escape(key)} must be"):
        LLMConfig.from_dict(data)


def test_readme_config_example_is_the_default_config():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config file"):]
    start = section.index("```yaml\n") + len("```yaml\n")
    block = section[start:section.index("```", start)]
    assert LLMConfig.from_dict(yaml.safe_load(block)) == LLMConfig()


def test_config_must_be_a_mapping():
    with pytest.raises(ValueError, match="config must be a mapping"):
        LLMConfig.from_dict(["temperature", 0.5])


def test_config_accepts_an_integer_temperature():
    assert LLMConfig.from_dict({"temperature": 1}).temperature == 1
