import http.server
import json
import threading

import pytest

from tableqa.llm_client import (
    ChatRequest,
    HTTPClient,
    LLMConfig,
    LLMError,
    Message,
    MockClient,
    UnscriptedRequestError,
    route_model,
)


def req(stage, content):
    return ChatRequest(messages=(Message("user", content),), stage_tag=stage)


class TestChatRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChatRequest(messages=(), stage_tag="coder")
        with pytest.raises(ValueError):
            ChatRequest(messages=(Message("assistant", "x"),), stage_tag="coder")
        with pytest.raises(ValueError):
            req("nope", "x")
        with pytest.raises(ValueError):
            ChatRequest(messages=(Message("user", "x"),), stage_tag="coder",
                        temperature=-0.1)
        with pytest.raises(ValueError):
            ChatRequest(messages=(Message("user", "x"),), stage_tag="coder",
                        max_tokens=0)


class TestRouting:
    def test_coder_model(self):
        cfg = LLMConfig()
        assert route_model("coder", cfg) == cfg.model_coder
        assert route_model("explainer", cfg) == cfg.model_general

    def test_explainer_override(self):
        cfg = LLMConfig(model_explainer_override="qwen3-14b")
        assert route_model("explainer", cfg) == "qwen3-14b"
        assert route_model("selector", cfg) == cfg.model_general

    def test_unknown_stage(self):
        with pytest.raises(LLMError):
            route_model("wat", LLMConfig())


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


@pytest.fixture
def stub_server():
    server = http.server.HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


class TestHTTPClient:
    def test_wire_format(self, stub_server):
        cfg = LLMConfig(base_url=stub_server, retries=0)
        client = HTTPClient(cfg)
        out = client.complete(req("coder", "hola"))
        assert out == f"echo:{cfg.model_coder}:hola"

    def test_transport_error_after_retries(self):
        cfg = LLMConfig(base_url="http://127.0.0.1:1/v1", retries=1,
                        retry_base_seconds=0.01)
        with pytest.raises(LLMError, match="transport"):
            HTTPClient(cfg).complete(req("coder", "x"))

    def test_config_sampling_settings_reach_the_wire(self, stub_server):
        cfg = LLMConfig(base_url=stub_server, retries=0, temperature=0.1,
                        max_tokens=100)
        HTTPClient(cfg).complete(req("explainer", "x"))
        assert _StubHandler.last_body["temperature"] == 0.1
        assert _StubHandler.last_body["max_tokens"] == 100

    def test_request_settings_override_config(self, stub_server):
        cfg = LLMConfig(base_url=stub_server, retries=0, temperature=0.1,
                        max_tokens=100)
        request = ChatRequest(messages=(Message("user", "x"),), stage_tag="coder",
                              temperature=0.0, max_tokens=7)
        HTTPClient(cfg).complete(request)
        assert _StubHandler.last_body["temperature"] == 0.0
        assert _StubHandler.last_body["max_tokens"] == 7

    def test_deterministic_flag_zeroes_temperature(self, stub_server):
        cfg = LLMConfig(base_url=stub_server, deterministic=True)
        body = HTTPClient(cfg)._body(req("coder", "x"))
        assert body["temperature"] == 0.0


def test_config_from_dict():
    cfg = LLMConfig.from_dict({
        "base_url": "http://host/v1",
        "model": {"general": "g", "coder": "c", "explainer_override": "e"},
        "temperature": 0.5,
        "concurrency": 2,
    })
    assert cfg.base_url == "http://host/v1"
    assert cfg.model_coder == "c"
    assert cfg.model_explainer_override == "e"
    assert cfg.concurrency == 2
