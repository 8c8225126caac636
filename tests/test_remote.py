"""Wire-contract checks for the optional HTTP clients, against a local stub."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from archmeta.diagrams.canonical import loads_model
from archmeta.errors import EndpointProtocolError
from archmeta.metrics.embedding import cosine, dense_vector
from archmeta.metrics.scores import document_groups, group_cosines
from archmeta.remote import (
    EMBED_ENDPOINT_VAR,
    LLM_ENDPOINT_VAR,
    EmbeddingClient,
    LlmClient,
    embed_endpoint_from_env,
    llm_endpoint_from_env,
)
from tests.test_cli import _score_argv


class _StubHandler(BaseHTTPRequestHandler):
    """Routes by path; each path returns a canned behavior. Requests are
    counted per path in server.hits."""

    def do_POST(self):  # noqa: N802 (stdlib casing)
        self.server.hits[self.path] = self.server.hits.get(self.path, 0) + 1
        length = int(self.headers.get("Content-Length", "0"))
        request = json.loads(self.rfile.read(length) or b"{}")
        route = getattr(self.server, "routes", {}).get(self.path)
        if route is None:
            self.send_error(404)
            return
        status, payload = route(request)
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # the client gave up (/slow)
            pass

    def log_message(self, *args):  # keep test output quiet
        return


def _length_vectors(req):
    return 200, {"vectors": [[float(len(t)), 1.0] for t in req["texts"]]}


@pytest.fixture(scope="module")
def stub():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.hits = {}
    server.routes = {
        "/embed": _length_vectors,
        "/embed-score": _length_vectors,
        "/embed-short": lambda req: (200, {"vectors": []}),
        "/embed-shape": lambda req: (200, {"vectors": [["x", "y"] for _ in req["texts"]]}),
        "/embed-missing": lambda req: (200, {"result": "ok"}),
        "/llm": lambda req: (
            200,
            {"completion": f"echo:{req['prompt']}|{req['params'].get('temperature', 'none')}"},
        ),
        "/llm-broken": lambda req: (200, {"completion": 17}),
        "/llm-garbage": lambda req: (200, b"not json at all"),
        "/llm-deep": lambda req: (200, b"[" * 100_000 + b"]" * 100_000),
        "/llm-surrogate": lambda req: (200, b'{"completion": "\\ud800"}'),
        "/gone": lambda req: (500, {"error": "boom"}),
        "/slow": lambda req: (time.sleep(0.3), (200, {"vectors": []}))[1],
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def stub_server(stub):
    return f"http://127.0.0.1:{stub.server_address[1]}"


def test_embedding_round_trip(stub_server):
    client = EmbeddingClient(f"{stub_server}/embed")
    vectors = client.embed_texts(["order", "ab"])
    assert vectors == [[5.0, 1.0], [2.0, 1.0]]
    assert client.last_dimension == 2
    assert client.provider_info() == {
        "provider": f"{stub_server}/embed",
        "dimension": 2,
    }


def test_embedding_single_text_adapter(stub_server):
    client = EmbeddingClient(f"{stub_server}/embed")
    vec = client.embed("order")
    assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "path, fragment",
    [
        ("/embed-missing", "vectors"),
        ("/embed-short", "expected 2 vectors"),
        ("/embed-shape", "float array"),
        ("/gone", "request failed"),
    ],
)
def test_embedding_protocol_errors(stub_server, path, fragment):
    client = EmbeddingClient(f"{stub_server}{path}")
    with pytest.raises(EndpointProtocolError) as err:
        client.embed_texts(["a", "b"])
    assert fragment in str(err.value)


def test_llm_round_trip(stub_server):
    client = LlmClient(f"{stub_server}/llm", timeout=10.0)
    record = client.complete("ping", params={"temperature": 0})
    assert record.completion == "echo:ping|0"
    assert json.loads(record.raw_response)["completion"] == record.completion
    assert record.elapsed_seconds >= 0.0
    assert record.timeout_seconds == 10.0


def test_llm_protocol_errors(stub_server):
    with pytest.raises(EndpointProtocolError, match="completion"):
        LlmClient(f"{stub_server}/llm-broken").complete("x")
    for path in ("/llm-garbage", "/llm-deep", "/llm-surrogate"):
        with pytest.raises(EndpointProtocolError, match="not JSON"):
            LlmClient(f"{stub_server}{path}").complete("x")


def test_unreachable_endpoint(stub_server):
    client = LlmClient("http://127.0.0.1:9/llm", timeout=0.5)
    with pytest.raises(EndpointProtocolError, match="request failed"):
        client.complete("x")


def test_read_timeout_is_a_protocol_error(stub_server):
    # the stub accepts the request, then answers only after the client's timeout
    client = EmbeddingClient(f"{stub_server}/slow", timeout=0.1)
    with pytest.raises(EndpointProtocolError, match="request failed: timed out"):
        client.embed_texts(["a"])


def test_score_embeds_each_shared_group_once(stub, stub_server, cli, desk_dir, monkeypatch):
    monkeypatch.setenv(EMBED_ENDPOINT_VAR, f"{stub_server}/embed-score")
    result = cli(*_score_argv(desk_dir), "--json")
    assert result.code == 0, result.err
    sf = json.loads(result.out)["inputs"]["SF"]
    assert sf["provider"] == {"provider": f"{stub_server}/embed-score", "dimension": 2}
    groups = [document_groups(loads_model((desk_dir / name).read_text("utf-8")))
              for name in ("original.archmeta.json", "process_b.archmeta.json")]
    cosines = group_cosines(*groups, lambda text: dense_vector([float(len(text)), 1.0]))
    assert sf["group_cosines"] == cosines and len(cosines) == 3
    # one request for every text of both models
    assert stub.hits["/embed-score"] == 1


def test_endpoints_read_from_environment(monkeypatch):
    monkeypatch.delenv(EMBED_ENDPOINT_VAR, raising=False)
    monkeypatch.delenv(LLM_ENDPOINT_VAR, raising=False)
    assert embed_endpoint_from_env() is None
    assert llm_endpoint_from_env() is None
    monkeypatch.setenv(EMBED_ENDPOINT_VAR, "http://example.test/embed")
    monkeypatch.setenv(LLM_ENDPOINT_VAR, "")
    assert embed_endpoint_from_env() == "http://example.test/embed"
    assert llm_endpoint_from_env() is None
