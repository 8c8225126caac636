"""Optional HTTP clients for external embedding and text-generation services.

Both speak a minimal JSON-over-POST contract so any provider can be adapted
with a thin shim:

  embedding:  {"texts": [...]}            -> {"vectors": [[...], ...]}
  generation: {"prompt": ..., "params": {...}} -> {"completion": ...}

The core pipeline never requires these; they exist so a caller can swap the
built-in lexical embedder for a dense model, or post an assembled prompt and
store the completion for later scoring. Endpoint URLs come from explicit
arguments or the ARCHMETA_EMBED_ENDPOINT / ARCHMETA_LLM_ENDPOINT variables.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import EndpointProtocolError
from .jsonin import decode_json
from .metrics.embedding import EmbeddingVector, dense_vector

EMBED_ENDPOINT_VAR = "ARCHMETA_EMBED_ENDPOINT"
LLM_ENDPOINT_VAR = "ARCHMETA_LLM_ENDPOINT"


def embed_endpoint_from_env() -> str | None:
    return os.environ.get(EMBED_ENDPOINT_VAR) or None


def llm_endpoint_from_env() -> str | None:
    return os.environ.get(LLM_ENDPOINT_VAR) or None


def _post_json(url: str, payload: Mapping[str, Any], timeout: float) -> tuple[Any, bytes]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
    except (urllib.error.URLError, TimeoutError) as exc:
        # a read timeout after connecting is raised bare, not wrapped in URLError
        raise EndpointProtocolError(f"{url}: request failed: {exc}") from exc
    try:
        return decode_json(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EndpointProtocolError(f"{url}: response is not JSON: {exc}") from exc


@dataclass(frozen=True)
class CompletionRecord:
    """One generation round trip, kept verbatim for audit."""

    completion: str
    raw_response: bytes
    elapsed_seconds: float
    timeout_seconds: float


class EmbeddingClient:
    """Dense-vector provider behind the texts->vectors contract."""

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url
        self.timeout = timeout
        self.last_dimension: int | None = None

    def embed_texts(self, texts: Sequence[str]) -> list[list[float]]:
        data, _ = _post_json(self.url, {"texts": list(texts)}, self.timeout)
        if not isinstance(data, dict) or "vectors" not in data:
            raise EndpointProtocolError(f"{self.url}: missing 'vectors' key")
        vectors = data["vectors"]
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise EndpointProtocolError(
                f"{self.url}: expected {len(texts)} vectors, got "
                f"{len(vectors) if isinstance(vectors, list) else type(vectors).__name__}"
            )
        out: list[list[float]] = []
        for vec in vectors:
            if not isinstance(vec, list) or not all(isinstance(x, (int, float)) for x in vec):
                raise EndpointProtocolError(f"{self.url}: vector is not a float array")
            out.append([float(x) for x in vec])
        if out:
            self.last_dimension = len(out[0])
        return out

    def embed(self, text: str) -> EmbeddingVector:
        """Single-text adapter with the same shape as the lexical embedder."""
        return dense_vector(self.embed_texts([text])[0])

    def provider_info(self) -> dict[str, Any]:
        """Identity block for the metric-report audit trail."""
        return {"provider": self.url, "dimension": self.last_dimension}


class LlmClient:
    """Prompt poster behind the prompt->completion contract."""

    def __init__(self, url: str, timeout: float = 120.0):
        self.url = url
        self.timeout = timeout

    def complete(self, prompt: str, params: Mapping[str, Any] | None = None) -> CompletionRecord:
        started = time.monotonic()
        data, raw = _post_json(
            self.url,
            {"prompt": prompt, "params": dict(params or {})},
            self.timeout,
        )
        elapsed = time.monotonic() - started
        if not isinstance(data, dict) or not isinstance(data.get("completion"), str):
            raise EndpointProtocolError(f"{self.url}: missing 'completion' string")
        return CompletionRecord(
            completion=data["completion"],
            raw_response=raw,
            elapsed_seconds=elapsed,
            timeout_seconds=self.timeout,
        )
