"""Remote-planner backend: request shape, completion parsing, validation
fallback, and error classes. A canned transport keeps most tests offline;
one test drives the real HTTP path against a local server."""

import http.server
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from clothfold import planner
from clothfold.planner.llm import (BackendError, LlmBackendConfig,
                                   PlanValidationError, llm_decompose,
                                   parse_completion, request_completion)

FIG2_PLAN = ("1. Grasp the left waist of the Trousers and place it to the right waist\n"
             "2. Grasp the left leg of the Trousers and place it to the right leg\n")


def canned(content: str):
    def transport(url, body, headers, timeout):
        canned.last_request = {"url": url, "body": body, "headers": headers}
        return {"choices": [{"message": {"content": content}}]}
    return transport


@pytest.fixture
def backend():
    return LlmBackendConfig(endpoint_url="http://localhost:1/v1/chat/completions",
                            model="test-model", timeout_s=5.0)


class TestConfig:
    def test_bad_url_rejected(self):
        with pytest.raises(ValueError):
            LlmBackendConfig(endpoint_url="ftp://nope")

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            LlmBackendConfig(endpoint_url="http://x", timeout_s=0)

    @pytest.mark.parametrize("name", ["endpoint_url", "model", "api_key_env",
                                      "system_prompt"])
    def test_text_field_must_be_a_string(self, name):
        fields = {"endpoint_url": "http://x", name: 5}
        with pytest.raises(TypeError, match=name):
            LlmBackendConfig(**fields)

    def test_prompt_asset_loads(self, backend):
        assert "Grasp the" in backend.system_prompt
        assert "Trousers" in backend.system_prompt


class TestRequest:
    def test_chat_body_shape(self, backend, monkeypatch):
        monkeypatch.setenv(backend.api_key_env, "sk-test")
        transport = canned("hello")
        out = request_completion(backend, "Fold the Trousers in half",
                                 transport=transport)
        assert out == "hello"
        body = canned.last_request["body"]
        assert body["model"] == "test-model"
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert canned.last_request["headers"]["Authorization"] == "Bearer sk-test"

    def test_missing_key_sends_no_auth(self, backend, monkeypatch):
        monkeypatch.delenv(backend.api_key_env, raising=False)
        transport = canned("x")
        request_completion(backend, "y", transport=transport)
        assert "Authorization" not in canned.last_request["headers"]

    def test_malformed_payload(self, backend):
        def transport(url, body, headers, timeout):
            return {"unexpected": True}
        with pytest.raises(BackendError):
            request_completion(backend, "y", transport=transport)


class TestParseCompletion:
    def test_fig2_plan_matches_templates(self, backend):
        got = llm_decompose("Fold the Trousers in half from left to right",
                            backend, transport=canned(FIG2_PLAN))
        want = planner.decompose("Fold the Trousers in half from left to right")
        assert [s.text for s in got] == [s.text for s in want]

    def test_blank_lines_stripped(self):
        subs = parse_completion("\n" + FIG2_PLAN.replace("\n", "\n\n"),
                                cloth_kind="trousers")
        assert len(subs) == 2

    def test_bullet_markers_stripped(self):
        subs = parse_completion(
            "- Grasp the left leg and place it over the right leg\n",
            cloth_kind="trousers")
        assert subs[0].pick_landmark == "left leg"

    def test_invalid_line_names_offender(self):
        with pytest.raises(PlanValidationError) as e:
            parse_completion("Wave the cloth", cloth_kind="towel")
        assert "Wave the cloth" in e.value.line

    def test_empty_completion_rejected(self):
        with pytest.raises(PlanValidationError):
            parse_completion("\n\n", cloth_kind="towel")


class TestFallback:
    def test_invalid_completion_falls_back_to_templates(self, backend, caplog):
        got = llm_decompose("Fold the Trousers in half from left to right",
                            backend, transport=canned("Wave the cloth"))
        want = planner.decompose("Fold the Trousers in half from left to right")
        assert [s.text for s in got] == [s.text for s in want]

    def test_unknown_command_propagates_validation_error(self, backend):
        with pytest.raises(PlanValidationError):
            llm_decompose("Levitate the sock", backend,
                          transport=canned("Wave the cloth"))

    def test_network_error_propagates(self, backend):
        def transport(url, body, headers, timeout):
            raise BackendError("connection refused")
        with pytest.raises(BackendError):
            llm_decompose("Fold the Trousers in half", backend, transport=transport)


class TestHttpPath:
    def test_real_http_roundtrip(self):
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                assert body["messages"][1]["role"] == "user"
                payload = json.dumps(
                    {"choices": [{"message": {"content": FIG2_PLAN}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            backend = LlmBackendConfig(
                endpoint_url=f"http://127.0.0.1:{port}/v1/chat/completions",
                timeout_s=10.0)
            plan = llm_decompose("Fold the Trousers in half from left to right",
                                 backend)
            assert len(plan) == 2
            assert plan[0].pick_landmark == "left waist"
        finally:
            server.shutdown()

    def test_unreachable_endpoint_is_backend_error(self):
        backend = LlmBackendConfig(endpoint_url="http://127.0.0.1:9/v1/chat",
                                   timeout_s=0.5)
        with pytest.raises(BackendError):
            request_completion(backend, "x")


HTTP_MODULES = ("http.client", "urllib.request", "urllib.error", "ssl", "email.parser")

# Run in a fresh interpreter: pytest itself has loaded the HTTP stack here.
IMPORT_PROBE = f"""
import json, sys
def loaded():
    return [m for m in {HTTP_MODULES!r} if m in sys.modules]
import clothfold.cli
from clothfold.planner import LlmBackendConfig, llm_decompose
seen = {{"import": loaded()}}
assert clothfold.cli.main(["plan", "--command", "Fold the Towel in half diagonally"]) == 0
def transport(url, body, headers, timeout):
    return {{"choices": [{{"message": {{"content": {FIG2_PLAN!r}}}}}]}}
backend = LlmBackendConfig(endpoint_url="http://localhost:1/v1/chat/completions")
plan = llm_decompose("Fold the Trousers in half from left to right", backend,
                     transport=transport)
assert [s.pick_landmark for s in plan] == ["left waist", "left leg"]
seen["plan"] = loaded()
print(json.dumps(seen))
"""


def test_http_stack_loads_only_with_a_remote_call():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == {"import": [], "plan": []}
