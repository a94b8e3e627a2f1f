"""Optional remote LLM planning backend (chat-completions style over HTTP).

The template planner stays the reference; a backend is a drop-in whose output
is grammar-checked line by line, falling back to the templates whenever the
command is template-decomposable.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Optional, Union

from .grammar import GrammarError, PlanningError, SubTask, validate_subtask
from .templates import FAMILY_KIND, HighLevelCommand, decompose, parse_command

log = logging.getLogger(__name__)

Transport = Callable[[str, dict, dict, float], dict]


class BackendError(RuntimeError):
    """Network/timeout/protocol failure talking to the LLM endpoint."""


class PlanValidationError(PlanningError):
    """A completion line failed the sub-task grammar."""

    def __init__(self, line: str, cause: Exception):
        super().__init__(f"invalid sub-task line {line!r}: {cause}")
        self.line = line
        self.cause = cause


def default_system_prompt() -> str:
    return resources.files("clothfold.assets").joinpath("planner_prompt.txt").read_text()


@dataclass
class LlmBackendConfig:
    endpoint_url: str
    model: str = "gpt-4o"
    api_key_env: str = "CLOTHFOLD_LLM_API_KEY"
    system_prompt: str = field(default_factory=default_system_prompt)
    timeout_s: float = 30.0

    def __post_init__(self):
        if not re.match(r"^https?://", self.endpoint_url):
            raise ValueError(f"endpoint URL must be http(s), got {self.endpoint_url!r}")
        # A JSON config may hold NaN and Infinity, which sockets reject.
        if type(self.timeout_s) not in (int, float) or not 0 < self.timeout_s < math.inf:
            raise ValueError(f"timeout must be a positive finite number, "
                             f"got {self.timeout_s!r}")


def _http_transport(url: str, body: dict, headers: dict, timeout_s: float) -> dict:
    data = json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url, data=data, method="POST",
                                 headers={"Content-Type": "application/json", **headers})
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, http.client.HTTPException, TimeoutError,
            UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise BackendError(f"LLM endpoint failure at {url}: {e}") from e


def request_completion(backend: LlmBackendConfig, user_text: str,
                       transport: Optional[Transport] = None) -> str:
    headers = {}
    key = os.environ.get(backend.api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    body = {
        "model": backend.model,
        "messages": [
            {"role": "system", "content": backend.system_prompt},
            {"role": "user", "content": user_text},
        ],
        "temperature": 0.0,
    }
    send = transport or _http_transport
    resp = send(backend.endpoint_url, body, headers, backend.timeout_s)
    try:
        content = resp["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as e:
        raise BackendError(f"malformed completion payload: {resp!r}") from e
    if not isinstance(content, str):
        raise BackendError(f"completion content is not a string: {resp!r}")
    return content


_LINE_PREFIX = re.compile(r"^\s*(?:[-*]|\(?\d+[.):]?|step\s+\d+[:.]?)\s*", re.IGNORECASE)


def parse_completion(text: str, cloth_kind: Optional[str] = None) -> list[SubTask]:
    """Parse a completion line-by-line into validated sub-tasks.

    Blank lines are dropped; list markers / numbering are stripped; any
    remaining line must pass the grammar or the whole completion is rejected.
    """
    subtasks = []
    for raw in text.splitlines():
        line = _LINE_PREFIX.sub("", raw).strip().strip('"')
        if not line:
            continue
        try:
            subtasks.append(validate_subtask(line, cloth_kind=cloth_kind))
        except GrammarError as e:
            raise PlanValidationError(raw, e) from e
    if not subtasks:
        raise PlanValidationError(text, GrammarError("empty-text", "no sub-task lines"))
    return subtasks


def llm_decompose(command: Union[str, HighLevelCommand],
                  backend: LlmBackendConfig,
                  transport: Optional[Transport] = None) -> list[SubTask]:
    """Decompose via the remote backend, grammar-checking the result.

    Validation failures fall back to the template planner when the command is
    template-decomposable; otherwise the validation error propagates. Network
    errors always propagate (the caller decides whether to fall back).
    """
    if isinstance(command, str):
        command = parse_command(command)
    completion = request_completion(backend, command.text, transport=transport)
    kind = command.cloth_kind or (FAMILY_KIND.get(command.task_family)
                                  if command.task_family else None)
    try:
        return parse_completion(completion, cloth_kind=kind)
    except PlanValidationError as e:
        if command.known:
            log.warning("LLM completion rejected (%s); falling back to templates. Raw: %r",
                        e, completion)
            return decompose(command)
        raise
