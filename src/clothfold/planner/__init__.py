from .grammar import (
    GrammarError,
    PlanningError,
    SubTask,
    normalize_text,
    split_at_conjunction,
    tokenize_text,
    validate_subtask,
)
from .templates import (
    AUX_FAMILIES,
    TASK_FAMILIES,
    HighLevelCommand,
    command_bank,
    decompose,
    parse_command,
)
from .llm import BackendError, LlmBackendConfig, PlanValidationError, llm_decompose

__all__ = [
    "AUX_FAMILIES", "BackendError", "GrammarError", "HighLevelCommand",
    "LlmBackendConfig", "PlanValidationError", "PlanningError",
    "SubTask", "TASK_FAMILIES", "command_bank", "decompose", "llm_decompose",
    "normalize_text", "parse_command", "split_at_conjunction",
    "tokenize_text", "validate_subtask",
]
