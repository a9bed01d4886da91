"""The action-execution service (Sec. 4.5).

Receives one ``log:request`` per action component carrying every
surviving tuple ("for each tuple of variable bindings, the action
component is executed, again via the GRH" — once per tuple is a statement
about effects, not messages) and carries the action out, tuple by tuple
in relation order, against its :class:`~repro.actions.ActionRuntime`.
"""

from __future__ import annotations

from ..actions import (ACTION_NS, ActionError, ActionMarkupError,
                       ActionRuntime, TemplateError, parse_action_component)
from ..bindings import Binding
from ..grh.messages import Request
from .base import LanguageService, ServiceError

__all__ = ["ActionExecutionService", "ACTION_NS"]


class ActionExecutionService(LanguageService):
    """Executes action components against a runtime."""

    service_name = "actions"

    def __init__(self, runtime: ActionRuntime | None = None) -> None:
        self.runtime = runtime if runtime is not None else ActionRuntime()
        self.executed = 0

    def action(self, request: Request, binding: Binding) -> None:
        if request.content is None:
            raise ServiceError("action request carries no content")
        try:
            action = parse_action_component(request.content)
        except ActionMarkupError as exc:
            raise ServiceError(str(exc)) from exc
        try:
            action.perform(self.runtime, binding)
        except (ActionError, TemplateError) as exc:
            raise ServiceError(str(exc)) from exc
        self.executed += 1
