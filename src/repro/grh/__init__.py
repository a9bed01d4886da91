"""The Generic Request Handler layer (Sec. 4.4): registry, messages,
component specs and the mediator itself."""

from .component import ComponentSpec, opaque_placeholders
from .handler import ActionSlot, GenericRequestHandler, GRHError
from .messages import (Detection, MessageError, REQUEST_KINDS, Request,
                       dead_letter_to_xml, detection_to_xml, error_message,
                       error_text, is_error, ok_message, request_to_xml,
                       xml_to_detection, xml_to_request)
from .health import DOWN, HEALTHY, HealthProber, ReplicaHealthBoard, SUSPECT
from .registry import (ECA_ONTOLOGY, FAMILIES, LanguageDescriptor,
                       LanguageRegistry, RegistryError)
from .resilience import (ActionExecutionError, BreakerPolicy, CircuitBreaker,
                         CircuitOpenError, DeadLetter, DeadLetterQueue,
                         HedgePolicy, ResilienceManager, RetryPolicy)

__all__ = [
    "GenericRequestHandler", "GRHError", "ActionSlot",
    "ComponentSpec", "opaque_placeholders",
    "LanguageDescriptor", "LanguageRegistry", "RegistryError", "FAMILIES",
    "ECA_ONTOLOGY",
    "HEALTHY", "SUSPECT", "DOWN", "ReplicaHealthBoard", "HealthProber",
    "Request", "Detection", "MessageError", "REQUEST_KINDS",
    "request_to_xml", "xml_to_request", "detection_to_xml",
    "xml_to_detection", "ok_message", "error_message", "is_error",
    "error_text", "dead_letter_to_xml",
    "RetryPolicy", "BreakerPolicy", "HedgePolicy", "CircuitBreaker",
    "CircuitOpenError", "ActionExecutionError", "DeadLetter",
    "DeadLetterQueue", "ResilienceManager",
]
