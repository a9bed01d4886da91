"""Component-language services and transports (Fig. 3's right-hand side)."""

from .action_service import ActionExecutionService
from .base import LanguageService, ServiceError
from .defaults import Deployment, standard_deployment
from .event_service import (AtomicEventService, EventDetectionService,
                            SnoopService, XChangeService)
from .query_services import (DATALOG_LANG, DatalogService, EXIST_LANG,
                             ExistLikeService, SPARQL_LANG, XQ_LANG,
                             XQService)
from .test_service import TestLanguageService
from .transports import (HttpServiceServer, HybridTransport,
                         InProcessTransport, PooledHttpTransport,
                         ServiceStatusError, TransportError)

__all__ = [
    "LanguageService", "ServiceError",
    "EventDetectionService", "AtomicEventService", "SnoopService",
    "XChangeService",
    "XQService", "ExistLikeService", "DatalogService",
    "XQ_LANG", "EXIST_LANG", "SPARQL_LANG", "DATALOG_LANG",
    "TestLanguageService", "ActionExecutionService",
    "InProcessTransport", "HybridTransport", "PooledHttpTransport",
    "HttpServiceServer",
    "TransportError", "ServiceStatusError",
    "Deployment", "standard_deployment",
]
