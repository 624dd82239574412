"""Generative agent-based simulation with a game master.

Agents act in free text; a game master grounds those attempts into event
statements, grounded state, and observations.  Scripted model backends
make whole episodes deterministic and replayable byte for byte.
"""

from .agent import (
    AgentComponent,
    ConstantComponent,
    GenerativeAgent,
    ModelQueryComponent,
    ObservationBuffer,
    three_questions_components,
)
from .config import BuiltScenario, ScenarioConfig, build, load_config
from .errors import (
    BackendUnavailable,
    ConfigError,
    ConfigValidationError,
    EpisodeAbort,
    InvalidModelOutput,
    NoMatchingOption,
    NotANumber,
    SimulationError,
)
from .game_master import (
    ConversationScene,
    EpisodeResult,
    GameMaster,
    GMComponent,
    ObservationDelivery,
    PhraseTerminator,
    spawn_nested_game,
)
from .genesis import AgentProfile, default_age_ladder, generate_backstory, generate_formative_memories
from .grounding import (
    InventoryComponent,
    InventoryState,
    LocationComponent,
    Questionnaire,
    administer_questionnaire,
    apply_transfer,
    parse_trade_from_event,
)
from .kernel import (
    ActionSpec,
    AgentAction,
    ClockMode,
    EventStatement,
    GameClock,
    Observation,
    OutputKind,
    TraceRecord,
)
from .memory import HashEmbedder, MemoryBank, MemoryRecord
from .model import EchoModel, GenerativeModel, HttpModel, ScriptedModel, ScriptRule
from .phone import (
    CalendarApp,
    NotificationHub,
    Phone,
    PhoneUniverse,
    detect_phone_event,
    deliver_notifications,
    render_app_catalog,
    run_phone_scene,
    translate_action,
)
from .trace import read_trace, replay, run_built_scenario

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "AgentAction",
    "AgentComponent",
    "AgentProfile",
    "BackendUnavailable",
    "BuiltScenario",
    "CalendarApp",
    "ClockMode",
    "ConfigError",
    "ConfigValidationError",
    "ConstantComponent",
    "ConversationScene",
    "EchoModel",
    "EpisodeAbort",
    "EpisodeResult",
    "EventStatement",
    "GameClock",
    "GameMaster",
    "GenerativeAgent",
    "GenerativeModel",
    "GMComponent",
    "HashEmbedder",
    "HttpModel",
    "InvalidModelOutput",
    "InventoryComponent",
    "InventoryState",
    "LocationComponent",
    "MemoryBank",
    "MemoryRecord",
    "ModelQueryComponent",
    "NoMatchingOption",
    "NotANumber",
    "NotificationHub",
    "Observation",
    "ObservationBuffer",
    "ObservationDelivery",
    "OutputKind",
    "Phone",
    "PhoneUniverse",
    "PhraseTerminator",
    "Questionnaire",
    "ScenarioConfig",
    "ScriptRule",
    "ScriptedModel",
    "SimulationError",
    "TraceRecord",
    "administer_questionnaire",
    "apply_transfer",
    "build",
    "default_age_ladder",
    "deliver_notifications",
    "detect_phone_event",
    "generate_backstory",
    "generate_formative_memories",
    "load_config",
    "parse_trade_from_event",
    "read_trace",
    "render_app_catalog",
    "replay",
    "run_built_scenario",
    "run_phone_scene",
    "spawn_nested_game",
    "three_questions_components",
]
