from .model import (  # noqa: F401
    AgentSpec,
    MetricsConfig,
    Motion,
    ObjectSpec,
    ParseError,
    PipelineConfig,
    Scenario,
    SensorSpec,
    ValidationError,
    World,
    apply_overrides,
    load_scenario,
    world_at,
)
from .engine import RunReport  # noqa: F401
from .replay import ReplayData, load_replay  # noqa: F401
