"""Every name the benchmark's hooks wrap still exists.

``perfbench/hooks.py`` patches program functions and methods by name and
reports a missing one as absent instead of failing, so a rename would
only show as a silently missing span.  This installs every hook, checks
that none is absent and undoes them; it runs no engine.
"""

import importlib.util
from pathlib import Path

HOOKS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "hooks.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_hooks", HOOKS_PY)
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    return hooks


def test_every_hook_target_exists():
    hooks = load_hooks()
    spans = hooks.install_spans(hooks.Tracer())
    try:
        events = hooks.install_event_timer([], lambda: None)
        try:
            assert events.absent == []
        finally:
            events.undo()
        assert spans.absent == []
    finally:
        spans.undo()
