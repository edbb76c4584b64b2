"""The benchmark's span tracer wraps lindsim functions by name; each name it
lists must still exist, or its layer silently goes untraced."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# traced names that no longer exist: validate_all moved to validation, the
# batched solver replaced solve_sdp, and every schedule is drawn and
# multiplied out through trajectory_channels, which replaced draw_gateset and
# gateset_channel
KNOWN_MISSING = {("harness", "validate_all"), ("sdp", "solve_sdp"),
                 ("sampling", "draw_gateset"), ("sampling", "gateset_channel")}


def test_traced_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {(module, name) for module, names in spans.LAYER_FUNCTIONS.items()
               for name in names if not hasattr(importlib.import_module(f"lindsim.{module}"), name)}
    assert missing == KNOWN_MISSING
