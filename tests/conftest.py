"""Run the suite under the program's own thread budget.

Importing lindsim sets its one-thread BLAS defaults, which only take effect
if they are in place before numpy loads; conftest is imported before any
test module, so this import comes first.
"""

import lindsim  # noqa: F401
