"""Built-in rule families.

Importing this package registers every rule with the registry.
"""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401
    cache,
    det,
    fence,
    gen,
    mem,
    obs,
)
