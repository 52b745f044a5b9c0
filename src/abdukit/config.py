"""Run-wide limits.

Kept in its own module so core/solver/abduction can import it without
touching the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    """Limits shared by the library and the CLI.

    max_ground_rules bounds grounding; max_universe bounds the number of
    distinct ground literals the solver may enumerate over.  The budgets
    exist to fail loudly instead of hanging: this toolkit targets
    desk-scale programs, not industrial ones.
    """

    max_ground_rules: int = 5000
    max_universe: int = 18

    def __post_init__(self) -> None:
        if self.max_ground_rules < 1 or self.max_universe < 1:
            raise ValueError("budgets must be positive")


DEFAULT_CONFIG = RunConfig()
