"""Shared pytest configuration.

Hypothesis runs derandomized so a red property test reproduces exactly
on rerun; the deadline is disabled because the suite shares one CPU
with the Monte Carlo tests and per-example timing is meaningless there.
The bisections fixture counts the numeric solver's work.
"""

import numpy as np
import pytest
from hypothesis import settings

from lilbound import phi as phi_module

settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def bisections(monkeypatch) -> list:
    """The number of targets of each call of phi._bisect, the one
    bracket-and-bisect rule, in call order."""
    calls = []
    solve = phi_module._bisect

    def counting(f, targets, *rest):
        calls.append(int(np.size(targets)))
        return solve(f, targets, *rest)

    monkeypatch.setattr(phi_module, "_bisect", counting)
    return calls
