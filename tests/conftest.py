"""Shared test settings and fixtures.

The property-based parser tests run under a fixed profile: derandomized (the
same examples on every run), no per-example deadline (the first examples pay
import and allocation costs on a loaded machine), no example database on
disk, and a bounded example count so they add only seconds to the suite.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None, max_examples=100)
    settings.load_profile("tier1")


@pytest.fixture
def keep_forwards():
    """Wrap a model's ``forward``; returns the list of (batch, train, result)
    of every call made through it."""

    def install(model):
        calls = []
        original = model.forward

        def forward(batch, train=False):
            out = original(batch, train=train)
            calls.append((batch, train, out))
            return out

        model.forward = forward
        return calls

    return install
