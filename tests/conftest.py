"""Shared test settings and fixtures.

The property-based parser tests run under a fixed profile: derandomized (the
same examples on every run), no per-example deadline (the first examples pay
import and allocation costs on a loaded machine), no example database on
disk, and a bounded example count so they add only seconds to the suite.

A test that waits on the autodiff worker thread runs its body through the
``deadline`` fixture, so that a deadlock fails that test with every thread's
stack instead of stalling the suite.
"""

import sys
import threading
import traceback

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


# how long a test body that waits on the worker thread may run
DEADLINE_S = 120


@pytest.fixture
def deadline():
    """``run(fn)`` calls ``fn()`` on a thread of its own and returns its
    result or raises its error. If ``fn`` is still running after
    ``DEADLINE_S``, the test fails with the stack of every thread."""

    def run(fn):
        outcome = []

        def body():
            try:
                outcome.append((fn(), None))
            except BaseException as e:  # re-raised on the test's thread
                outcome.append((None, e))

        thread = threading.Thread(target=body, name="deadline", daemon=True)
        thread.start()
        thread.join(DEADLINE_S)
        if thread.is_alive():
            names = {t.ident: t.name for t in threading.enumerate()}
            stacks = "".join(
                f"\nthread {names.get(ident, ident)}:\n" + "".join(traceback.format_stack(frame))
                for ident, frame in sys._current_frames().items()
            )
            pytest.fail(f"still running after {DEADLINE_S} s; the stacks:{stacks}")
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    return run
