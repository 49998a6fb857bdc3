"""The benchmark tracer still finds, wraps and restores every target.

``perfbench/tracer.py`` patches memformer attributes by name; a rename or a
method moved to a base class breaks ``--trace 1`` runs. This test fails
first instead.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# attributes Tracer._targets yields: 22 package functions and methods plus
# 16 autodiff primitives
TARGETS = 38


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_target_and_restores_it():
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert len(saved) == TARGETS
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
