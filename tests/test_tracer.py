"""The benchmark tracer still finds, wraps and restores every target, and
still counts attention work exactly.

``perfbench/tracer.py`` patches memformer attributes by name; a rename or a
method moved to a base class breaks ``--trace 1`` runs. It also reads the
bank length from axis 1 of the keys ``attend`` receives. These tests fail
first instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from memformer import autodiff as ad
from memformer.attention import MemoryAttention

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


def test_attend_work_counts_the_bank_length():
    module = _load_tracer_module()
    tracer = module.Tracer()
    batch, tokens, capacity, width = 2, 3, 4, 8
    rng = np.random.default_rng(0)
    block = MemoryAttention(width, 2, capacity, rng, dropout_rate=0.1)
    block.memory = rng.standard_normal((capacity, width))
    z = ad.constant(rng.standard_normal((batch, tokens, width)))
    try:
        tracer.install()
        block.forward(z, train=False)
    finally:
        tracer.uninstall()
    work = [rec[module.WORK] for rec in tracer.spans if rec[module.NAME] == "attention.attend"]
    assert work == [4 * batch * tokens * capacity * width]
