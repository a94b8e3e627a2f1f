import numpy as np
import pytest

from clothfold import autodiff as ad
from clothfold.perception import PerceptionModel


def finite_difference(fn, tensors, h=1e-5):
    """Independent central-difference oracle over a list of tensors.

    ``fn`` evaluates the scalar loss from current tensor values; gradients are
    estimated entry by entry without touching the tape machinery.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        for i in range(t.data.size):
            orig = t.data.flat[i]
            t.data.flat[i] = orig + h
            fp = fn()
            t.data.flat[i] = orig - h
            fm = fn()
            t.data.flat[i] = orig
            g.flat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def tape_grad():
    """Run fn under a fresh tape and return (loss_value, {tensor: grad})."""

    def runner(fn, tensors):
        for t in tensors:
            t.grad = None
        with ad.Tape() as tape:
            loss = fn()
            tape.backward(loss)
        return loss.item(), [t.grad.copy() for t in tensors]

    return runner


@pytest.fixture
def frozen_write_on_step(monkeypatch):
    """Each ``Adam.step`` also writes one frozen weight of the newest
    ``PerceptionModel``: a training step that lets a frozen tower move."""
    models = []
    init, step = PerceptionModel.__init__, ad.Adam.step

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        models.append(self)

    def leaky_step(self):
        step(self)
        next(iter(models[-1].frozen_parameters().values())).data.flat[0] += 1.0

    monkeypatch.setattr(PerceptionModel, "__init__", recording_init)
    monkeypatch.setattr(ad.Adam, "step", leaky_step)
