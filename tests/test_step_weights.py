"""The adapters' effective weights, built once per optimizer step, against
the per-sample loop that built them again on every sample's tape.

``accumulate_gradients`` records the weights on the batch's first tape and
runs that tape's backward last, so the adapters back-propagate the summed
gradient once. That changes only the order of floating-point sums: a batch
of one must give the per-sample loop's bytes, and a larger batch its
gradients to rounding.
"""

import importlib

import numpy as np
import pytest

from clothfold import autodiff as ad
from clothfold.perception import ModelConfig, PerceptionModel
from clothfold.trainer import TrainConfig, generate_dataset, load_dataset, train
from clothfold.trainer.train import accumulate_gradients, sample_loss
from test_grad_oracle import _sample

# The module; ``clothfold.trainer.train`` as an attribute is the function.
train_module = importlib.import_module("clothfold.trainer.train")


def per_sample_gradients(model, batch):
    """The oracle: one tape per sample, each recording its own effective
    weights, backward in batch order."""
    values = []
    for sample in batch:
        with ad.Tape() as tape:
            loss = sample_loss(model, sample, 1.0 / len(batch))
            tape.backward(loss)
        values.append(loss.item() * len(batch))
    return values


def _generic_model(cfg: ModelConfig) -> PerceptionModel:
    """Trainables moved off the initial point, where B = 0 gives A no gradient."""
    model = PerceptionModel(cfg)
    rng = np.random.default_rng(3)
    for p in model.trainable_parameters().values():
        p.data += rng.normal(0.0, 0.05, p.shape)
    return model


@pytest.mark.parametrize("embed_dim", [16, 32])
@pytest.mark.parametrize("fusion", ["cross-attention", "transformer"])
@pytest.mark.parametrize("adapter", ["dora", "lora"])
def test_batch_step_gradients_equal_the_per_sample_loop(adapter, fusion, embed_dim):
    cfg = ModelConfig(embed_dim=embed_dim, image_size=32, adapter=adapter, fusion=fusion)
    runs = []
    for step in (per_sample_gradients, accumulate_gradients):
        model = _generic_model(cfg)
        batch = [_sample(model, seed) for seed in range(4)]
        values = step(model, batch)
        runs.append((values, {k: p.grad for k, p in model.trainable_parameters().items()}))
    (want_values, want), (got_values, got) = runs
    # The forwards are the same expressions on the same values.
    assert got_values == want_values
    assert want.keys() == got.keys()
    for name in want:
        norm = np.linalg.norm(want[name])
        assert norm > 0, name
        assert np.linalg.norm(got[name] - want[name]) <= 1e-12 * norm, name


@pytest.fixture(scope="module")
def demos(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "tiny"
    generate_dataset(root, seed=9, episodes_per_family=1)
    return load_dataset(root)[1][:8]


@pytest.mark.parametrize("adapter", ["dora", "lora", "ia3", "none"])
def test_batch_of_one_trains_the_per_sample_loops_bytes(demos, monkeypatch, adapter):
    cfg = ModelConfig(embed_dim=16, depth=1, patch_size=16, image_size=112, seed=1,
                      adapter=adapter)
    tc = TrainConfig(epochs=2, batch_size=1, val_fraction=0.25, learning_rate=1e-3)
    model = PerceptionModel(cfg)
    result = train(demos, model, tc)
    with monkeypatch.context() as m:
        # Today's loop for the steps, and each validation sample's own weights.
        m.setattr(train_module, "accumulate_gradients", per_sample_gradients)
        m.setattr(train_module, "sample_loss",
                  lambda model, s, weight=1.0, weights=None: sample_loss(model, s, weight))
        oracle = PerceptionModel(cfg)
        want = train(demos, oracle, tc)
    assert result.loss_curve == want.loss_curve
    assert all(row["val_loss"] is not None for row in result.loss_curve)
    for name, p in oracle.named_parameters().items():
        assert model.named_parameters()[name].data.tobytes() == p.data.tobytes(), name


def _tapes(monkeypatch, model, batch):
    """The nodes of each tape ``accumulate_gradients`` runs backward on, in
    that order."""
    tapes = []
    backward = ad.Tape.backward

    def spy(tape, loss):
        tapes.append(list(tape.nodes))
        return backward(tape, loss)

    with monkeypatch.context() as m:
        m.setattr(ad.Tape, "backward", spy)
        accumulate_gradients(model, batch)
    return tapes


def test_adapter_nodes_are_on_the_first_tape_only(monkeypatch):
    model = PerceptionModel(ModelConfig())
    adapter_cells = {id(p.cell) for name, p in model.trainable_parameters().items()
                     if name.startswith("adapter.")}
    samples = [_sample(model, seed) for seed in range(4)]

    (one,) = _tapes(monkeypatch, model, samples[:1])
    assert len(one) == 218         # perfbench's autodiff.tape_nodes_per_sample at batch 1

    tapes = _tapes(monkeypatch, model, samples)
    # Each tape gains the 1/4 loss weight's node; the first sample's tape,
    # which runs last, alone holds the eight DoRA adapters' seven nodes each.
    assert [len(nodes) for nodes in tapes] == [219 - 56] * 3 + [219]
    reads_adapters = [any(id(c) in adapter_cells for _, inputs, _ in nodes for c in inputs)
                      for nodes in tapes]
    assert reads_adapters == [False, False, False, True]
