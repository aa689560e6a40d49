"""Step-plumbing budget for the training loop.

A training step clears grads and takes its Adam steps from lists built once
per run, so the number of module-tree walks does not grow with the number of
steps; a change that walks the tree once per step fails here.
"""

from fuselab import data as data_mod
from fuselab import harness, layers
from fuselab.config import ExperimentConfig


def test_parameter_walks_do_not_grow_with_steps(tmp_path, monkeypatch):
    samples = data_mod.gen_interaction_dataset(12, seed=3, noise=0.3)
    paths = {}
    for name, part in (("train", samples[:8]), ("val", samples[8:])):
        paths[name] = str(tmp_path / f"{name}.tsv")
        data_mod.write_dataset(paths[name], part)

    calls = []
    walk = layers.Module.parameters

    def counted(self, prefix=""):
        calls.append(prefix)
        return walk(self, prefix)

    monkeypatch.setattr(layers.Module, "parameters", counted)

    def walks(batch_size):
        cfg = ExperimentConfig(task="classification", fusion="gan",
                               modalities=("video", "speech"), epochs=1,
                               batch_size=batch_size, seed=5,
                               train_path=paths["train"], val_path=paths["val"])
        calls.clear()
        _, record = harness.train(cfg)
        return len(record.steps), len(calls)

    steps_2, walks_2 = walks(4)
    steps_4, walks_4 = walks(2)
    assert (steps_2, steps_4) == (2, 4)
    assert walks_2 == walks_4 > 0
