"""Micro-benchmark of `gbm.train`, outside the tier-1 suite.

    python -m pytest bench/ --benchmark-only

The data are the two noise models of the 2-day seed-101 scenario from
`synth` (a bundle of the benchmark's `cold` workload), built, split and
configured as `airnoise report` does, with the patience of 300 rounds that
the benchmark sets, so every call runs all 300 rounds.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from airnoise import cli, fusion, gbm, synth

SEED = 101


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("bundle")
    out = tmp_path_factory.mktemp("out")
    synth.write_scenario(synth.ScenarioConfig(seed=SEED, days=2), bundle)
    assert cli.main(["fuse", "--in", str(bundle), "--out", str(out), "--seed", str(SEED)]) == 0
    table = fusion.read_features(out / "features.csv")
    train_part, valid_part = gbm.split_data(table, gbm.TrainConfig().split_fraction, SEED)
    config = replace(cli.RunConfig(seed=SEED), early_stopping_patience=300).train_config()
    return {
        name: (*cli._model_rows(train_part, name)[:2], *cli._model_rows(valid_part, name)[:2],
               config, table.feature_names)
        for name in cli.MODEL_TARGETS
    }


@pytest.mark.parametrize("name", ["takeoff", "landing"])
def test_train(benchmark, models, name):
    _, history = benchmark(gbm.train, *models[name])
    assert len(history) == 300
