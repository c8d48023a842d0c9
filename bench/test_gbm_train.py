"""Micro-benchmark of the fit that `airnoise train` and `report` run: one
`gbm.train_models` call on both noise models, outside the tier-1 suite.

    python -m pytest bench/ --benchmark-only

The data are the two noise models of the 2-day seed-101 scenario from
`synth` (a bundle of the benchmark's `cold` workload), built, split and
configured as `airnoise report` does, with the patience of 300 rounds that
the benchmark sets, so every call runs all 300 rounds of each model.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from airnoise import cli, fusion, gbm, synth

SEED = 101


@pytest.fixture(scope="module")
def fit_args(tmp_path_factory):
    """The arguments of the CLI's ``gbm.train_models`` call."""
    bundle = tmp_path_factory.mktemp("bundle")
    out = tmp_path_factory.mktemp("out")
    synth.write_scenario(synth.ScenarioConfig(seed=SEED, days=2), bundle)
    assert cli.main(["fuse", "--in", str(bundle), "--out", str(out), "--seed", str(SEED)]) == 0
    table = fusion.read_features(out / "features.csv")
    rows = cli._fit_rows(gbm.split_data(table, gbm.TrainConfig().split_fraction, SEED))
    assert list(rows) == list(cli.MODEL_TARGETS)
    config = replace(cli.RunConfig(seed=SEED), early_stopping_patience=300).train_config()
    return list(rows.values()), config, table.feature_names


def test_train_models(benchmark, fit_args):
    fits = benchmark(gbm.train_models, *fit_args)
    assert [len(history) for _, history in fits] == [300, 300]
