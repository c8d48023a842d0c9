"""Micro-benchmarks of `shapley.shapley_batch` and `exposure.gini_series`,
outside the tier-1 suite.

    python -m pytest bench/ --benchmark-only

The data come from one `airnoise report` on the 2-day seed-101 scenario from
`synth` (a bundle of the benchmark's `cold` workload), with the patience of
300 rounds that the benchmark sets. `shapley_batch` explains each model's
held-out rows, as the report's shap stage does; `gini_series` runs on the
exposure matrix of each of the report's thresholds.
"""

from __future__ import annotations

import pytest

from airnoise import cli, exposure, fusion, gbm, shapley, synth

SEED = 101
THRESHOLDS = cli.RunConfig().thresholds


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("bundle")
    out = tmp_path_factory.mktemp("out")
    synth.write_scenario(synth.ScenarioConfig(seed=SEED, days=2), bundle)
    config = bundle / "report.cfg"
    config.write_text("patience = 300\n", encoding="utf-8")
    assert cli.main(["report", "--in", str(bundle), "--out", str(out), "--seed", str(SEED),
                     "--config", str(config)]) == 0
    return out


@pytest.fixture(scope="module")
def explained(report):
    """Per model: the ensemble and its held-out rows."""
    table = fusion.read_features(report / "features.csv")
    _, test_part = gbm.split_data(table, gbm.TrainConfig().split_fraction, SEED)
    return {
        name: (gbm.from_json((report / f"model_{name}.json").read_text(encoding="utf-8"))[0],
               cli._model_rows(test_part, name)[0])
        for name in cli.MODEL_TARGETS
    }


@pytest.fixture(scope="module")
def matrices(report):
    return exposure.exposure_matrices(fusion.read_fused(report / "fused.csv"), THRESHOLDS)


@pytest.mark.parametrize("name", ["takeoff", "landing"])
def test_shapley_batch(benchmark, explained, name):
    ensemble, X = explained[name]
    attributions = benchmark(shapley.shapley_batch, ensemble, X)
    assert len(attributions) == X.shape[0] > 0


@pytest.mark.parametrize("theta", THRESHOLDS)
def test_gini_series(benchmark, matrices, theta):
    series = benchmark(exposure.gini_series, matrices[theta])
    assert len(series.entries) == len(matrices[theta].hours)
