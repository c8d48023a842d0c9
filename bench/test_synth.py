"""Micro-benchmarks of the SPL layers, outside the tier-1 suite.

    python -m pytest bench/ --benchmark-only

The bundle is the 2-day seed-101 scenario at the real 1200 samples per
terminal-hour, the shape of the benchmark's `dense` workload: `synth`
generating it, then writing it (the whole bundle, and `write_spl` alone on a
stream generated once), then `parse_spl` and `hourly_series` reading it back
as the laeq stage of `airnoise report` does.
"""

from __future__ import annotations

import io

import pytest

from airnoise import acoustics, ingest, synth

DENSE = synth.ScenarioConfig(seed=101, days=2, samples_per_hour=1200)
ROWS = DENSE.days * 24 * 5 * DENSE.samples_per_hour  # 5 terminals


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("dense")
    synth.write_scenario(DENSE, out)
    return out


def test_generate(benchmark):
    generated, _ = benchmark(synth.generate, DENSE)
    assert len(generated.spl) == ROWS


@pytest.fixture(scope="module")
def stream():
    return synth.generate(DENSE)[0].spl


def test_write_spl(benchmark, stream):
    def write():
        text = io.StringIO()
        ingest.write_spl(stream, text)
        return text.getvalue()

    assert benchmark(write).count("\n") == ROWS + 1


def test_write_scenario(benchmark, tmp_path):
    written, _ = benchmark(synth.write_scenario, DENSE, tmp_path)
    assert len(written.spl) == ROWS


def test_parse_spl(benchmark, bundle):
    samples = benchmark(ingest.parse_spl, bundle / "spl.csv")
    assert len(samples) == ROWS


def test_hourly_series(benchmark, bundle):
    samples = ingest.parse_spl(bundle / "spl.csv")
    series = benchmark(acoustics.hourly_series, samples, acoustics.DEFAULT_RETENTION_DBA)
    assert len(series) == ROWS // DENSE.samples_per_hour
