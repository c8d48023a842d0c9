import collections
import csv
import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import airnoise
from airnoise import acoustics, cli, fusion, gbm, ingest, shapley, tables
from airnoise.cli import build_parser, load_config_file, main, resolve_config
from airnoise.errors import InvalidConfig, NonFiniteTarget


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    assert main(["synth", "--seed", "11", "--days", "3", "--out", str(data)]) == 0
    return data


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    _one_error_line(capsys)


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    _one_error_line(capsys)


def test_bad_flag_value_exits_2(capsys):
    assert main(["exposure", "--theta", "not-a-number"]) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("argv,message", [
    (["report", "--seed", "abc"], "error: --seed: invalid value 'abc'\n"),
    (["report", "--theta", "x"], "error: --theta: invalid value 'x'\n"),
    (["report", "--theta", "65", "--theta", ""], "error: --theta: invalid value '65,'\n"),
    (["report", "--mapping", "foo"], "error: --mapping: invalid value 'foo'\n"),
    (["report", "--format", "xml"], "error: --format: invalid value 'xml'\n"),
    (["report", "--bogus"], "error: unrecognized arguments: --bogus\n"),
    (["synth", "--in", "data"], "error: unrecognized arguments: --in data\n"),
    (["report", "--days", "3"], "error: unrecognized arguments: --days 3\n"),
    (["report", "--seed"], "error: argument --seed: expected one argument\n"),
], ids=["seed", "theta", "empty-theta", "mapping", "format", "unknown-flag", "synth-in", "report-days", "no-value"])
def test_usage_error_is_one_line(capsys, argv, message):
    capsys.readouterr()
    assert main(argv) == 2
    assert _one_error_line(capsys) == message


def test_subcommand_flag_sets():
    flags = {name: {o for a in p._actions for o in a.option_strings}
             for name, p in build_parser()._subparsers._group_actions[0].choices.items()}
    common = {"-h", "--help", "--config", "--out", "--seed", "--theta", "--retention-dba", "--window-start",
              "--window-end", "--mapping", "--format"}
    assert flags.pop("synth") == common | {"--days"}
    assert all(given == common | {"--in"} for given in flags.values())


def test_theta_flag_reads_as_the_config_key(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("theta = 70,65\n")
    from_file = resolve_config(build_parser().parse_args(["exposure", "--config", str(conf)]))
    for argv in (["--theta", "70,65"], ["--theta", "70", "--theta", "65"], ["--theta=65,70", "--theta", "65"]):
        assert resolve_config(build_parser().parse_args(["exposure", *argv])) == from_file
    assert from_file.thresholds == (65.0, 70.0)


def test_theta_sorted_and_deduplicated():
    parser = build_parser()
    args = parser.parse_args(["exposure", "--theta", "70", "--theta", "65", "--theta", "70"])
    cfg = resolve_config(args)
    assert cfg.thresholds == (65.0, 70.0)


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("seed = 9\nretention_dba = 55.0  # lower cut\ntheta = 60,75\n")
    parser = build_parser()
    args = parser.parse_args(["laeq", "--config", str(conf), "--seed", "4"])
    cfg = resolve_config(args)
    assert cfg.seed == 4            # flag wins
    assert cfg.retention_dba == 55.0
    assert cfg.thresholds == (60.0, 75.0)


def test_config_file_unknown_key(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("nonsense = 1\n")
    with pytest.raises(InvalidConfig):
        load_config_file(conf)


def test_validate_clean_bundle(small_bundle, tmp_path):
    assert main(["validate", "--in", str(small_bundle), "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "findings.json").read_text())
    assert doc["findings"] == []


def test_validate_broken_bundle_exits_1(small_bundle, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("spl.csv", "flights.csv", "weather.csv", "population.csv", "tracts.csv", "nmts.csv"):
        (broken / name).write_text((small_bundle / name).read_text())
    # drop one weather hour
    lines = (broken / "weather.csv").read_text().splitlines()
    (broken / "weather.csv").write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    assert main(["validate", "--in", str(broken), "--out", str(tmp_path / "v")]) == 1


def test_silent_terminal_gives_one_spl_gap_per_window_hour(small_bundle, tmp_path):
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    _drop_terminal(bundle, "NMT5")
    out = tmp_path / "out"
    assert main(["validate", "--in", str(bundle), "--out", str(out)]) == 1
    findings = json.loads((out / "findings.json").read_text())["findings"]
    assert [(f["stream"], f["kind"], f["key"].partition("@")[0]) for f in findings] == [
        ("spl", "COVERAGE_GAP", "NMT5")] * 72
    assert len({f["key"] for f in findings}) == 72
    assert [p.name for p in out.iterdir()] == ["findings.json"]
    digest = hashlib.sha256((out / "findings.json").read_bytes()).hexdigest()
    assert digest == "6a752be4e48b70e51d279d1e98fa935b74040c1644d314f130425ef643bd30a0"


def test_laeq_rerun_byte_identical(small_bundle, tmp_path):
    out = tmp_path / "out"
    assert main(["laeq", "--in", str(small_bundle), "--out", str(out)]) == 0
    first = (out / "hourly_laeq.csv").read_bytes()
    assert main(["laeq", "--in", str(small_bundle), "--out", str(out)]) == 0
    assert (out / "hourly_laeq.csv").read_bytes() == first


def test_laeq_recomputes_on_param_change(small_bundle, tmp_path):
    out = tmp_path / "out"
    main(["laeq", "--in", str(small_bundle), "--out", str(out), "--retention-dba", "60"])
    first = (out / "hourly_laeq.csv").read_bytes()
    main(["laeq", "--in", str(small_bundle), "--out", str(out), "--retention-dba", "70"])
    assert (out / "hourly_laeq.csv").read_bytes() != first


def test_exposure_outputs(small_bundle, tmp_path):
    out = tmp_path / "out"
    assert main(["exposure", "--in", str(small_bundle), "--out", str(out)]) == 0
    for name in ("exposure_65.csv", "exposure_70.csv", "gini_65.csv", "gini_70.csv",
                 "compare.csv", "rotation.csv"):
        assert (out / name).exists(), name
    gini_lines = (out / "gini_65.csv").read_text().splitlines()
    # quiet hours serialize as an empty gini field, never NaN or 0
    empties = [ln for ln in gini_lines[1:] if ln.split(",")[1] == ""]
    assert empties
    assert not any("nan" in ln.lower() for ln in gini_lines)


def test_exposure_json_format(small_bundle, tmp_path):
    out = tmp_path / "out"
    assert main(["exposure", "--in", str(small_bundle), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "gini_65.json").read_text())
    assert isinstance(doc, list) and "gini" in doc[0]
    nulls = [e for e in doc if e["gini"] is None]
    assert nulls


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exposure_removes_tables_of_dropped_thresholds(small_bundle, tmp_path, fmt):
    out = tmp_path / "out"
    args = ["exposure", "--in", str(small_bundle), "--out", str(out)]
    assert main([*args, "--format", fmt]) == 0  # thresholds 65 and 70
    assert main([*args, "--theta", "60", "--theta", "70"]) == 0
    written = sorted(p.name for prefix in ("exposure_", "gini_") for p in out.glob(f"{prefix}*"))
    assert written == ["exposure_60.csv", "exposure_70.csv", "gini_60.csv", "gini_70.csv"]


def test_doubled_population_keeps_gini_and_doubles_exposed_totals(tmp_path):
    """Gini is scale-free, and a count that doubles doubles each exposed total
    exactly; no stage between population.csv and gini_*.csv may round."""
    bundle = tmp_path / "bundle"
    assert main(["synth", "--seed", "3", "--days", "3", "--out", str(bundle)]) == 0
    doubled = _copy_bundle(bundle, tmp_path / "doubled")
    population = ingest.parse_population(bundle / "population.csv")
    ingest.write_population([replace(p, defacto_count=2 * p.defacto_count) for p in population],
                            doubled / "population.csv")
    ginis = []
    for data in (bundle, doubled):
        out = tmp_path / f"out_{data.name}"
        assert main(["exposure", "--in", str(data), "--out", str(out)]) == 0
        ginis.append({p.name: list(csv.reader(p.open(newline=""))) for p in sorted(out.glob("gini_*.csv"))})
    base, twice = ginis
    assert sorted(base) == sorted(twice) == ["gini_65.csv", "gini_70.csv"]
    for name, rows in base.items():
        assert len(rows) == 1 + 72, name
        assert [r[1] for r in twice[name]] == [r[1] for r in rows], name
        assert [float(r[2]) for r in twice[name][1:]] == [2 * float(r[2]) for r in rows[1:]], name


def test_laeq_stage_drops_the_samples(small_bundle, tmp_path):
    """No stage after laeq reads the samples; held through training, they
    raised the peak RSS of a cold 2-day report by 12%."""
    run = cli.Run(build_parser().parse_args(["report", "--in", str(small_bundle), "--out", str(tmp_path)]))
    assert run.series and "spl" not in vars(run)


def test_laeq_reads_no_weather(small_bundle, tmp_path):
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    (bundle / "weather.csv").unlink()
    out = tmp_path / "out"
    assert main(["laeq", "--in", str(bundle), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["hourly_laeq.csv", "manifest.json"]


def test_window_flags_respected(small_bundle, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "laeq", "--in", str(small_bundle), "--out", str(out),
        "--window-start", "2023-01-01T00:00", "--window-end", "2023-01-02T00:00",
    ])
    assert rc == 0


@pytest.fixture(scope="module")
def small_report(small_bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    assert main(["report", "--in", str(small_bundle), "--out", str(out), "--seed", "11"]) == 0
    return out


def test_train_and_explain_subcommands(small_bundle, small_report, tmp_path):
    out = tmp_path / "out"
    assert main(["train", "--in", str(small_bundle), "--out", str(out), "--seed", "11"]) == 0
    assert (out / "model_takeoff.json").exists()
    assert (out / "model_landing.json").exists()
    assert main(["explain", "--in", str(small_bundle), "--out", str(out), "--seed", "11"]) == 0
    assert (out / "shap_values_takeoff.csv").exists()
    assert (out / "shap_summary_landing.csv").exists()
    # train/explain artifacts match the ones the full report produced
    assert (out / "model_takeoff.json").read_bytes() == (small_report / "model_takeoff.json").read_bytes()
    assert (out / "shap_values_takeoff.csv").read_bytes() == (small_report / "shap_values_takeoff.csv").read_bytes()


def test_report_reuses_fresh_intermediates(small_bundle, small_report):
    report_bytes = (small_report / "report.json").read_bytes()
    model_mtime = (small_report / "model_takeoff.json").stat().st_mtime_ns
    _drop_report_entry(small_report)
    assert main(["report", "--in", str(small_bundle), "--out", str(small_report), "--seed", "11"]) == 0
    assert (small_report / "report.json").read_bytes() == report_bytes
    # models were loaded from the manifest-backed cache, not retrained
    assert (small_report / "model_takeoff.json").stat().st_mtime_ns == model_mtime


def test_report_shape(small_report):
    doc = json.loads((small_report / "report.json").read_text())
    assert set(doc) == {"meta", "exposure", "gini", "comparison", "rotation", "model", "shap", "validation"}
    assert doc["meta"]["thresholds"] == [65.0, 70.0]
    assert set(doc["model"]) == {"takeoff", "landing"}
    assert len(doc["shap"]["takeoff"]["summary"]) == 22
    assert {r["nmt_a"] for r in doc["rotation"]}


# columns that hold identifiers or timestamps; every other cell is a number
TEXT_COLUMNS = {"key", "tract_id", "nmt_id", "hour_start", "operation", "source_nmt",
                "nmt_a", "nmt_b", "feature", "kind"}


def test_report_csv_numeric_cells_parse(small_report):
    csvs = sorted(small_report.glob("*.csv"))
    assert any(p.name.startswith("shap_values_") for p in csvs)
    for path in csvs:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        for row in rows[1:]:
            for col, cell in zip(header, row):
                if col in TEXT_COLUMNS or cell == "":
                    continue
                if path.name == "validation.csv" and row[0] == "diurnal":
                    continue    # the value of a diurnal row is its class label
                try:
                    float(cell)
                except ValueError:
                    pytest.fail(f"{path.name}: column {col!r} holds {cell!r}")


@pytest.mark.parametrize("keep", [0.5, -2])
def test_laeq_recomputes_torn_cache(small_bundle, tmp_path, keep):
    out = tmp_path / "out"
    assert main(["laeq", "--in", str(small_bundle), "--out", str(out)]) == 0
    path = out / "hourly_laeq.csv"
    whole = path.read_bytes()
    # cut mid-file, or inside the last row's final number
    path.write_bytes(whole[:int(len(whole) * keep)] if keep > 0 else whole[:keep])
    assert main(["laeq", "--in", str(small_bundle), "--out", str(out)]) == 0
    assert path.read_bytes() == whole
    assert sorted(p.name for p in out.iterdir()) == ["hourly_laeq.csv", "manifest.json"]


def _copy_bundle(src, dest):
    dest.mkdir()
    for name in ("spl.csv", "flights.csv", "weather.csv", "population.csv", "tracts.csv", "nmts.csv"):
        (dest / name).write_bytes((src / name).read_bytes())
    return dest


def test_bytes_moved_between_stage_inputs_are_a_miss(small_bundle, tmp_path, capsys):
    """Each input file of a stage enters its digest apart: moving the head of
    tracts.csv onto the end of population.csv, across a NUL, is a change."""
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    out = tmp_path / "out"
    tracts = (bundle / "tracts.csv").read_bytes()
    cut = tracts.index(b",perimeter") + len(b",perimeter")
    head, tail = tracts[:cut], tracts[cut:]
    (bundle / "tracts.csv").write_bytes(head + b"\x00" + tail)
    assert main(["fuse", "--in", str(bundle), "--out", str(out)]) == 0
    population = bundle / "population.csv"
    population.write_bytes(population.read_bytes() + b"\x00" + head)
    (bundle / "tracts.csv").write_bytes(tail)
    capsys.readouterr()
    assert main(["fuse", "--in", str(bundle), "--out", str(out)]) == 1
    assert _one_error_line(capsys).startswith("error: line 1: expected header tract_id,")


def test_empty_weather_without_a_window_exits_1_with_one_line(small_bundle, tmp_path, capsys):
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    (bundle / "weather.csv").write_bytes(b"")
    capsys.readouterr()
    assert main(["fuse", "--in", str(bundle), "--out", str(tmp_path / "out")]) == 1
    assert _one_error_line(capsys) == "error: cannot infer the study window from an empty weather stream\n"


def test_unknown_tract_exits_1_with_one_line(small_bundle, tmp_path, capsys):
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    lines = (bundle / "nmts.csv").read_text().splitlines()
    nmt, _, lat, lon = lines[1].split(",")
    lines[1] = ",".join([nmt, "NO_SUCH_TRACT", lat, lon])
    (bundle / "nmts.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["fuse", "--in", str(bundle), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: NMT {nmt} references unknown tract NO_SUCH_TRACT\n"


@pytest.fixture(scope="module")
def day_bundle(tmp_path_factory):
    data = tmp_path_factory.mktemp("day")
    assert main(["synth", "--seed", "3", "--days", "1", "--out", str(data)]) == 0
    return data


def test_shuffled_spl_with_repeats(day_bundle, tmp_path):
    """spl.csv's rows shuffled, with repeated (terminal, time) samples:
    findings.json lists every repeat in file order, and hourly_laeq.csv is
    that of the same rows stably sorted by (terminal, time)."""
    header, *rows = (day_bundle / "spl.csv").read_text().splitlines()
    rng = random.Random(21)
    rows += [row.rpartition(",")[0] + f",{rng.uniform(40, 90):.2f}" for row in rng.choices(rows, k=60)]
    rng.shuffle(rows)
    laeq = {}
    for name, order in (("shuffled", rows), ("sorted", sorted(rows, key=lambda row: row.split(",")[:2]))):
        seen: set[tuple[str, str]] = set()
        expected = []
        for row in order:
            nmt, ts, _ = row.split(",")
            if (nmt, ts) in seen:
                expected.append({"stream": "spl", "kind": "DUPLICATE_KEY", "key": f"{nmt}@{ts}",
                                 "detail": "duplicate sample", "severity": "error"})
            seen.add((nmt, ts))
        assert len(expected) == 60
        bundle = _copy_bundle(day_bundle, tmp_path / name)
        (bundle / "spl.csv").write_text("\n".join([header, *order]) + "\n")
        out = tmp_path / f"out_{name}"
        assert main(["validate", "--in", str(bundle), "--out", str(out)]) == 1
        assert json.loads((out / "findings.json").read_text())["findings"] == expected
        assert main(["laeq", "--in", str(bundle), "--out", str(out)]) == 0
        laeq[name] = (out / "hourly_laeq.csv").read_bytes()
    assert laeq["shuffled"] == laeq["sorted"]


def test_nearest_mapping_without_terminals_maps_no_tract(day_bundle, tmp_path, capsys):
    bundle = _copy_bundle(day_bundle, tmp_path / "bundle")
    (bundle / "nmts.csv").write_text("nmt_id,tract_id,lat,lon\n")
    tables = {}
    for mapping in ("containing", "nearest"):
        out = tmp_path / mapping
        capsys.readouterr()
        assert main(["exposure", "--in", str(bundle), "--out", str(out), "--mapping", mapping]) == 0
        assert capsys.readouterr().err == ""
        tables[mapping] = [(out / f"{name}.csv").read_bytes() for name in ("fused", "exposure_65", "gini_65")]
    assert tables["nearest"] == tables["containing"]


def test_population_tract_without_a_district_exits_1_with_one_line(day_bundle, tmp_path, capsys):
    bundle = _copy_bundle(day_bundle, tmp_path / "bundle")
    with open(bundle / "population.csv", "a") as fh:
        fh.write("ZZ,2023-01-01T00:00,5.0\n")
    out = tmp_path / "out"
    assert main(["validate", "--in", str(bundle), "--out", str(out)]) == 1
    assert [f["kind"] for f in json.loads((out / "findings.json").read_text())["findings"]] == ["DANGLING_REFERENCE"]
    capsys.readouterr()
    assert main(["report", "--in", str(bundle), "--out", str(out)]) == 1
    assert _one_error_line(capsys) == "error: tract 'ZZ' has no district\n"
    assert not (out / "report.json").exists()
    assert not (out / "model_takeoff.json").exists()  # it failed before training


@pytest.mark.parametrize("name,column,value,message", [
    ("tracts.csv", 2, "inf", "error: line 2: centroid_lat=inf outside (-inf, inf)\n"),
    ("nmts.csv", 3, "nan", "error: line 2: lon=nan outside (-inf, inf)\n"),
    ("population.csv", 2, "nan", "error: line 2: defacto_count=nan outside [0, inf)\n"),
    ("flights.csv", 2, "XX", "error: line 2: runway 'XX' has no numeric designator\n"),
], ids=["centroid-inf", "nmt-lon-nan", "count-nan", "runway-without-digit"])
def test_non_finite_number_or_runway_without_digit_exits_1_with_one_line(day_bundle, tmp_path, capsys, name,
                                                                          column, value, message):
    bundle = _copy_bundle(day_bundle, tmp_path / "bundle")
    lines = (bundle / name).read_text().splitlines()
    cells = lines[1].split(",")
    cells[column] = value
    lines[1] = ",".join(cells)
    (bundle / name).write_text("\n".join(lines) + "\n")
    for command in ("validate", "fuse"):
        capsys.readouterr()
        assert main([command, "--in", str(bundle), "--out", str(tmp_path / "out"), "--mapping", "nearest"]) == 1
        assert _one_error_line(capsys) == message


def test_malformed_window_flag_exits_2(small_bundle, tmp_path, capsys):
    for flag in ("--window-start", "--window-end"):
        capsys.readouterr()
        rc = main(["laeq", "--in", str(small_bundle), "--out", str(tmp_path / "out"), flag, "nope"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag}: invalid value 'nope'\n"


def test_malformed_window_config_exits_2(small_bundle, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    for key in ("window_start", "window_end"):
        conf.write_text(f"seed = 3\n{key} = nope\n")
        capsys.readouterr()
        rc = main(["laeq", "--in", str(small_bundle), "--out", str(tmp_path / "out"), "--config", str(conf)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {conf}:2: {key}: invalid value 'nope'\n"


@pytest.mark.parametrize("command,flags,conf,message", [
    ("exposure", ["--window-start", "2023-01-01T00:00+09:00"], None,
     "--window-start: invalid value '2023-01-01T00:00+09:00'"),
    ("exposure", ["--window-start", "2023-01-01T00:30", "--window-end", "2023-01-01T03:00"], None,
     "--window-start: invalid value '2023-01-01T00:30'"),
    ("validate", ["--window-end", "2023-01-02T00:00:30"], None,
     "--window-end: invalid value '2023-01-02T00:00:30'"),
    ("exposure", [], b"window_end = 2023-01-02T00:00Z\n", "{conf}:1: window_end: invalid value '2023-01-02T00:00Z'"),
    ("exposure", [], b"window_start = 2023-01-01T01:15\n", "{conf}:1: window_start: invalid value '2023-01-01T01:15'"),
    ("validate", [], b"seed = 3\xff\n", "{conf}: cannot read config file: it is not UTF-8 text"),
], ids=["offset-flag", "minutes-flag", "seconds-flag", "offset-config", "minutes-config", "config-not-utf8"])
def test_window_bound_and_config_text_errors_are_one_usage_line(small_bundle, tmp_path, capsys,
                                                                command, flags, conf, message):
    argv = [command, "--in", str(small_bundle), "--out", str(tmp_path / "out"), *flags]
    path = tmp_path / "run.conf"
    if conf is not None:
        path.write_bytes(conf)
        argv += ["--config", str(path)]
    capsys.readouterr()
    assert main(argv) == 2
    assert _one_error_line(capsys) == f"error: {message.format(conf=path)}\n"


def test_laeq_miss_drops_manifest_entry_first(small_bundle, tmp_path, monkeypatch):
    from airnoise import acoustics

    out = tmp_path / "out"
    assert main(["laeq", "--in", str(small_bundle), "--out", str(out)]) == 0
    assert "laeq" in json.loads((out / "manifest.json").read_text())

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(acoustics, "hourly_series", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["laeq", "--in", str(small_bundle), "--out", str(out), "--retention-dba", "70"])
    # the old output is still there, but no longer recorded as fresh
    assert "laeq" not in json.loads((out / "manifest.json").read_text())


def _exposure_summary(capsys, bundle, out):
    capsys.readouterr()
    assert main(["exposure", "--in", str(bundle), "--out", str(out)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("cut", ["mid-row", "line-aligned"])
def test_torn_fused_cache_is_recomputed(small_bundle, tmp_path, capsys, cut):
    out = tmp_path / "out"
    first = _exposure_summary(capsys, small_bundle, out)
    path = out / "fused.csv"
    whole = path.read_bytes()
    if cut == "mid-row":
        path.write_bytes(whole[:len(whole) // 2])
    else:
        lines = whole.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:len(lines) // 2]))
    assert _exposure_summary(capsys, small_bundle, out) == first
    assert path.read_bytes() == whole


def test_torn_model_cache_is_retrained(small_bundle, tmp_path):
    out = tmp_path / "out"
    args = ["report", "--in", str(small_bundle), "--out", str(out), "--seed", "11"]
    assert main(args) == 0
    report = (out / "report.json").read_bytes()
    path = out / "model_takeoff.json"
    model = path.read_bytes()
    path.write_bytes(model[:len(model) // 2])
    assert main(args) == 0
    assert (out / "report.json").read_bytes() == report
    assert path.read_bytes() == model
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("manifest", [b"[1,2]", b'"laeq"', b"\xff\xfe{", "outputs-list"],
                         ids=["array", "string", "not-utf8", "outputs-list"])
def test_malformed_manifest_is_a_miss(small_bundle, tmp_path, manifest):
    out = tmp_path / "out"
    args = ["laeq", "--in", str(small_bundle), "--out", str(out)]
    assert main(args) == 0
    laeq = out / "hourly_laeq.csv"
    whole, inode = laeq.read_bytes(), laeq.stat().st_ino
    path = out / "manifest.json"
    if manifest == "outputs-list":
        doc = json.loads(path.read_text())
        doc["laeq"]["outputs"] = list(doc["laeq"]["outputs"])
        manifest = json.dumps(doc).encode()
    path.write_bytes(manifest)
    assert main(args) == 0
    assert laeq.read_bytes() == whole
    assert laeq.stat().st_ino != inode  # recomputed and written again
    assert isinstance(json.loads(path.read_text())["laeq"]["outputs"], dict)
    assert sorted(p.name for p in out.iterdir()) == ["hourly_laeq.csv", "manifest.json"]


# the layer function that each cached stage calls when it recomputes
STAGE_WORK = ((acoustics, "hourly_series"), (fusion, "fuse"), (fusion, "build_features"), (gbm, "train_models"),
              (shapley, "shapley_batch"))


def test_changed_code_recomputes_every_cached_stage(small_bundle, primed, monkeypatch):
    """The package's code is part of every stage digest, so that artifacts
    written by other code are never read back; the same code writes the
    same bytes, so only manifest.json changes."""
    before = {p.name: p.read_bytes() for p in primed.iterdir()}
    calls = collections.Counter()
    for module, name in STAGE_WORK:
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(cli, "_code_identity", lambda: "other code")
    assert _report(small_bundle, primed) == 0
    assert calls == {"hourly_series": 1, "fuse": 1, "build_features": 1, "train_models": 1, "shapley_batch": 2}
    after = {p.name: p.read_bytes() for p in primed.iterdir()}
    assert after.pop("manifest.json") != before.pop("manifest.json")
    assert after == before


def test_report_hashes_each_file_once(small_bundle, tmp_path, monkeypatch):
    calls = collections.Counter()
    real = cli._file_sha256

    def counted(path):
        calls[path] += 1
        return real(path)

    monkeypatch.setattr(cli, "_file_sha256", counted)
    out = tmp_path / "out"
    for run in ("cold", "warm"):
        calls.clear()
        assert _report(small_bundle, out) == 0
        assert calls and max(calls.values()) == 1, (run, calls.most_common(3))


def _tear(path):
    path.write_bytes(path.read_bytes()[:-9])


# each changes a fresh --out so that the next report misses on its own entry
REPORT_MISSES = {
    "inner-stages-fresh": lambda out: _drop_report_entry(out),
    "torn-table": lambda out: _tear(out / "gini_70.csv"),
    "torn-shap-summary": lambda out: _tear(out / "shap_summary_takeoff.csv"),
}


@pytest.mark.parametrize("case", sorted(REPORT_MISSES))
def test_report_miss_hashes_each_file_once(small_bundle, primed, monkeypatch, case):
    """A report that misses on its own entry hashes each file once, whether the
    check of that entry hashed it or not. A file that the miss rewrites is a
    new file (``tables.write_atomic`` gives it a new inode), hashed once too."""
    calls = collections.Counter()
    real = cli._file_sha256

    def counted(path):
        calls[path, path.stat().st_ino] += 1
        return real(path)

    monkeypatch.setattr(cli, "_file_sha256", counted)
    REPORT_MISSES[case](primed)
    assert _report(small_bundle, primed) == 0
    assert calls and max(calls.values()) == 1, calls.most_common(3)


# layer functions that a run calls once at most, each through its module
ONCE = {ingest: ("parse_spl", "parse_flights", "parse_weather", "parse_population", "parse_tracts",
                 "parse_nmts", "window_hours"), gbm: ("split_data",)}


@pytest.fixture
def layer_calls(monkeypatch):
    """name -> the number of calls of each function in ONCE."""
    calls = collections.Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for module, names in ONCE.items():
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_report_parses_each_input_once(small_bundle, tmp_path, layer_calls):
    assert main(["validate", "--in", str(small_bundle), "--out", str(tmp_path / "findings")]) == 0
    assert layer_calls == {name: 1 for name in ONCE[ingest]}  # and no split_data
    layer_calls.clear()
    out = tmp_path / "out"
    assert _report(small_bundle, out) == 0
    assert layer_calls == {name: 1 for names in ONCE.values() for name in names}
    layer_calls.clear()
    assert _report(small_bundle, out) == 0  # warm: the whole report is up to date
    assert layer_calls == {}


def test_ids_that_need_quoting_survive_every_artifact(quoted_bundle, tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = ["report", "--in", str(quoted_bundle), "--out", str(out), "--seed", "3"]
    assert main(argv) == 0
    cold = (out / "report.json").read_bytes()
    calls = collections.Counter()
    for module, name in ((ingest, "parse_spl"), (fusion, "build_features")):
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    _drop_report_entry(out)
    assert main(argv) == 0  # warm: every cached artifact reads back
    assert calls == {}
    assert (out / "report.json").read_bytes() == cold
    report = json.loads(cold)
    assert 'R"2' in report["meta"]["tract_order"]
    assert any("N,1" in (r["nmt_a"], r["nmt_b"]) for r in report["rotation"])
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh, strict=True)
        assert rows and all(len(row) == len(header) for row in rows), path.name
    with open(out / "features.csv", newline="", encoding="utf-8") as fh:
        assert any("," in name for name in next(csv.reader(fh)))


# --- the Shapley stage's cache ------------------------------------------------

SHAP_FILES = 12  # per model: values, summary and 4 dependence tables


@pytest.fixture
def primed(small_report, tmp_path):
    """A copy of the report directory, in which every cached stage is fresh."""
    out = tmp_path / "out"
    shutil.copytree(small_report, out)
    return out


@pytest.fixture
def shap_calls(monkeypatch):
    """The calls of ``shapley.shapley_batch``, one entry each."""
    calls = []
    real = shapley.shapley_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(shapley, "shapley_batch", counted)
    return calls


def _forbid(monkeypatch, module, name):
    """Make any later call of ``module.name`` fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran although its stage was fresh")

    monkeypatch.setattr(module, name, forbidden)


def _report(bundle, out, *flags):
    return main(["report", "--in", str(bundle), "--out", str(out), "--seed", "11", *flags])


def _drop_report_entry(out):
    """Take the report's own entry out of ``out``'s manifest, so that the next
    report misses on that entry alone while every inner stage is fresh."""
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["report"]
    path.write_text(json.dumps(manifest))


def _files(out, pattern):
    """name -> (inode, mtime) of the files matching ``pattern``; a rewrite changes both."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.glob(pattern)}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_warm_report_reuses_shapley(small_bundle, small_report, primed, monkeypatch, fmt):
    if fmt == "json":
        assert _report(small_bundle, primed, "--format", fmt) == 0
    before = _files(primed, f"shap_*.{fmt}")
    assert len(before) == SHAP_FILES
    _forbid(monkeypatch, shapley, "shapley_batch")
    _forbid(monkeypatch, gbm, "from_json")  # a models hit decodes no tree while Shapley hits too
    _drop_report_entry(primed)
    assert _report(small_bundle, primed, "--format", fmt) == 0
    assert _files(primed, f"shap_*.{fmt}") == before
    # the rankings read back from either format give the same report bytes
    assert (primed / "report.json").read_bytes() == (small_report / "report.json").read_bytes()


def test_torn_shap_summary_is_recomputed(small_bundle, small_report, primed, shap_calls):
    path = primed / "shap_summary_takeoff.csv"
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])
    assert _report(small_bundle, primed) == 0
    assert len(shap_calls) == 2
    assert path.read_bytes() == whole
    assert (primed / "report.json").read_bytes() == (small_report / "report.json").read_bytes()
    assert not list(primed.glob("*.tmp"))


def test_format_switch_recomputes_shapley(small_bundle, small_report, primed, shap_calls):
    csv_bytes = {p.name: p.read_bytes() for p in primed.glob("shap_*.csv")}
    assert _report(small_bundle, primed, "--format", "json") == 0
    assert len(shap_calls) == 2
    assert len(_files(primed, "shap_*.json")) == SHAP_FILES
    assert _report(small_bundle, primed, "--format", "csv") == 0
    assert len(shap_calls) == 4
    assert {p.name: p.read_bytes() for p in primed.glob("shap_*.csv")} == csv_bytes


def test_changed_models_recompute_shapley(small_bundle, primed, shap_calls):
    models = {p.name: p.read_bytes() for p in primed.glob("model_*.json")}
    assert main(["report", "--in", str(small_bundle), "--out", str(primed), "--seed", "12"]) == 0
    assert {p.name: p.read_bytes() for p in primed.glob("model_*.json")} != models
    assert len(shap_calls) == 2


def test_theta_change_keeps_shapley_fresh(small_bundle, small_report, primed, monkeypatch):
    entry = json.loads((primed / "manifest.json").read_text())["shap"]
    before = _files(primed, "shap_*")
    _forbid(monkeypatch, shapley, "shapley_batch")
    assert _report(small_bundle, primed, "--theta", "60") == 0
    assert json.loads((primed / "manifest.json").read_text())["shap"] == entry
    assert _files(primed, "shap_*") == before
    report = json.loads((primed / "report.json").read_text())
    assert report["meta"]["thresholds"] == [60.0]
    assert report["shap"] == json.loads((small_report / "report.json").read_text())["shap"]


@pytest.mark.parametrize("command", ["validate", "laeq", "fuse", "exposure", "train", "explain"])
def test_run_subcommand_removes_report_json(small_bundle, primed, command):
    # report.json would describe the outputs of the last report, not these
    assert main([command, "--in", str(small_bundle), "--out", str(primed), "--seed", "11", "--theta", "60"]) == 0
    assert not (primed / "report.json").exists()


@pytest.mark.parametrize("command,given", [
    ("laeq", ["--retention-dba", "nan"]),
    ("exposure", ["--theta", "65", "--theta", "nan"]),
    ("laeq", "retention_dba = nan"),
    ("exposure", "theta = 65,nan"),
], ids=["flag-retention", "flag-theta", "config-retention", "config-theta"])
def test_nan_threshold_exits_2_with_one_line(small_bundle, tmp_path, capsys, command, given):
    if isinstance(given, str):
        conf = tmp_path / "run.conf"
        conf.write_text(given + "\n")
        given = ["--config", str(conf)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--in", str(small_bundle), "--out", str(out), *given]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN" in err and err.count("\n") == 1
    assert not out.exists()


def test_nan_or_negative_training_parameter_exits_1(small_bundle, tmp_path, capsys):
    out = tmp_path / "out"
    for line in ("lambda = nan", "gamma = nan", "min_child_weight = nan", "min_child_weight = -5"):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        capsys.readouterr()
        assert main(["train", "--in", str(small_bundle), "--out", str(out), "--config", str(conf)]) == 1, line
        assert capsys.readouterr().err == "error: lambda, gamma and min_child_weight must be non-negative\n"
        assert not list(out.glob("model_*.json")), line


@pytest.mark.parametrize("name,line", [("spl.csv", 3), ("spl.csv", 2000), ("weather.csv", 4)])
def test_non_utf8_input_exits_1_with_one_line(small_bundle, tmp_path, capsys, name, line):
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    lines = (bundle / name).read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:2] + b"\xff" + lines[line - 1][2:]
    (bundle / name).write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main(["validate", "--in", str(bundle), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {line}: not UTF-8 text" in err and err.count("\n") == 1


def test_minus_inf_retention_is_allowed():
    cfg = resolve_config(build_parser().parse_args(["laeq", "--retention-dba=-inf"]))
    assert cfg.retention_dba == float("-inf")


@pytest.mark.parametrize("key,value", [("mapping", "nearst"), ("format", "xml")])
def test_config_choice_outside_flag_choices_exits_2(small_bundle, tmp_path, capsys, key, value):
    conf = tmp_path / "run.conf"
    conf.write_text(f"seed = 3\n{key} = {value}\n")
    capsys.readouterr()
    rc = main(["exposure", "--in", str(small_bundle), "--out", str(tmp_path / "out"), "--config", str(conf)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {conf}:2: {key}: invalid value '{value}'\n"


def test_config_choices_match_flag_choices(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("mapping = nearest\nformat = json\n")
    assert load_config_file(conf) == {"mapping": "nearest", "out_format": "json"}


def test_missing_config_file_exits_2_with_one_line(small_bundle, tmp_path, capsys):
    conf = tmp_path / "missing.cfg"
    capsys.readouterr()
    assert main(["validate", "--in", str(small_bundle), "--out", str(tmp_path / "v"), "--config", str(conf)]) == 2
    assert capsys.readouterr().err == f"error: {conf}: cannot read config file: No such file or directory\n"


@pytest.mark.parametrize("command,first_read", [("validate", "weather.csv"), ("report", "weather.csv")])
def test_missing_input_exits_1_with_one_line(tmp_path, capsys, command, first_read):
    missing = tmp_path / "nonexistent"
    capsys.readouterr()
    assert main([command, "--in", str(missing), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {missing / first_read}: No such file or directory\n"


@pytest.mark.parametrize("line,problem", [("nonsense = 1", "unknown key 'nonsense'"),
                                          ("seed 3", "expected key=value")])
def test_malformed_config_line_exits_2(small_bundle, tmp_path, capsys, line, problem):
    conf = tmp_path / "run.conf"
    conf.write_text(f"retention_dba = 60\n{line}\n")
    capsys.readouterr()
    assert main(["laeq", "--in", str(small_bundle), "--out", str(tmp_path / "out"), "--config", str(conf)]) == 2
    assert capsys.readouterr().err == f"error: {conf}:2: {problem}\n"


@pytest.mark.parametrize("flag,value,hours", [
    ("--window-start", "2023-01-02T00:00", ("2023-01-02T00:00", "2023-01-03T23:00")),
    ("--window-end", "2023-01-02T00:00", ("2023-01-01T00:00", "2023-01-01T23:00")),
])
def test_half_given_window_infers_only_the_other_bound(small_bundle, tmp_path, flag, value, hours):
    out = tmp_path / "out"
    assert main(["exposure", "--in", str(small_bundle), "--out", str(out), flag, value]) == 0
    header = (out / "exposure_65.csv").read_text().splitlines()[0].split(",")
    assert (header[1], header[-1]) == hours
    assert len(header) - 1 == 24 * (2 if flag == "--window-start" else 1)



@pytest.mark.parametrize("command", ["exposure", "validate"])
@pytest.mark.parametrize("flags,start,end", [
    (["--window-start", "2023-01-02T00:00", "--window-end", "2023-01-01T00:00"],
     "2023-01-02T00:00", "2023-01-01T00:00"),
    (["--window-start", "2023-01-02T00:00", "--window-end", "2023-01-02T00:00"],
     "2023-01-02T00:00", "2023-01-02T00:00"),
    # the bundle's weather ends 2023-01-03T23:00, so the inferred end is 2023-01-04T00:00
    (["--window-start", "2023-01-05T00:00"], "2023-01-05T00:00", "2023-01-04T00:00"),
])
def test_empty_window_exits_2(small_bundle, tmp_path, capsys, command, flags, start, end):
    capsys.readouterr()
    assert main([command, "--in", str(small_bundle), "--out", str(tmp_path / "out"), *flags]) == 2
    assert capsys.readouterr().err == f"error: empty study window: start {start} is not before end {end}\n"


def test_rotation_follows_the_window(small_bundle, tmp_path):
    from datetime import datetime

    from airnoise import acoustics, exposure

    def rotation(window_end):
        out = tmp_path / window_end
        assert main(["exposure", "--in", str(small_bundle), "--out", str(out),
                     "--window-start", "2023-01-01T00:00", "--window-end", window_end]) == 0
        return out, (out / "rotation.csv").read_text()

    out, short = rotation("2023-01-01T12:00")
    _, full = rotation("2023-01-04T00:00")
    assert short != full
    series = [h for h in acoustics.read_hourly_laeq(out / "hourly_laeq.csv")
              if h.hour_start < datetime(2023, 1, 1, 12)]
    expected = tmp_path / "expected.csv"
    exposure.write_rotation(exposure.rotation_contrast(series), expected)
    assert short == expected.read_text()


def _drop_terminal(bundle, nmt: str, names=("spl.csv",)) -> None:
    """Drop every row of terminal ``nmt`` from the tables ``names`` of ``bundle``."""
    for name in names:
        lines = (bundle / name).read_bytes().splitlines(keepends=True)
        (bundle / name).write_bytes(b"".join(line for line in lines if not line.startswith(f"{nmt},".encode())))


def test_silent_terminal_keeps_its_rotation_pairs(small_bundle, tmp_path):
    """A terminal with no sample keeps its pairs with every other terminal of
    nmts.csv, each with a null correlation, in rotation.csv and report.json."""
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    _drop_terminal(bundle, "NMT5")
    conf = tmp_path / "fast.conf"
    conf.write_text("rounds_max = 10\n")
    out = tmp_path / "out"
    assert _report(bundle, out, "--config", str(conf)) == 0
    pairs = list(itertools.combinations([f"NMT{i}" for i in range(1, 6)], 2))
    rotation = json.loads((out / "report.json").read_text())["rotation"]
    assert [(r["nmt_a"], r["nmt_b"]) for r in rotation] == pairs
    assert [(r["correlation"] is None) for r in rotation] == [("NMT5" in pair) for pair in pairs]
    with open(out / "rotation.csv", newline="", encoding="utf-8") as fh:
        _, *rows = csv.reader(fh)
    assert [(a, b, r == "") for a, b, r in rows] == [(*pair, "NMT5" in pair) for pair in pairs]


def test_rotation_pairs_are_the_pairs_of_nmts_csv(small_bundle, tmp_path, capsys):
    """A terminal that spl.csv names and nmts.csv lacks (NMT9, NMT1's samples
    again) is levelled in hourly_laeq.csv but has no rotation pair: every
    exposure table is the clean bundle's."""
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    lines = (bundle / "spl.csv").read_bytes().splitlines(keepends=True)
    with open(bundle / "spl.csv", "ab") as fh:
        fh.write(b"".join(b"NMT9" + line[4:] for line in lines if line.startswith(b"NMT1,")))
    capsys.readouterr()
    for name, source in (("clean", small_bundle), ("nmt9", bundle)):
        assert main(["exposure", "--in", str(source), "--out", str(tmp_path / name)]) == 0
    clean, nmt9 = capsys.readouterr().out.splitlines()
    assert nmt9 == clean and clean.endswith(", 10 terminal pairs")
    assert "NMT9" in {h.nmt_id for h in acoustics.read_hourly_laeq(tmp_path / "nmt9" / "hourly_laeq.csv")}
    ws = cli.Workspace(tmp_path / "clean")
    assert ws.owned("exposure") and all(
        p.read_bytes() == (tmp_path / "nmt9" / p.name).read_bytes() for p in ws.owned("exposure"))


# one hour: the held-out part of the seed-11 table holds no take-off row
SHORT_WINDOW = ("--window-start", "2023-01-01T00:00", "--window-end", "2023-01-01T01:00")
UNFITTED_FACTS = {"rounds_run": 0, "trees_kept": 0, "train_mae": None, "train_rmse": None,
                  "test_mae": None, "test_rmse": None}


@pytest.mark.parametrize("terminals,unfitted", [(5, {"takeoff"}), (4, {"takeoff", "landing"})],
                         ids=["no-held-out-row", "too-few-rows-to-split"])
def test_short_window_reports_and_fits_no_model_without_rows(small_bundle, primed, tmp_path, layer_calls, capsys,
                                                             terminals, unfitted):
    """A model with no training or no held-out row is not fitted, and neither
    is any model when the feature table has fewer rows than ``split_data``
    splits (4 terminals give 8 in one hour). The report still writes every
    table: the model's entry has no round, no tree and null metrics, and the
    model has no model file and no attribution table, not even a stale one."""
    bundle = small_bundle
    if terminals == 4:
        bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
        _drop_terminal(bundle, "NMT5", ("spl.csv", "nmts.csv"))
    out = primed  # a full window's report, each model's tables stale for this one
    assert _report(bundle, out, *SHORT_WINDOW) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["exposure"]) == ["65", "70"] and len(report["rotation"]) == terminals * (terminals - 1) // 2
    for name in cli.MODEL_TARGETS:
        files = sorted(p.name for p in out.iterdir() if name in p.name)
        if name in unfitted:
            assert (report["model"][name], report["shap"][name]["summary"], files) == (UNFITTED_FACTS, [], [])
        else:
            assert report["model"][name]["rounds_run"] > 0 and report["shap"][name]["summary"] and len(files) == 7
    for name in ("exposure_65.csv", "exposure_70.csv", "gini_65.csv", "gini_70.csv", "compare.csv", "rotation.csv",
                 "validation.csv"):
        assert (out / name).exists()
    # one hour of a district pair has no R^2
    assert all(p["r2_absolute"] is p["r2_pct_change"] is None for p in report["validation"]["district_r2"])
    layer_calls.clear()
    assert _report(bundle, out, *SHORT_WINDOW) == 0  # the whole report is up to date
    assert layer_calls == {}
    capsys.readouterr()
    for command in ("train", "explain"):
        assert main([command, "--in", str(bundle), "--out", str(tmp_path / command), "--seed", "11",
                     *SHORT_WINDOW]) == 0
    train, explain = capsys.readouterr().out.splitlines()
    assert all(f"{name}: 0 trees, test mae null" in train for name in unfitted)
    assert all(f"'{name}': None" in explain for name in unfitted)


def test_train_prints_null_for_a_model_that_keeps_no_tree(small_bundle, tmp_path, capsys):
    """train prints each model's test MAE as report.json holds it: null for a
    model that keeps no tree, as both do over 4 hours."""
    window = ("--window-start", "2023-01-01T00:00", "--window-end", "2023-01-01T04:00")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--in", str(small_bundle), "--out", str(out), "--seed", "11", *window]) == 0
    assert capsys.readouterr().out == "train: takeoff: 0 trees, test mae null; landing: 0 trees, test mae null\n"
    assert _report(small_bundle, out, *window) == 0
    models = json.loads((out / "report.json").read_text())["model"]
    assert [(m["rounds_run"] > 0, m["test_mae"]) for m in models.values()] == [(True, None), (True, None)]


def test_explain_names_no_top_feature_for_a_model_that_keeps_no_tree(small_bundle, tmp_path, capsys):
    """Over 4 hours both models keep no tree: their summaries rank every
    feature at 0, and explain names no top feature for either."""
    window = ("--window-start", "2023-01-01T00:00", "--window-end", "2023-01-01T04:00")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["explain", "--in", str(small_bundle), "--out", str(out), "--seed", "11", *window]) == 0
    assert capsys.readouterr().out == "explain: top features {'takeoff': None, 'landing': None}\n"
    for name in cli.MODEL_TARGETS:
        summary = shapley.read_shap_summary(out / f"shap_summary_{name}.csv")
        assert len(summary) == 22 and {value for _, value in summary} == {0.0}


def _rows_before(path, hour):
    """The rows of a csv table before ``hour``: those of a table with an
    hour_start column, else the columns of an exposure matrix."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    if "hour_start" in header:
        i = header.index("hour_start")
        return [header, *(row for row in rows if row[i] < hour)]
    keep = [i for i, name in enumerate(header) if i == 0 or name < hour]
    return [[row[i] for i in keep] for row in [header, *rows]]


def test_sub_window_tables_are_slices_of_the_longer_window(small_bundle, tmp_path):
    """A 2-day window's tables, restricted to its first day, are a 1-day
    window's."""
    tables = {}
    for end in ("2023-01-02T00:00", "2023-01-03T00:00"):
        out = tmp_path / end[:10]
        assert main(["exposure", "--in", str(small_bundle), "--out", str(out),
                     "--window-start", "2023-01-01T00:00", "--window-end", end]) == 0
        tables[end] = {name: _rows_before(out / name, "2023-01-02T00:00")
                       for name in ("fused.csv", "exposure_65.csv", "exposure_70.csv", "gini_65.csv",
                                    "gini_70.csv", "compare.csv")}
    day, days = tables.values()
    assert all(len(rows) > 1 for rows in day.values())
    assert day == days


def test_validation_reads_only_the_window(small_bundle, tmp_path):
    """Population rows after the window move no validation statistic; tracts
    with no terminal keep their diurnal label."""
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    population = ingest.parse_population(bundle / "population.csv")
    tract = population[0].tract_id
    ingest.write_population([
        replace(p, defacto_count=p.defacto_count * (10 if p.hour_start.hour < 12 else 0.1))
        if p.tract_id == tract and p.hour_start.day == 3 else p
        for p in population
    ], bundle / "population.csv")
    conf = tmp_path / "fast.conf"
    conf.write_text("rounds_max = 10\n")
    validation = {}
    for data in (small_bundle, bundle):
        out = tmp_path / f"out_{data.name}"
        assert main(["report", "--in", str(data), "--out", str(out), "--config", str(conf),
                     "--window-end", "2023-01-03T00:00"]) == 0
        validation[data.name] = (out / "validation.csv").read_bytes()
    assert validation[bundle.name] == validation[small_bundle.name]
    labelled = {row[1] for row in csv.reader(validation[bundle.name].decode().splitlines()) if row[0] == "diurnal"}
    assert labelled == {p.tract_id for p in population}


@pytest.mark.parametrize("window,gap,unlabelled", [
    (("2023-01-01T06:00", "2023-01-01T10:00"), None, None),
    (("2023-01-01T04:00", "2023-01-02T03:00"), None, None),
    (("2023-01-01T08:00", "2023-01-02T06:00"), None, ()),
    ((), (b"S02,", b"T03:00,"), ("S02",)),
], ids=["4-hours", "no-03:00", "no-06:00-or-07:00", "S02-without-03:00"])
def test_diurnal_label_needs_every_hour_it_averages(quick, small_bundle, tmp_path, window, gap, unlabelled):
    """A tract's diurnal label is null (an empty cell in validation.csv) when
    its window has no population row at some hour that the label averages
    (08-18 and 20-06); the hours 06:00 and 07:00, which no label reads, may
    be absent. ``gap`` drops the rows of one tract at one hour of every day:
    S02 has no terminal, so no other stage needs them. ``unlabelled`` None
    means every tract."""
    truth = json.loads((small_bundle / "ground_truth.json").read_text())["diurnal"]
    bundle = small_bundle
    if gap:
        bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
        lines = (bundle / "population.csv").read_bytes().splitlines(keepends=True)
        (bundle / "population.csv").write_bytes(
            b"".join(line for line in lines if not (line.startswith(gap[0]) and gap[1] in line)))
    flags = ("--window-start", window[0], "--window-end", window[1]) if window else ()
    out = tmp_path / "out"
    assert quick.report(out, *flags, bundle=bundle) == 0
    expected = {t: None if unlabelled is None or t in unlabelled else label for t, label in truth.items()}
    assert json.loads((out / "report.json").read_text())["validation"]["diurnal"] == expected
    with open(out / "validation.csv", newline="", encoding="utf-8") as fh:
        labels = {key: value for kind, key, value in csv.reader(fh) if kind == "diurnal"}
    assert labels == {tract: label or "" for tract, label in expected.items()}


def test_combo_columns_rank_only_the_windows_flights(small_bundle, tmp_path):
    """Flights after the window move no feature, the combo columns' ranking
    included."""
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    header, *rows = (bundle / "flights.csv").read_text().splitlines()
    i = header.split(",").index("timestamp")
    kept = [row for row in rows if row.split(",")[i] < "2023-01-02"]
    (bundle / "flights.csv").write_text("\n".join([header, *kept]) + "\n")
    features = {}
    for data in (small_bundle, bundle):
        out = tmp_path / f"out_{data.name}"
        assert main(["fuse", "--in", str(data), "--out", str(out), "--window-end", "2023-01-02T00:00"]) == 0
        features[data.name] = (out / "features.csv").read_bytes()
    assert features[bundle.name] == features[small_bundle.name]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_window_shorter_than_two_blocks_gives_null_rotation(small_bundle, tmp_path, fmt):
    out = tmp_path / "out"
    assert main(["exposure", "--in", str(small_bundle), "--out", str(out), "--format", fmt,
                 "--window-start", "2023-01-01T00:00", "--window-end", "2023-01-01T03:00"]) == 0
    if fmt == "csv":
        rows = list(csv.reader((out / "rotation.csv").open()))[1:]
        assert len(rows) == 10 and {row[2] for row in rows} == {""}
    else:
        records = json.loads((out / "rotation.json").read_text())
        assert len(records) == 10 and {r["block_mean_correlation"] for r in records} == {None}


def test_terminal_with_one_block_gives_null_rotation_in_report(small_bundle, tmp_path):
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    lines = (bundle / "spl.csv").read_text().splitlines(keepends=True)
    # NMT5 keeps hours 00 and 01 of the first day, one rotation block
    (bundle / "spl.csv").write_text("".join(
        line for line in lines
        if not line.startswith("NMT5,") or line.startswith(("NMT5,2023-01-01T00", "NMT5,2023-01-01T01"))
    ))
    out = tmp_path / "out"
    assert _report(bundle, out) == 0
    rotation = {(r["nmt_a"], r["nmt_b"]): r["correlation"]
                for r in json.loads((out / "report.json").read_text())["rotation"]}
    assert len(rotation) == 10
    assert {pair for pair, r in rotation.items() if r is None} == {(f"NMT{k}", "NMT5") for k in range(1, 5)}
    assert all(isinstance(r, float) for pair, r in rotation.items() if "NMT5" not in pair)
    cells = {(a, b): r for a, b, r in list(csv.reader((out / "rotation.csv").open()))[1:]}
    assert {pair for pair, r in cells.items() if r == ""} == {(f"NMT{k}", "NMT5") for k in range(1, 5)}


def _imported(*argv) -> set[str]:
    """The modules that a fresh ``python -m airnoise.cli *argv`` imports."""
    env = dict(os.environ, PYTHONPATH=str(Path(airnoise.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "airnoise.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}


def test_validate_imports_only_the_layers_it_uses(small_bundle, tmp_path):
    imported = _imported("validate", "--in", str(small_bundle), "--out", str(tmp_path / "v"))
    assert "airnoise.ingest" in imported
    assert not imported & {f"airnoise.{m}" for m in ("synth", "acoustics", "fusion", "gbm", "shapley", "exposure",
                                                     "validation")}


def test_up_to_date_report_loads_no_layer(small_bundle, primed):
    before = _files(primed, "*")
    imported = _imported("report", "--in", str(small_bundle), "--out", str(primed), "--seed", "11")
    assert _files(primed, "*") == before
    assert {m for m in imported if m.split(".")[0] in ("airnoise", "numpy")} == {
        "airnoise", "airnoise.errors", "airnoise.tables"}


# --- the models stage --------------------------------------------------------

def test_models_fit_without_forking(small_bundle, tmp_path, monkeypatch):
    """Both models are fitted in this process, by every command that trains."""
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    for command in ("report", "train", "explain"):
        out = tmp_path / command
        assert main([command, "--in", str(small_bundle), "--out", str(out), "--seed", "11"]) == 0
        assert (out / "model_landing.json").exists()


@pytest.fixture
def failing_fit(monkeypatch):
    """Make ``gbm.train_models`` call ``fail()`` when it is given the training
    rows of model ``name``."""
    given = collections.defaultdict(list)
    real_rows, real_train = cli._model_rows, gbm.train_models

    def rows(table, name):
        X, y, keys = real_rows(table, name)
        given[name].append(X)
        return X, y, keys

    def install(name, fail):
        def train_models(models, *args, **kwargs):
            if any(X is mine for X, *_ in models for mine in given[name]):
                fail()
            return real_train(models, *args, **kwargs)

        monkeypatch.setattr(cli, "_model_rows", rows)
        monkeypatch.setattr(gbm, "train_models", train_models)
    return install


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs the process sees as usable; count its forks."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def set_cpus(n):
        monkeypatch.setattr(os, "cpu_count", lambda: n)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return forks
    return set_cpus


@pytest.mark.parametrize("n_cpus", [2, 1])
@pytest.mark.parametrize("name", ["landing", "takeoff"])
def test_fit_error_exits_1_with_one_line(small_bundle, tmp_path, capsys, cpus, failing_fit, n_cpus, name):
    """Whatever the number of usable CPUs, a model's fit error ends the run
    with one line, in this process, before any model file is written."""
    def fail():
        raise NonFiniteTarget(f"{name} targets are not finite")

    forks = cpus(n_cpus)
    failing_fit(name, fail)
    capsys.readouterr()
    assert main(["report", "--in", str(small_bundle), "--out", str(tmp_path / "out"), "--seed", "11"]) == 1
    assert capsys.readouterr().err == f"error: {name} targets are not finite\n"
    assert not (tmp_path / "out" / "model_takeoff.json").exists()
    assert forks == []


# --- every artifact's bytes ----------------------------------------------------

# sha256 of every file that `validate` and then `report --seed 11` write into
# an empty --out on the seed-11 3-day bundle, per --format, with the code
# identity in the manifest's stage digests held at a fixed string
GOLDEN = {
    "csv": {
        "compare.csv": "3d23529f6ee065743fee1b08669a7603ca24d7dcaf56d16cf502d8b7074a2894",
        "exposure_65.csv": "b319d3519fe17c4d97f83585bf295ed06af07996530002f6d6430513c4318837",
        "exposure_70.csv": "a044362ee0791ae05a11d13d2a552bc6b15c82481bc8522977565b893bc30dc5",
        "features.csv": "b8110ac0fe5df90805b649dadd5e4cba031695648ae70f5b79102ed32510621a",
        "findings.json": "10ebf322dd986260f70274a15c068bb33a8b7f7a95c2f8c81202481d29c17f5a",
        "fused.csv": "445e42160c6755cef155d9df63b61e6a668eee94e711e900b38fc6aac3d28f5a",
        "gini_65.csv": "5ab2ec6d4b6f7cf51d75bdd17ebc74e8089105bc9e22cc3d7939390dda805a47",
        "gini_70.csv": "c9758f8d3a8573f202c36b91b1ba14d09f554e778f58584c9d272ea8818576a6",
        "hourly_laeq.csv": "56d6dcbe961dfcbf2c788da95a98a26495da55223fa6ff2adf42b50c088059d3",
        "manifest.json": "29df5e551f4f3a5ce231fab9af13b6679d7bed26b3ed174a89353a13a9cf84f0",
        "model_landing.json": "4f5682d6e07b8a60668b156bbf2e34ab9e2433cacf418d94bd0137f7fd3d3a54",
        "model_takeoff.json": "3c8d51a98743f2ddf7f74949da0e97ed6645c34e994d20f90ab49e3f2124cf1b",
        "report.json": "e1fe5ee4b479c3ffbc58f1eddceb041bc9d9d99757a2a646c70c673ed3686214",
        "rotation.csv": "db7b255e89887d85dd565e7421273d9a4d424411617f97c20950178bb3fe7a04",
        "shap_dependence_landing_cloud_cover_tenths.csv":
            "8302ab41ec0f6da2d5043d65a39968b47f307b103100ef21d90b37d654b64f26",
        "shap_dependence_landing_temperature_c.csv":
            "2325628376343fb6c7c598032a557ef15bef40f5b612bbb4f026b33a9f6abd08",
        "shap_dependence_landing_wind_deviation_deg.csv":
            "56742f21a7bffb7d985aa77516afe6c8e0d5d47cd8d0cf39a5a90542c88d95e5",
        "shap_dependence_landing_wind_speed_kt.csv":
            "c4ff643d3f6ddd8f0f0dd477cd2ba98b18761a02e3914348b836b37a01af112d",
        "shap_dependence_takeoff_cloud_cover_tenths.csv":
            "289a49cf7439e8b8dec30d88e1ac288009c94fc2640f34831841a7dc4dbe0ee4",
        "shap_dependence_takeoff_temperature_c.csv":
            "ec4904030e5cf8b99aa7810819a9ea6252f2348788f336e82077ec424ed3546b",
        "shap_dependence_takeoff_wind_deviation_deg.csv":
            "8bd4015c6c0f25171ae5402754390ab1226bb8acea1d4374057d9e953b74aec2",
        "shap_dependence_takeoff_wind_speed_kt.csv":
            "8c9592f9902a1b7a281bcf3cce7b6d7bea60f77a641e703475d7f00a5c1efe63",
        "shap_summary_landing.csv": "05fc58a311cf773be8e9c7b38b36c8d4a42c6b7b1205778eefe0f70263facc78",
        "shap_summary_takeoff.csv": "468fb2a2bd4b789ecd20810194fb82fe1c8728d293b0027fd27a816e4a76268d",
        "shap_values_landing.csv": "012af5850dbd3de2586b2282a62d819f40aea1a59428b2180095436807996c6f",
        "shap_values_takeoff.csv": "91baa26c9a97e9b3731af7ac142e891087d286485a3cce4774ddd692385ae3b3",
        "validation.csv": "b2aeae53483e9ac8e90bcc38eabe0d60c12c790a26899c14b21b91c60319d4e9",
    },
    "json": {
        "compare.json": "fc6d87e8bac2c1bd6ed19d0afac1352a1fad6404ea62643ef9ff0ef65088089f",
        "exposure_65.json": "00bff06db468c3219a0af88e07bc4994993105eea70103879ec10d4cc818fd5c",
        "exposure_70.json": "0e0ea8388c1ef22cef0c938f805e3f8cb412d461f926dd3a22aa1336331412e1",
        "features.csv": "b8110ac0fe5df90805b649dadd5e4cba031695648ae70f5b79102ed32510621a",
        "findings.json": "10ebf322dd986260f70274a15c068bb33a8b7f7a95c2f8c81202481d29c17f5a",
        "fused.csv": "445e42160c6755cef155d9df63b61e6a668eee94e711e900b38fc6aac3d28f5a",
        "gini_65.json": "1b40ca88146986fa9812b118afc5e58e149b12964b58f456f13b2afde44029dd",
        "gini_70.json": "00b210ef9c500f9f9ad2fda3d5f68b9cc4c76234dec54b63143fd61bd61f9bbf",
        "hourly_laeq.csv": "56d6dcbe961dfcbf2c788da95a98a26495da55223fa6ff2adf42b50c088059d3",
        "manifest.json": "d976bfe24eebcabaee8d54aab4610aef545eee077cac898c613e78b2d23f2a2d",
        "model_landing.json": "4f5682d6e07b8a60668b156bbf2e34ab9e2433cacf418d94bd0137f7fd3d3a54",
        "model_takeoff.json": "3c8d51a98743f2ddf7f74949da0e97ed6645c34e994d20f90ab49e3f2124cf1b",
        "report.json": "e1fe5ee4b479c3ffbc58f1eddceb041bc9d9d99757a2a646c70c673ed3686214",
        "rotation.json": "0aa63b89f8e0bfbcaaea5accfd775921e56df99fec85ef8b4ee26bb90c7db044",
        "shap_dependence_landing_cloud_cover_tenths.json":
            "6b893aa32f536ac67841145139f4e7efac2c228d1b9bd8997eb0fbd9980e9a2e",
        "shap_dependence_landing_temperature_c.json":
            "04cd0895dd17ac594f7bd06c611811062c3b6c8b87301d579fb39ac8c8d7121d",
        "shap_dependence_landing_wind_deviation_deg.json":
            "b5ba41fd627d1678c7a99afd834b223acf47402ccda0875c1aab56466618f954",
        "shap_dependence_landing_wind_speed_kt.json":
            "561f378071d5a146a5cbe5f5d18ad7310a3ed52d4262354ea53cba8f91fa5e1c",
        "shap_dependence_takeoff_cloud_cover_tenths.json":
            "287d7debe530cd8e76ebef805c6869fb90576c45886570015f27124c40d9dd4f",
        "shap_dependence_takeoff_temperature_c.json":
            "282a03a3a323c1a5c72a71ca41ef0e761c878884ce4eae0c31b261af377af441",
        "shap_dependence_takeoff_wind_deviation_deg.json":
            "60542c083eed92b3cdf439684fb8f6f3fa763aaff53d1d2e72105d8c90dddf2d",
        "shap_dependence_takeoff_wind_speed_kt.json":
            "295f17fc968a0d8d01e8f54740a8ee5cc7362f7da59af6194448c5e337f97ff6",
        "shap_summary_landing.json": "981a275a95dc3f0376d80b418a24d8d4914928b7f0614b7cdbea60f3e9334292",
        "shap_summary_takeoff.json": "af2d743816126442a7e840dd5dd4b8044cd927645a37119914af63abde4c9294",
        "shap_values_landing.json": "9a362a110bd00faf494e4d78ba53232ac741eda1dbd90b8b518ef94a36a3d0b6",
        "shap_values_takeoff.json": "b6691508cfc4225aaec18c41e072d89646093ea915dff0deac7f07652e566c77",
        "validation.csv": "b2aeae53483e9ac8e90bcc38eabe0d60c12c790a26899c14b21b91c60319d4e9",
    },
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN))
def test_artifact_bytes_pinned(small_bundle, tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(cli, "_code_identity", lambda: "pinned")
    out = tmp_path / "out"
    assert main(["validate", "--in", str(small_bundle), "--out", str(out), "--format", fmt]) == 0
    assert _report(small_bundle, out, "--format", fmt) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN[fmt]


# name prefixes of the tables that --format chooses the format of
BOTH_FORMATS = ("exposure_", "gini_", "compare", "rotation", "shap_")


def test_format_switch_removes_the_other_formats_tables(small_bundle, primed):
    def tables_in(fmt):
        return sorted(p.stem for prefix in BOTH_FORMATS for p in primed.glob(f"{prefix}*.{fmt}"))

    stems = tables_in("csv")
    assert len(stems) == 6 + SHAP_FILES and not tables_in("json")
    assert _report(small_bundle, primed, "--seed", "12", "--format", "json") == 0
    assert tables_in("json") == stems and not tables_in("csv")
    assert _report(small_bundle, primed, "--seed", "12", "--format", "csv") == 0
    assert tables_in("csv") == stems and not tables_in("json")


# --- the report's own entry ---------------------------------------------------

class Crash(BaseException):
    """A kill of the process right after a write: nothing in the program catches it."""


@pytest.fixture
def writes(monkeypatch):
    """The names of the files that ``tables.write_atomic`` writes, in order;
    with ``crash_at`` set to n, the n-th write raises Crash once it is done."""
    log = SimpleNamespace(names=[], crash_at=None)
    real = tables.write_atomic

    def write_atomic(path, write):
        real(path, write)
        log.names.append(Path(path).name)
        if len(log.names) == log.crash_at:
            raise Crash

    monkeypatch.setattr(tables, "write_atomic", write_atomic)
    return log


def _artifacts(out) -> dict[str, bytes]:
    """name -> bytes of every file in ``out`` but manifest.json."""
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def quick(day_bundle, tmp_path_factory):
    """A report of the 1-day bundle (or another), with 10 boosting rounds:
    ``quick.report(out, *flags)`` runs one, and ``quick.out`` holds one that
    ran into an empty --out."""
    base = tmp_path_factory.mktemp("quick")
    conf = base / "run.cfg"
    conf.write_text("rounds_max = 10\n")

    def report(out, *flags, bundle=None):
        return main(["report", "--in", str(bundle or day_bundle), "--out", str(out), "--seed", "3",
                     "--config", str(conf), *flags])

    assert report(base / "out") == 0
    return SimpleNamespace(report=report, out=base / "out")


def _hit(quick, out, writes, *flags, bundle=None):
    """Whether a report into ``out`` is a hit, which writes and removes nothing."""
    before = _files(out, "*")
    writes.names.clear()
    assert quick.report(out, *flags, bundle=bundle) == 0
    assert bool(writes.names) == (_files(out, "*") != before)
    return not writes.names


@pytest.mark.parametrize("primed_with", [None, ("--format", "json", "--theta", "60")], ids=["empty", "json-60"])
def test_crash_after_any_write_never_leaves_a_hit(quick, tmp_path, writes, primed_with):
    """Killed right after any one of its writes, a report leaves an --out whose
    next report recomputes what is missing and then hits; only a kill after the
    last write, which records the report's entry, leaves a whole run."""
    start = tmp_path / "start"
    if primed_with:
        assert quick.report(start, *primed_with) == 0
    else:
        start.mkdir()
    shutil.copytree(start, tmp_path / "count")
    writes.names.clear()
    assert quick.report(tmp_path / "count") == 0
    total = len(writes.names)
    assert writes.names[-1] == "manifest.json"
    expected = _artifacts(quick.out)
    for k in range(1, total + 1):
        out = tmp_path / f"crash{k}"
        shutil.copytree(start, out)
        writes.names.clear()
        writes.crash_at = k
        with pytest.raises(Crash):
            quick.report(out)
        writes.crash_at = None
        assert _hit(quick, out, writes) == (k == total), k
        assert _artifacts(out) == expected, k
        assert _hit(quick, out, writes), k
        shutil.rmtree(out)


def _change_weather(bundle, out, monkeypatch):
    path = bundle / "weather.csv"
    header, first, *rest = path.read_text().splitlines(keepends=True)
    hour, temperature, *others = first.split(",")
    path.write_text("".join([header, ",".join([hour, str(float(temperature) + 3), *others]), *rest]))


def _edit(name, edit):
    """A change that rewrites ``name`` in --out as ``edit`` of its bytes."""
    def change(bundle, out, monkeypatch):
        (out / name).write_bytes(edit((out / name).read_bytes()))
    return change


def _copy(name, to):
    """A change that copies ``name`` in --out to ``to``."""
    def change(bundle, out, monkeypatch):
        (out / to).write_bytes((out / name).read_bytes())
    return change


# each case changes the bundle, --out or code of a report that hit, or gives it flags
MISSES = {
    "input": (_change_weather, ()),
    "setting": (lambda *_: None, ("--theta", "60")),
    "code": (lambda bundle, out, monkeypatch: monkeypatch.setattr(cli, "_code_identity", lambda: "other code"), ()),
    "changed-report": (_edit("report.json", lambda data: data + b" "), ()),
    "torn-table": (_edit("gini_70.csv", lambda data: data[:-9]), ()),
    "deleted-table": (lambda bundle, out, monkeypatch: (out / "validation.csv").unlink(), ()),
    "stray-threshold": (_copy("exposure_65.csv", "exposure_60.csv"), ()),
    "stray-gini-json": (_copy("gini_65.csv", "gini_60.json"), ()),
    "other-format": (_copy("compare.csv", "compare.json"), ()),
    "stray-shap-json": (_copy("shap_summary_takeoff.csv", "shap_summary_takeoff.json"), ()),
}


@pytest.mark.parametrize("case", sorted(MISSES))
def test_stale_report_entry_is_a_miss_that_a_fresh_run_equals(quick, day_bundle, tmp_path, writes, monkeypatch,
                                                              case):
    change, flags = MISSES[case]
    bundle = _copy_bundle(day_bundle, tmp_path / "bundle")
    out = tmp_path / "out"
    shutil.copytree(quick.out, out)
    assert _hit(quick, out, writes, bundle=bundle)  # the bundle's path is not in the key
    change(bundle, out, monkeypatch)
    assert not _hit(quick, out, writes, *flags, bundle=bundle)
    assert quick.report(tmp_path / "fresh", *flags, bundle=bundle) == 0
    assert _artifacts(out) == _artifacts(tmp_path / "fresh")
    assert _hit(quick, out, writes, *flags, bundle=bundle)


def test_foreign_file_is_left_alone_and_recorded_by_no_entry(quick, tmp_path, writes):
    """A file that no stage owns leaves a report that hit a hit, and a report
    that misses neither removes it nor records it."""
    out = tmp_path / "out"
    shutil.copytree(quick.out, out)
    (out / "notes.csv").write_text("note\n")
    assert _hit(quick, out, writes)
    assert not _hit(quick, out, writes, "--theta", "60")
    assert (out / "notes.csv").read_text() == "note\n"
    assert "notes.csv" not in (out / "manifest.json").read_text()


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_every_file_a_run_writes_has_one_owner(quick, day_bundle, tmp_path, fmt):
    """Every file that validate and then report write into an empty --out is
    owned by exactly one stage, but manifest.json and findings.json; the
    report's entry records every owned file."""
    out = tmp_path / "out"
    assert main(["validate", "--in", str(day_bundle), "--out", str(out)]) == 0
    assert quick.report(out, "--format", fmt) == 0
    ws = cli.Workspace(out)
    owners = collections.Counter(p.name for stage in cli.OWNED for p in ws.owned(stage))
    assert set(owners.values()) == {1}
    assert sorted(owners) == sorted(p.name for p in out.iterdir() if p.name not in ("manifest.json", "findings.json"))
    assert (out / "findings.json").exists() and ws.manifest["report"]["outputs"].keys() == owners.keys()


def test_shuffled_rows_change_no_artifact(small_bundle, small_report, primed, tmp_path, writes):
    """The data rows of all six inputs, shuffled: every artifact but
    manifest.json keeps its bytes, and a report into the unshuffled inputs'
    --out is a miss that leaves them too."""
    bundle = _copy_bundle(small_bundle, tmp_path / "bundle")
    rng = random.Random(24)
    for path in sorted(bundle.iterdir()):
        header, *rows = path.read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        path.write_text("".join([header, *rows]))
    expected = _artifacts(small_report)
    assert _report(bundle, tmp_path / "fresh") == 0
    assert _artifacts(tmp_path / "fresh") == expected
    writes.names.clear()
    assert _report(bundle, primed) == 0
    assert writes.names
    assert _artifacts(primed) == expected


# --- the benchmark's traced mode ----------------------------------------------

def test_every_traced_function_resolves():
    """perfbench/tracer.py wraps these by name before a traced run; one that
    is missing would make every traced benchmark run fail."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, name, _ in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"airnoise.{module}"), name, None)), f"{module}.{name}"
    assert callable(cli.Workspace.digest)
