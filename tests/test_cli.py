import csv
import json

import pytest

from airnoise.cli import build_parser, load_config_file, main, resolve_config
from airnoise.errors import InvalidConfig


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    assert main(["synth", "--seed", "11", "--days", "3", "--out", str(data)]) == 0
    return data


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_flag_value_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["exposure", "--theta", "not-a-number"])
    assert exc.value.code == 2


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
