"""Command-line pipeline: synth, validate, laeq, fuse, exposure, train, explain, report.

Every subcommand reads declared inputs, writes declared outputs under --out,
and prints a one-line summary. Re-running with unchanged inputs and seed
produces byte-identical outputs; `report` reuses fresh intermediates (guarded
by a content-hash manifest) and recomputes stale ones, with identical results
either way.

Configuration comes from a plain key=value file (--config) overridden by
flags. All randomness derives from the single --seed through named
sub-streams, so adding a consumer never perturbs the others.

Exit status: 0 on success, 1 on error-severity validation findings or data
errors (a missing input file among them), 2 on usage errors.

`train`, `explain` and `report` fit the last model of MODEL_TARGETS in one
forked worker while this process fits the others, when more than one CPU is
usable (see `_Worker`). The models are the same bytes either way.

Layer modules that only some commands use are imported inside those commands,
so that `validate` loads no more than it runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import struct
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import acoustics, errors, fusion, ingest
from .errors import AirnoiseError, InvalidConfig, MalformedConfig, UsageError
from .ingest import Operation

MET_FEATURES = ("temperature_c", "wind_speed_kt", "wind_deviation_deg", "cloud_cover_tenths")
MAPPINGS = (fusion.MAPPING_CONTAINING, fusion.MAPPING_NEAREST_CENTROID)
FORMATS = ("csv", "json")


@dataclass
class RunConfig:
    in_dir: Path = Path(".")
    out_dir: Path = Path("out")
    window_start: datetime | None = None   # inferred from weather coverage when absent
    window_end: datetime | None = None
    thresholds: tuple[float, ...] = (65.0, 70.0)
    retention_dba: float = acoustics.DEFAULT_RETENTION_DBA
    mapping: str = fusion.MAPPING_CONTAINING
    seed: int = 0
    out_format: str = "csv"
    days: int = 31
    # pipeline operating point for the noise models; the fixed training recipe
    # (learning rate 0.05, 90/10 split, round band) sits in gbm.TrainConfig
    rounds_max: int = 300
    max_depth: int = 5
    lambda_: float = 8.0
    gamma: float = 0.0
    min_child_weight: float = 10.0
    patience: int = 30

    def train_config(self) -> gbm.TrainConfig:
        from . import gbm

        return gbm.TrainConfig(
            rounds_max=self.rounds_max,
            max_depth=self.max_depth,
            lambda_=self.lambda_,
            gamma=self.gamma,
            min_child_weight=self.min_child_weight,
            early_stopping_patience=self.patience,
            seed=self.seed,
        )


def _choice(choices: tuple[str, ...]):
    """A converter that accepts only ``choices``, as the matching flag does."""
    def convert(value: str) -> str:
        if value not in choices:
            raise ValueError(value)
        return value
    return convert


CONFIG_KEYS = {
    "in": ("in_dir", Path),
    "out": ("out_dir", Path),
    "seed": ("seed", int),
    "days": ("days", int),
    "theta": ("thresholds", lambda s: tuple(float(v) for v in s.split(","))),
    "retention_dba": ("retention_dba", float),
    "window_start": ("window_start", datetime.fromisoformat),
    "window_end": ("window_end", datetime.fromisoformat),
    "mapping": ("mapping", _choice(MAPPINGS)),
    "format": ("out_format", _choice(FORMATS)),
    "rounds_max": ("rounds_max", int),
    "max_depth": ("max_depth", int),
    "lambda": ("lambda_", float),
    "gamma": ("gamma", float),
    "min_child_weight": ("min_child_weight", float),
    "patience": ("patience", int),
}


def load_config_file(path: Path) -> dict:
    """Parse a key=value config file; a file that cannot be read, a line
    without ``=`` and an unknown key are usage errors."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"{path}: cannot read config file: {exc.strerror}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedConfig(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise MalformedConfig(f"{path}:{lineno}: unknown key {key!r}")
        attr, conv = CONFIG_KEYS[key]
        out[attr] = _convert(conv, value, f"{path}:{lineno}: {key}")
    return out


def _convert(conv, value: str, where: str):
    """``conv(value)``, with a malformed value reported as a usage error."""
    try:
        return conv(value)
    except ValueError:
        raise UsageError(f"{where}: invalid value {value!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(Path(args.config)))
    overrides = {}
    if getattr(args, "in_dir", None):
        overrides["in_dir"] = Path(args.in_dir)
    if getattr(args, "out_dir", None):
        overrides["out_dir"] = Path(args.out_dir)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "days", None) is not None:
        overrides["days"] = args.days
    if getattr(args, "theta", None):
        overrides["thresholds"] = tuple(sorted(set(args.theta)))
    if getattr(args, "retention_dba", None) is not None:
        overrides["retention_dba"] = args.retention_dba
    if getattr(args, "window_start", None):
        overrides["window_start"] = _convert(datetime.fromisoformat, args.window_start, "--window-start")
    if getattr(args, "window_end", None):
        overrides["window_end"] = _convert(datetime.fromisoformat, args.window_end, "--window-end")
    if getattr(args, "mapping", None):
        overrides["mapping"] = args.mapping
    if getattr(args, "out_format", None):
        overrides["out_format"] = args.out_format
    cfg = replace(cfg, **overrides)
    if not cfg.thresholds:
        raise InvalidConfig("at least one --theta is required")
    cfg = replace(cfg, thresholds=tuple(sorted(set(cfg.thresholds))))
    return cfg


# ---------------------------------------------------------------------------
# content-hash manifest for intermediate reuse

def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_atomic(path: Path, write) -> None:
    """``write(tmp)``, then move the temporary file onto ``path``, so a reader
    never sees a partly written artifact."""
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


class Workspace:
    """Stage cache rooted at the output directory."""

    def __init__(self, out_dir: Path):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        try:
            self.manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            self.manifest = {}

    def digest(self, *parts) -> str:
        h = hashlib.sha256()
        for part in parts:
            if isinstance(part, Path):
                h.update(part.read_bytes())
            else:
                h.update(repr(part).encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def fresh(self, stage: str, digest: str, outputs: list[Path]) -> bool:
        """Whether the stage last ran on ``digest`` and each output still holds
        the bytes it wrote then."""
        entry = self.manifest.get(stage)
        if not isinstance(entry, dict) or entry.get("digest") != digest:
            return False
        recorded = entry.get("outputs", {})
        return all(p.exists() and recorded.get(p.name) == _file_sha256(p) for p in outputs)

    def record(self, stage: str, digest: str, outputs: list[Path]) -> None:
        self.manifest[stage] = {"digest": digest, "outputs": {p.name: _file_sha256(p) for p in outputs}}
        self._save()

    def forget(self, stage: str) -> None:
        """Drop a stage's entry before its outputs are rewritten, so that an
        interrupted rewrite is never taken for fresh."""
        if self.manifest.pop(stage, None) is not None:
            self._save()

    def _save(self) -> None:
        self.manifest_path.write_text(
            json.dumps(self.manifest, sort_keys=True, indent=1), encoding="utf-8"
        )


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _window(cfg: RunConfig, weather: list[ingest.WeatherHour]) -> tuple[datetime, datetime]:
    """The configured window; a bound not given is inferred from weather coverage."""
    start, end = cfg.window_start, cfg.window_end
    if start is None or end is None:
        if not weather:
            raise InvalidConfig("cannot infer the study window from an empty weather stream")
        hours = sorted(w.hour_start for w in weather)
        start = hours[0] if start is None else start
        end = hours[-1] + timedelta(hours=1) if end is None else end
    return (start, end)


def _with_window(cfg: RunConfig) -> RunConfig:
    """Pin the study window before any stage digest is computed, so an
    inferred window is part of every cache key."""
    if cfg.window_start is not None and cfg.window_end is not None:
        return cfg
    weather = ingest.parse_weather(cfg.in_dir / "weather.csv")
    window = _window(cfg, weather)
    return replace(cfg, window_start=window[0], window_end=window[1])


def _stage_laeq(ws: Workspace, cfg: RunConfig) -> list[acoustics.HourlyLaeq]:
    out = ws.out / "hourly_laeq.csv"
    digest = ws.digest(cfg.in_dir / "spl.csv", cfg.retention_dba)
    if ws.fresh("laeq", digest, [out]):
        try:
            return acoustics.read_hourly_laeq(out)
        except (AirnoiseError, ValueError):
            pass  # a torn artifact is a miss
    ws.forget("laeq")
    samples = ingest.parse_spl(cfg.in_dir / "spl.csv")
    series = acoustics.hourly_series(samples, cfg.retention_dba)
    _write_atomic(out, lambda p: acoustics.write_hourly_laeq(series, p))
    ws.record("laeq", digest, [out])
    return series


def _stage_fused(ws: Workspace, cfg: RunConfig, series) -> list[fusion.TractHourRecord]:
    out = ws.out / "fused.csv"
    digest = ws.digest(
        ws.out / "hourly_laeq.csv", cfg.in_dir / "population.csv",
        cfg.in_dir / "tracts.csv", cfg.in_dir / "nmts.csv",
        cfg.mapping, cfg.window_start, cfg.window_end,
    )
    if ws.fresh("fused", digest, [out]):
        return fusion.read_fused(out)
    ws.forget("fused")
    tracts = ingest.parse_tracts(cfg.in_dir / "tracts.csv")
    nmts = ingest.parse_nmts(cfg.in_dir / "nmts.csv")
    population = ingest.parse_population(cfg.in_dir / "population.csv")
    hours = ingest.window_hours((cfg.window_start, cfg.window_end))
    mapping = fusion.map_tracts(nmts, tracts, cfg.mapping)
    records = fusion.fuse(population, series, mapping, tracts, hours)
    _write_atomic(out, lambda p: fusion.write_fused(records, p))
    ws.record("fused", digest, [out])
    return records


def _stage_features(ws: Workspace, cfg: RunConfig, series) -> fusion.FeatureTable:
    out = ws.out / "features.csv"
    digest = ws.digest(
        ws.out / "hourly_laeq.csv", cfg.in_dir / "flights.csv",
        cfg.in_dir / "weather.csv", cfg.in_dir / "nmts.csv",
        cfg.window_start, cfg.window_end,
    )
    if ws.fresh("features", digest, [out]):
        return fusion.read_features(out)
    ws.forget("features")
    flights = ingest.parse_flights(cfg.in_dir / "flights.csv")
    weather = ingest.parse_weather(cfg.in_dir / "weather.csv")
    nmts = ingest.parse_nmts(cfg.in_dir / "nmts.csv")
    hours = ingest.window_hours((cfg.window_start, cfg.window_end))
    table = fusion.build_features(flights, weather, nmts, series, hours)
    _write_atomic(out, lambda p: fusion.write_features(table, p))
    ws.record("features", digest, [out])
    return table


MODEL_TARGETS = {
    "takeoff": Operation.DEPARTURE,
    "landing": Operation.ARRIVAL,
}


def _model_rows(table: fusion.FeatureTable, name: str):
    op = MODEL_TARGETS[name]
    y_all = table.takeoff_laeq if name == "takeoff" else table.landing_laeq
    keep = np.array([k[2] is op for k in table.keys]) & ~np.isnan(y_all)
    keys = [k for k, kp in zip(table.keys, keep) if kp]
    return table.matrix[keep], y_all[keep], keys


# A worker's message: kind (b"T" for the text of its result, b"E" for an
# exception's class name and message) and the payload's length in bytes.
_MESSAGE_HEADER = struct.Struct("!cQ")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Worker:
    """``work()``, which returns text, computed in one forked worker while the
    caller computes something else; ``result()`` waits for the text.

    Where ``os.fork`` is missing or fails, or only one CPU is usable,
    ``result()`` calls ``work()`` itself. The worker sends only the text, or
    the class name and message of what it raised, through a pipe, and the
    caller alone writes files. The only other thread of the process is
    OpenBLAS's pool, which stops itself before a fork (``pthread_atfork``).
    """

    def __init__(self, what: str, work):
        self.what = what
        self.work = work
        self.pid = None
        if not hasattr(os, "fork") or _usable_cpus() < 2:
            return
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return
        if self.pid == 0:
            self._child(read_fd, write_fd)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def _child(self, read_fd: int, write_fd: int):
        """The worker's whole life. It ends in ``os._exit``, so it never
        returns into the caller's stack, flushes inherited stdio or runs exit
        handlers and test finalizers; status 0 means a whole message was sent."""
        status = 1
        try:
            os.close(read_fd)
            try:
                kind, text = b"T", self.work()
            except Exception as exc:
                kind, text = b"E", f"{type(exc).__name__}\n{exc}"
            payload = text.encode("utf-8")
            with open(write_fd, "wb") as pipe:
                pipe.write(_MESSAGE_HEADER.pack(kind, len(payload)) + payload)
            status = 0
        except BaseException:  # a failure on the way out; the parent reports status 1
            pass
        finally:
            os._exit(status)

    def result(self) -> str:
        """The worker's text, once it has exited; an exception it raised is
        raised here, and any other failure is a one-line AirnoiseError."""
        if self.pid is None:
            return self.work()
        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise AirnoiseError(f"{self.what} worker killed by signal {-code}")
        if code > 0:
            raise AirnoiseError(f"{self.what} worker exited with status {code}")
        size = _MESSAGE_HEADER.size
        if len(data) < size or len(data) != size + _MESSAGE_HEADER.unpack_from(data)[1]:
            raise AirnoiseError(f"{self.what} worker sent a short message ({len(data)} bytes)")
        text = data[size:].decode("utf-8")
        if data[:1] == b"T":
            return text
        name, _, message = text.partition("\n")
        cls = getattr(errors, name, None)
        if isinstance(cls, type) and issubclass(cls, AirnoiseError):
            exc = cls.__new__(cls)
            Exception.__init__(exc, message)  # the class and message the worker raised
            raise exc
        first_line = (message.splitlines() or [""])[0]
        raise AirnoiseError(f"{self.what} worker raised {name}: {first_line}")

    def kill(self) -> None:
        """Stop and reap the worker, if it is still running."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
            self.pipe.close()


def _stage_models(ws: Workspace, cfg: RunConfig, table) -> dict[str, tuple[gbm.Ensemble, list[dict]]]:
    from . import gbm

    outputs = {name: ws.out / f"model_{name}.json" for name in MODEL_TARGETS}
    digest = ws.digest(ws.out / "features.csv", vars(cfg.train_config()), cfg.seed)
    if ws.fresh("models", digest, list(outputs.values())):
        loaded = {}
        for name, path in outputs.items():
            ens, _, history = gbm.from_json(path.read_text(encoding="utf-8"))
            loaded[name] = (ens, history)
        return loaded

    ws.forget("models")
    train_part, test_part = gbm.split_data(table, gbm.TrainConfig().split_fraction, cfg.seed)
    config = cfg.train_config()

    def fit(name):
        X_train, y_train, _ = _model_rows(train_part, name)
        X_test, y_test, _ = _model_rows(test_part, name)
        ens, history = gbm.train(X_train, y_train, X_test, y_test, config, table.feature_names)
        return ens, history, gbm.to_json(ens, config, history)

    # the fits share no state: the last one runs beside the others
    *names, last = MODEL_TARGETS
    worker = _Worker(f"{last} model", lambda: fit(last)[2])
    try:
        fitted = {name: fit(name) for name in names}
        text = worker.result()
    except BaseException:
        worker.kill()
        raise
    ens, _, history = gbm.from_json(text)
    fitted[last] = (ens, history, text)
    for name, (_, _, text) in fitted.items():
        _write_atomic(outputs[name], lambda p: p.write_text(text, encoding="utf-8"))
    ws.record("models", digest, list(outputs.values()))
    return {name: (ens, history) for name, (ens, history, _) in fitted.items()}


def _write_records(path_base: Path, fmt: str, header: list[str], rows: list[list], csv_writer) -> Path:
    """Write a tabular artifact as canonical CSV or as a JSON record array."""
    if fmt == "json":
        path = path_base.with_suffix(".json")
        records = [dict(zip(header, row)) for row in rows]
        path.write_text(json.dumps(records, sort_keys=True, indent=1), encoding="utf-8")
        return path
    path = path_base.with_suffix(".csv")
    csv_writer(path)
    return path


def _stage_exposure(ws: Workspace, cfg: RunConfig, records, series):
    """Exposure matrices, Gini series, basis comparison and rotation tables."""
    from . import exposure

    matrices = exposure.exposure_matrices(records, cfg.thresholds)
    residential = exposure.exposure_matrices(records, cfg.thresholds, exposure.BASIS_RESIDENTIAL)
    ginis = {t: exposure.gini_series(m) for t, m in matrices.items()}
    comparisons = {t: exposure.compare_bases(matrices[t], residential[t]) for t in matrices}
    correlations = exposure.rotation_contrast(series)

    fmt = cfg.out_format
    for theta, matrix in matrices.items():
        tag = exposure.theta_tag(theta)
        _write_records(
            ws.out / f"exposure_{tag}", fmt,
            ["tract_id"] + [h.isoformat(timespec="minutes") for h in matrix.hours],
            [[tract] + [float(v) for v in matrix.cells[i]] for i, tract in enumerate(matrix.tract_ids)],
            lambda p, m=matrix: exposure.write_exposure_matrix(m, p),
        )
        s = ginis[theta]
        _write_records(
            ws.out / f"gini_{tag}", fmt,
            ["hour_start", "gini", "exposed_total", "mean_exposure"],
            [[e.hour.isoformat(timespec="minutes"), e.gini, e.exposed_total, e.mean_exposure] for e in s.entries],
            lambda p, s=s: exposure.write_gini_series(s, p),
        )

    comparison_rows = []
    for theta in sorted(comparisons):
        for r in comparisons[theta]:
            comparison_rows.append([theta, r["hour"].isoformat(timespec="minutes"),
                                    r["defacto_total"], r["residential_total"], r["delta"]])

    def write_compare_csv(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("theta,hour_start,defacto_total,residential_total,delta\n")
            for theta, hour, d, r, delta in comparison_rows:
                fh.write(f"{theta!r},{hour},{d!r},{r!r},{delta!r}\n")

    _write_records(ws.out / "compare", fmt,
                   ["theta", "hour_start", "defacto_total", "residential_total", "delta"],
                   comparison_rows, write_compare_csv)
    _write_records(ws.out / "rotation", fmt,
                   ["nmt_a", "nmt_b", "block_mean_correlation"],
                   [[a, b, r] for (a, b), r in sorted(correlations.items())],
                   lambda p: exposure.write_rotation(correlations, p))
    return matrices, ginis, comparisons, correlations


def _stage_shap(ws: Workspace, cfg: RunConfig, table, models):
    """Attribution exports per model over its held-out rows."""
    from . import gbm, shapley

    _, test_part = gbm.split_data(table, gbm.TrainConfig().split_fraction, cfg.seed)
    summaries = {}
    for name, (ens, _) in models.items():
        X, _, keys = _model_rows(test_part, name)
        atts = shapley.shapley_batch(ens, X, [f"{k[0]}|{k[1].isoformat(timespec='minutes')}" for k in keys])
        ranking = shapley.summary(atts)
        summaries[name] = ranking
        fmt = cfg.out_format
        _write_records(
            ws.out / f"shap_values_{name}", fmt,
            ["key", "phi0"] + [f"phi_{n}" for n in ens.feature_names],
            [[a.key, a.phi0] + [float(v) for v in a.phis] for a in atts],
            lambda p, atts=atts: shapley.write_shap_values(atts, p),
        )
        _write_records(
            ws.out / f"shap_summary_{name}", fmt,
            ["feature", "mean_abs_phi"],
            [[f, v] for f, v in ranking],
            lambda p, r=ranking: shapley.write_shap_summary(r, p),
        )
        for feature in MET_FEATURES:
            pairs = shapley.dependence(atts, feature)
            _write_records(
                ws.out / f"shap_dependence_{name}_{feature}", fmt,
                [feature, "phi"],
                [[v, p] for v, p in pairs],
                lambda p, pair=pairs, f=feature: shapley.write_shap_dependence(pair, f, p),
            )
    return summaries


def _stage_validation(cfg: RunConfig, population, tracts):
    """Per-tract diurnal labels and district-pair agreement statistics.

    Works from the raw population stream so unmapped tracts are covered too.
    """
    from . import validation

    district_of = {t.tract_id: t.district_id for t in tracts}
    by_tract: dict[str, dict[datetime, float]] = {}
    for p in population:
        by_tract.setdefault(p.tract_id, {})[p.hour_start] = p.defacto_count

    diurnal = {}
    tract_series = []
    for tract in sorted(by_tract):
        points = sorted(by_tract[tract].items())
        tract_series.append(validation.HourlySeries(key=tract, points=points))
        profile = []
        for h in range(24):
            vals = [v for hs, v in points if hs.hour == h]
            profile.append(float(np.mean(vals)) if vals else 0.0)
        diurnal[tract] = validation.classify_diurnal(profile).value

    district_series = validation.aggregate_to_district(
        tract_series, {t: district_of[t] for t in by_tract}
    )
    pairs = []
    for i, a in enumerate(district_series):
        for b in district_series[i + 1:]:
            va, vb = a.values(), b.values()
            try:
                r2_abs = validation.r_squared(va, vb)
            except AirnoiseError:
                r2_abs = None
            try:
                r2_pct = validation.r_squared(validation.pct_change(va), validation.pct_change(vb))
            except AirnoiseError:
                r2_pct = None
            pairs.append({"a": a.key, "b": b.key, "r2_absolute": r2_abs, "r2_pct_change": r2_pct})
    return {"diurnal": diurnal, "district_r2": pairs}


def _write_validation_csv(ws: Workspace, result: dict) -> None:
    with open(ws.out / "validation.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("kind,key,value\n")
        for tract, label in sorted(result["diurnal"].items()):
            fh.write(f"diurnal,{tract},{label}\n")
        for pair in result["district_r2"]:
            a, b = pair["a"], pair["b"]
            fh.write(f"r2_absolute,{a}|{b},{'' if pair['r2_absolute'] is None else repr(pair['r2_absolute'])}\n")
            fh.write(f"r2_pct_change,{a}|{b},{'' if pair['r2_pct_change'] is None else repr(pair['r2_pct_change'])}\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    from . import synth

    cfg = resolve_config(args)
    scenario = synth.ScenarioConfig(seed=cfg.seed, days=cfg.days)
    bundle, truth = synth.write_scenario(scenario, cfg.out_dir)
    print(f"synth: wrote {len(bundle.spl)} samples, {len(bundle.flights)} flights, "
          f"{len(bundle.tracts)} tracts to {cfg.out_dir}")
    return 0


def cmd_validate(args) -> int:
    cfg = resolve_config(args)
    bundle = ingest.parse_bundle(cfg.in_dir)
    window = _window(cfg, bundle.weather)
    report = ingest.validate_bundle(bundle, window)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    findings = [
        {"stream": f.stream, "kind": f.kind, "key": f.key, "detail": f.detail, "severity": f.severity}
        for f in report.findings
    ]
    (cfg.out_dir / "findings.json").write_text(
        json.dumps({"findings": findings, "streams_checked": 6}, sort_keys=True, indent=1),
        encoding="utf-8",
    )
    print(f"validate: {report.error_count} finding(s) across 6 streams")
    return 1 if report.error_count else 0


def cmd_laeq(args) -> int:
    cfg = resolve_config(args)
    ws = Workspace(cfg.out_dir)
    series = _stage_laeq(ws, cfg)
    measured = sum(1 for h in series if h.laeq is not None)
    print(f"laeq: {len(series)} terminal-hours, {measured} with a measured level")
    return 0


def cmd_fuse(args) -> int:
    cfg = _with_window(resolve_config(args))
    ws = Workspace(cfg.out_dir)
    series = _stage_laeq(ws, cfg)
    records = _stage_fused(ws, cfg, series)
    table = _stage_features(ws, cfg, series)
    print(f"fuse: {len(records)} tract-hours, feature table {table.matrix.shape[0]}x{table.matrix.shape[1]}")
    return 0


def cmd_exposure(args) -> int:
    cfg = _with_window(resolve_config(args))
    ws = Workspace(cfg.out_dir)
    series = _stage_laeq(ws, cfg)
    records = _stage_fused(ws, cfg, series)
    matrices, _, _, correlations = _stage_exposure(ws, cfg, records, series)
    totals = {t: float(m.cells.sum()) for t, m in matrices.items()}
    print(f"exposure: thresholds {list(matrices)} person-hour totals {totals}, "
          f"{len(correlations)} terminal pairs")
    return 0


def cmd_train(args) -> int:
    cfg = _with_window(resolve_config(args))
    ws = Workspace(cfg.out_dir)
    series = _stage_laeq(ws, cfg)
    table = _stage_features(ws, cfg, series)
    models = _stage_models(ws, cfg, table)
    parts = []
    for name, (ens, history) in models.items():
        at = history[len(ens.trees) - 1] if ens.trees else {"valid_mae": float("nan")}
        parts.append(f"{name}: {len(ens.trees)} trees, test mae {at['valid_mae']:.3f}")
    print("train: " + "; ".join(parts))
    return 0


def cmd_explain(args) -> int:
    cfg = _with_window(resolve_config(args))
    ws = Workspace(cfg.out_dir)
    series = _stage_laeq(ws, cfg)
    table = _stage_features(ws, cfg, series)
    models = _stage_models(ws, cfg, table)
    summaries = _stage_shap(ws, cfg, table, models)
    tops = {name: ranking[0][0] for name, ranking in summaries.items()}
    print(f"explain: top features {tops}")
    return 0


def cmd_report(args) -> int:
    from . import exposure

    cfg = _with_window(resolve_config(args))
    ws = Workspace(cfg.out_dir)
    window = (cfg.window_start, cfg.window_end)

    series = _stage_laeq(ws, cfg)
    records = _stage_fused(ws, cfg, series)
    table = _stage_features(ws, cfg, series)
    models = _stage_models(ws, cfg, table)
    matrices, ginis, comparisons, correlations = _stage_exposure(ws, cfg, records, series)
    summaries = _stage_shap(ws, cfg, table, models)
    tracts = ingest.parse_tracts(cfg.in_dir / "tracts.csv")
    population = ingest.parse_population(cfg.in_dir / "population.csv")
    validation_result = _stage_validation(cfg, population, tracts)
    _write_validation_csv(ws, validation_result)

    def iso(ts):
        return ts.isoformat(timespec="minutes")

    report = {
        "meta": {
            "window": {"start": iso(window[0]), "end": iso(window[1])},
            "thresholds": list(cfg.thresholds),
            "retention_dba": cfg.retention_dba,
            "mapping": cfg.mapping,
            "seed": cfg.seed,
            "tract_order": sorted({r.tract_id for r in records}),
        },
        "exposure": {
            exposure.theta_tag(t): {
                "hours": [iso(h) for h in m.hours],
                "hourly_total": [float(m.cells[:, j].sum()) for j in range(len(m.hours))],
            }
            for t, m in matrices.items()
        },
        "gini": {
            exposure.theta_tag(t): [
                {"hour": iso(e.hour), "gini": e.gini,
                 "exposed_total": e.exposed_total, "mean_exposure": e.mean_exposure}
                for e in s.entries
            ]
            for t, s in ginis.items()
        },
        "comparison": {
            exposure.theta_tag(t): [
                {"hour": iso(r["hour"]), "defacto_total": r["defacto_total"],
                 "residential_total": r["residential_total"], "delta": r["delta"]}
                for r in rows
            ]
            for t, rows in comparisons.items()
        },
        "rotation": [
            {"nmt_a": a, "nmt_b": b, "correlation": r}
            for (a, b), r in sorted(correlations.items())
        ],
        "model": {
            name: {
                "rounds_run": len(history),
                "trees_kept": len(ens.trees),
                "train_mae": history[len(ens.trees) - 1]["train_mae"] if ens.trees else None,
                "train_rmse": history[len(ens.trees) - 1]["train_rmse"] if ens.trees else None,
                "test_mae": history[len(ens.trees) - 1]["valid_mae"] if ens.trees else None,
                "test_rmse": history[len(ens.trees) - 1]["valid_rmse"] if ens.trees else None,
            }
            for name, (ens, history) in models.items()
        },
        "shap": {
            name: {"summary": [[f, v] for f, v in ranking]}
            for name, ranking in summaries.items()
        },
        "validation": validation_result,
    }
    (ws.out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=1), encoding="utf-8"
    )
    print(f"report: wrote {ws.out / 'report.json'} "
          f"({len(matrices)} thresholds, {len(correlations)} terminal pairs)")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airnoise",
        description="Hourly aircraft-noise exposure analytics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="in_dir", help="input directory with the six CSV schemas")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--config", help="key=value configuration file (flags win)")
        p.add_argument("--seed", type=int, help="run seed; all randomness derives from it")
        p.add_argument("--theta", type=float, action="append",
                       help="exposure threshold in dBA (repeatable)")
        p.add_argument("--retention-dba", dest="retention_dba", type=float,
                       help="sample retention threshold in dBA")
        p.add_argument("--window-start", dest="window_start", help="study window start (ISO hour)")
        p.add_argument("--window-end", dest="window_end", help="study window end, exclusive (ISO hour)")
        p.add_argument("--mapping", choices=MAPPINGS,
                       help="tract-to-terminal mapping mode")
        p.add_argument("--format", dest="out_format", choices=FORMATS,
                       help="tabular artifact format")

    p = sub.add_parser("synth", help="generate a synthetic input bundle")
    common(p, needs_in=False)
    p.add_argument("--days", type=int, help="scenario length in days")
    p.set_defaults(func=cmd_synth)

    for name, func, help_text in (
        ("validate", cmd_validate, "cross-validate the input bundle"),
        ("laeq", cmd_laeq, "aggregate samples into hourly levels"),
        ("fuse", cmd_fuse, "fuse population and levels; build the feature table"),
        ("exposure", cmd_exposure, "exposure, Gini, comparison and rotation tables"),
        ("train", cmd_train, "train the take-off and landing noise models"),
        ("explain", cmd_explain, "Shapley attribution exports"),
        ("report", cmd_report, "full pipeline into report.json"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AirnoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing or unreadable file, named in one line
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
