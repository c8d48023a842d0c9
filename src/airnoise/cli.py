"""Command-line pipeline: synth, validate, laeq, fuse, exposure, train, explain, report.

Every subcommand reads declared inputs, writes declared outputs under --out,
and prints a one-line summary. Re-running with unchanged inputs and seed
produces byte-identical outputs.

Six subcommands (laeq, fuse, exposure, train, explain, report) are one `Run`,
whose inputs and stages are cached properties. A subcommand reads the stage it
wants, and a stage reads the inputs and stages it needs, so stages run in the
order they are first read, each input is parsed once, and each stage runs or
is read back at most once per command. The study window is pinned first, for
every command but laeq. The stages laeq, fused, features, models and shap are
cached: a stage whose inputs and outputs still match its entry in the
content-hash manifest (`manifest.json` under --out) reads its outputs back,
and any other stage recomputes them, with identical results either way.
Exposure and validation always recompute.

Each layer module writes its own tables through `tables.write`, which picks
csv or json from the file's suffix. Every artifact, the manifest and
report.json included, is written to a temporary file that then replaces it.
A table written in one --format removes the same table in the other
(`_table_path`), the exposure stage removes the tables of thresholds no
longer asked for, and every `Run` subcommand but report removes report.json,
so --out never holds a stale copy.

Configuration comes from a plain key=value file (--config) overridden by
flags. Each setting is declared once, in CONFIG_KEYS, which also builds its
flag; a flag's text goes through the same converter as the key's value in the
file. All randomness derives from the single --seed through named
sub-streams, so adding a consumer never perturbs the others.

Exit status: 0 on success, 1 on error-severity validation findings or data
errors (a missing input file among them), 2 on usage errors, each reported in
one line: a bad flag or config value, an unknown flag or subcommand, and a
missing subcommand among them.

`train`, `explain` and `report` fit the last model of MODEL_TARGETS in one
forked worker while this process fits the others, when more than one CPU is
usable (see `_Worker`). The models are the same bytes either way.

Layer modules that only some commands use are imported inside those commands,
so that `validate` loads no more than it runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import signal
import struct
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import acoustics, errors, fusion, ingest, tables
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
    """A converter that accepts only ``choices``."""
    def convert(value: str) -> str:
        if value not in choices:
            raise ValueError(value)
        return value
    return convert


# Every setting, declared once: its RunConfig field, the converter of its text
# (from a flag and from the config file alike), and the help text of its flag.
# The keys with no help are set only in the config file. Every subcommand but
# synth takes --in, and only synth takes --days.
CONFIG_KEYS = {
    "in": ("in_dir", Path, "input directory with the six CSV schemas"),
    "out": ("out_dir", Path, "output directory"),
    "seed": ("seed", int, "run seed; all randomness derives from it"),
    "theta": ("thresholds", lambda s: tuple(float(v) for v in s.split(",")),
              "exposure threshold in dBA (repeatable, or comma-separated)"),
    "retention_dba": ("retention_dba", float, "sample retention threshold in dBA"),
    "window_start": ("window_start", datetime.fromisoformat, "study window start (ISO hour)"),
    "window_end": ("window_end", datetime.fromisoformat, "study window end, exclusive (ISO hour)"),
    "mapping": ("mapping", _choice(MAPPINGS), f"tract-to-terminal mapping mode: {' or '.join(MAPPINGS)}"),
    "format": ("out_format", _choice(FORMATS), f"tabular artifact format: {' or '.join(FORMATS)}"),
    "days": ("days", int, "scenario length in days"),
    "rounds_max": ("rounds_max", int, None),
    "max_depth": ("max_depth", int, None),
    "lambda": ("lambda_", float, None),
    "gamma": ("gamma", float, None),
    "min_child_weight": ("min_child_weight", float, None),
    "patience": ("patience", int, None),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


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
        attr, conv, _ = CONFIG_KEYS[key]
        out[attr] = _convert(conv, value, f"{path}:{lineno}: {key}")
    return out


def _convert(conv, value: str, where: str):
    """``conv(value)``, with a malformed value reported as a usage error."""
    try:
        return conv(value)
    except ValueError:
        raise UsageError(f"{where}: invalid value {value!r}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by every flag given. A flag's dest
    is its key's RunConfig field, and its text goes through the key's
    converter, as the file's does; the values of a repeated flag (--theta) are
    joined with commas first."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(Path(args.config)))
    overrides = {}
    for key, (attr, conv, _) in CONFIG_KEYS.items():
        value = getattr(args, attr, None)
        if isinstance(value, list):
            value = ",".join(value)
        if value is not None:
            overrides[attr] = _convert(conv, value, _flag(key))
    cfg = replace(cfg, **overrides)
    if np.isnan([cfg.retention_dba, *cfg.thresholds]).any():
        raise UsageError("retention_dba and theta must not be NaN")
    return replace(cfg, thresholds=tuple(sorted(set(cfg.thresholds))))


# ---------------------------------------------------------------------------
# content-hash manifest for intermediate reuse

# files are hashed this many bytes at a time, so that a hash holds no whole file
_HASH_BLOCK_BYTES = 1 << 20


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK_BYTES):
            h.update(block)
    return h.hexdigest()


class Workspace:
    """Stage cache rooted at the output directory."""

    def __init__(self, out_dir: Path):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):  # ValueError: not UTF-8, or not JSON
            manifest = {}
        self.manifest = manifest if isinstance(manifest, dict) else {}  # anything else counts as empty

    def digest(self, *parts) -> str:
        """The sha256 of the repr of ``parts``, each file among them replaced by
        the sha256 of its bytes, so that no two different inputs share it."""
        named = [_file_sha256(p) if isinstance(p, Path) else p for p in parts]
        return hashlib.sha256(repr(named).encode("utf-8")).hexdigest()

    def stage(self, name: str, parts, outputs: list[Path], load, compute):
        """The result of a cached stage. If the stage last ran on the digest of
        ``parts`` and each output still holds the bytes it wrote then, that is
        ``load()``. Otherwise ``compute()`` writes the outputs and returns the
        result, and the run is recorded."""
        digest = self.digest(*parts)
        entry = self.manifest.get(name)
        recorded = entry.get("outputs") if isinstance(entry, dict) and entry.get("digest") == digest else None
        if isinstance(recorded, dict) and all(p.exists() and recorded.get(p.name) == _file_sha256(p) for p in outputs):
            try:
                return load()
            except (AirnoiseError, ValueError):
                pass  # a torn artifact is a miss
        # the entry goes before the outputs are rewritten, so that an
        # interrupted rewrite is never taken for fresh
        if self.manifest.pop(name, None) is not None:
            tables.write_json(self.manifest_path, self.manifest)
        result = compute()
        self.manifest[name] = {"digest": digest, "outputs": {p.name: _file_sha256(p) for p in outputs}}
        tables.write_json(self.manifest_path, self.manifest)
        return result


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _window(cfg: RunConfig, weather: list[ingest.WeatherHour]) -> tuple[datetime, datetime]:
    """The configured window; a bound not given is inferred from weather
    coverage. An empty window (start not before end) is a usage error."""
    start, end = cfg.window_start, cfg.window_end
    if start is None or end is None:
        if not weather:
            raise InvalidConfig("cannot infer the study window from an empty weather stream")
        start = start or min(w.hour_start for w in weather)
        end = end or max(w.hour_start for w in weather) + timedelta(hours=1)
    if start >= end:
        raise UsageError(f"empty study window: start {tables.hour(start)} is not before end {tables.hour(end)}")
    return (start, end)


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


def _saved_model(text: str):
    """A saved model's history, its number of trees, and a call that decodes
    the trees the first time it is made."""
    from . import gbm

    doc = json.loads(text)
    return doc.get("history", []), len(doc["trees"]), functools.cache(lambda: gbm.from_json(text)[0])


def _table_path(out: Path, stem: str, fmt: str) -> Path:
    """Where table ``stem`` goes in ``fmt``. The same table in the other
    format, left by an earlier run, is removed, since it is now stale."""
    for other in FORMATS:
        if other != fmt:
            (out / f"{stem}.{other}").unlink(missing_ok=True)
    return out / f"{stem}.{fmt}"


def _parsed(stem: str) -> functools.cached_property:
    """A run's input ``<stem>.csv``, parsed once by ``ingest.parse_<stem>``."""
    return functools.cached_property(lambda run: getattr(ingest, f"parse_{stem}")(run.cfg.in_dir / f"{stem}.csv"))


class Run:
    """One subcommand's inputs and stages, each a cached property (see the
    module docstring). A cached stage reads the stages it depends on before it
    takes its digest, which covers the files they wrote. ``laeq`` needs no
    window: it passes ``pin_window=False`` and never reads weather.csv."""

    def __init__(self, args, pin_window: bool = True):
        self.cfg = resolve_config(args)
        if pin_window:  # before any stage digest, so that an inferred window is part of every cache key
            given = self.cfg.window_start is not None and self.cfg.window_end is not None
            start, end = _window(self.cfg, [] if given else self.weather)
            self.cfg = replace(self.cfg, window_start=start, window_end=end)
        self.ws = Workspace(self.cfg.out_dir)
        if args.command != "report":  # a report.json left here would describe other outputs
            (self.ws.out / "report.json").unlink(missing_ok=True)

    weather = _parsed("weather")
    tracts = _parsed("tracts")
    nmts = _parsed("nmts")
    population = _parsed("population")

    @functools.cached_property
    def hours(self) -> list[datetime]:
        return ingest.window_hours((self.cfg.window_start, self.cfg.window_end))

    @functools.cached_property
    def split(self) -> tuple[fusion.FeatureTable, fusion.FeatureTable]:
        """The feature table's train and test parts."""
        from . import gbm

        return gbm.split_data(self.table, gbm.TrainConfig().split_fraction, self.cfg.seed)

    @functools.cached_property
    def series(self) -> list[acoustics.HourlyLaeq]:
        cfg, out = self.cfg, self.ws.out / "hourly_laeq.csv"

        def compute():
            series = acoustics.hourly_series(ingest.parse_spl(cfg.in_dir / "spl.csv"), cfg.retention_dba)
            acoustics.write_hourly_laeq(series, out)
            return series

        return self.ws.stage("laeq", (cfg.in_dir / "spl.csv", cfg.retention_dba), [out],
                             lambda: acoustics.read_hourly_laeq(out), compute)

    @functools.cached_property
    def records(self) -> list[fusion.TractHourRecord]:
        cfg, series, out = self.cfg, self.series, self.ws.out / "fused.csv"

        def compute():
            tracts = self.tracts
            mapping = fusion.map_tracts(self.nmts, tracts, cfg.mapping)
            records = fusion.fuse(self.population, series, mapping, tracts, self.hours)
            fusion.write_fused(records, out)
            return records

        parts = (self.ws.out / "hourly_laeq.csv", cfg.in_dir / "population.csv", cfg.in_dir / "tracts.csv",
                 cfg.in_dir / "nmts.csv", cfg.mapping, cfg.window_start, cfg.window_end)
        return self.ws.stage("fused", parts, [out], lambda: fusion.read_fused(out), compute)

    @functools.cached_property
    def table(self) -> fusion.FeatureTable:
        cfg, series, out = self.cfg, self.series, self.ws.out / "features.csv"

        def compute():
            flights = ingest.parse_flights(cfg.in_dir / "flights.csv")
            table = fusion.build_features(flights, self.weather, self.nmts, series, self.hours)
            fusion.write_features(table, out)
            return table

        parts = (self.ws.out / "hourly_laeq.csv", cfg.in_dir / "flights.csv", cfg.in_dir / "weather.csv",
                 cfg.in_dir / "nmts.csv", cfg.window_start, cfg.window_end)
        return self.ws.stage("features", parts, [out], lambda: fusion.read_features(out), compute)

    @functools.cached_property
    def models(self) -> dict[str, tuple]:
        """Per model: its history, the number of trees it kept, and a call that
        returns the ensemble, which decodes a cached model's trees only then."""
        from . import gbm

        cfg, table = self.cfg, self.table
        outputs = {name: self.ws.out / f"model_{name}.json" for name in MODEL_TARGETS}

        def compute():
            train_part, test_part = self.split
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
                tables.write_text(outputs[name], text)
            return {name: (history, len(ens.trees), lambda ens=ens: ens) for name, (ens, history, _) in fitted.items()}

        def load():
            return {name: _saved_model(path.read_text(encoding="utf-8")) for name, path in outputs.items()}

        parts = (self.ws.out / "features.csv", vars(cfg.train_config()), cfg.seed)
        return self.ws.stage("models", parts, list(outputs.values()), load, compute)

    @functools.cached_property
    def exposure(self):
        """Exposure matrices, Gini series, basis comparison and rotation tables."""
        from . import exposure

        cfg, records, series, out = self.cfg, self.records, self.series, self.ws.out
        matrices = exposure.exposure_matrices(records, cfg.thresholds)
        residential = exposure.exposure_matrices(records, cfg.thresholds, exposure.BASIS_RESIDENTIAL)
        ginis = {t: exposure.gini_series(m) for t, m in matrices.items()}
        comparisons = {t: exposure.compare_bases(matrices[t], residential[t]) for t in matrices}
        start, end = cfg.window_start, cfg.window_end
        correlations = exposure.rotation_contrast([h for h in series if start <= h.hour_start < end])

        tags = {exposure.theta_tag(theta) for theta in matrices}
        for path in [p for kind in ("exposure", "gini") for suffix in FORMATS for p in out.glob(f"{kind}_*.{suffix}")]:
            if path.stem.partition("_")[2] not in tags:
                path.unlink()  # the table of a threshold no longer asked for is stale
        fmt = cfg.out_format
        for theta in matrices:
            tag = exposure.theta_tag(theta)
            exposure.write_exposure_matrix(matrices[theta], _table_path(out, f"exposure_{tag}", fmt))
            exposure.write_gini_series(ginis[theta], _table_path(out, f"gini_{tag}", fmt))
        exposure.write_comparison(comparisons, _table_path(out, "compare", fmt))
        exposure.write_rotation(correlations, _table_path(out, "rotation", fmt))
        return matrices, ginis, comparisons, correlations

    @functools.cached_property
    def shap(self) -> dict[str, list[tuple[str, float]]]:
        """Attribution exports per model over its held-out rows; the rankings."""
        from . import shapley

        cfg, table, models, fmt = self.cfg, self.table, self.models, self.cfg.out_format
        stems = {name: [f"shap_values_{name}", f"shap_summary_{name}",
                        *(f"shap_dependence_{name}_{feature}" for feature in MET_FEATURES)] for name in models}
        outputs = {name: [_table_path(self.ws.out, stem, fmt) for stem in group] for name, group in stems.items()}

        def compute():
            _, test_part = self.split
            summaries = {}
            for name, (_, _, ensemble) in models.items():
                X, _, keys = _model_rows(test_part, name)
                atts = shapley.shapley_batch(ensemble(), X, [f"{k[0]}|{tables.hour(k[1])}" for k in keys])
                summaries[name] = ranking = shapley.summary(atts)
                values, summary, *dependence = outputs[name]
                shapley.write_shap_values(atts, values)
                shapley.write_shap_summary(ranking, summary)
                for feature, path in zip(MET_FEATURES, dependence):
                    shapley.write_shap_dependence(shapley.dependence(atts, feature), feature, path)
            return summaries

        parts = (self.ws.out / "features.csv", *(self.ws.out / f"model_{name}.json" for name in models), cfg.seed, fmt)
        return self.ws.stage("shap", parts, [p for group in outputs.values() for p in group],
                             lambda: {name: shapley.read_shap_summary(group[1]) for name, group in outputs.items()},
                             compute)

    @functools.cached_property
    def validation(self):
        """Per-tract diurnal labels and district-pair agreement statistics, also
        written to validation.csv.

        Works from the raw population stream so unmapped tracts are covered too.
        """
        from . import validation

        district_of = {t.tract_id: t.district_id for t in self.tracts}
        by_tract: dict[str, dict[datetime, float]] = {}
        for p in self.population:
            by_tract.setdefault(p.tract_id, {})[p.hour_start] = p.defacto_count

        diurnal = {}
        tract_series = []
        for tract in sorted(by_tract):
            points = sorted(by_tract[tract].items())
            tract_series.append(validation.HourlySeries(key=tract, points=points))
            by_hour = [[v for hs, v in points if hs.hour == h] for h in range(24)]
            profile = [float(np.mean(vals)) if vals else 0.0 for vals in by_hour]
            diurnal[tract] = validation.classify_diurnal(profile).value

        def r2(a, b, transform=lambda values: values):
            """R^2 of two district series after ``transform``; None where it is undefined."""
            try:
                return validation.r_squared(transform(a.values()), transform(b.values()))
            except AirnoiseError:
                return None

        district_series = validation.aggregate_to_district(tract_series, {t: district_of[t] for t in by_tract})
        pairs = [{"a": a.key, "b": b.key, "r2_absolute": r2(a, b), "r2_pct_change": r2(a, b, validation.pct_change)}
                 for i, a in enumerate(district_series) for b in district_series[i + 1:]]
        rows = [("diurnal", tract, label) for tract, label in sorted(diurnal.items())]
        for pair in pairs:
            key = f"{pair['a']}|{pair['b']}"
            rows += [("r2_absolute", key, pair["r2_absolute"]), ("r2_pct_change", key, pair["r2_pct_change"])]
        tables.write(self.ws.out / "validation.csv", ("kind", "key", "value"), rows)
        return {"diurnal": diurnal, "district_r2": pairs}


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
    findings = [asdict(f) for f in report.findings]
    tables.write_json(cfg.out_dir / "findings.json", {"findings": findings, "streams_checked": 6})
    print(f"validate: {report.error_count} finding(s) across 6 streams")
    return 1 if report.error_count else 0


def cmd_laeq(args) -> int:
    series = Run(args, pin_window=False).series
    measured = sum(1 for h in series if h.laeq is not None)
    print(f"laeq: {len(series)} terminal-hours, {measured} with a measured level")
    return 0


def cmd_fuse(args) -> int:
    run = Run(args)
    records, table = run.records, run.table
    print(f"fuse: {len(records)} tract-hours, feature table {table.matrix.shape[0]}x{table.matrix.shape[1]}")
    return 0


def cmd_exposure(args) -> int:
    matrices, _, _, correlations = Run(args).exposure
    totals = {t: float(m.cells.sum()) for t, m in matrices.items()}
    print(f"exposure: thresholds {list(matrices)} person-hour totals {totals}, "
          f"{len(correlations)} terminal pairs")
    return 0


def cmd_train(args) -> int:
    parts = []
    for name, (history, kept, _) in Run(args).models.items():
        at = history[kept - 1] if kept else {"valid_mae": float("nan")}
        parts.append(f"{name}: {kept} trees, test mae {at['valid_mae']:.3f}")
    print("train: " + "; ".join(parts))
    return 0


def cmd_explain(args) -> int:
    tops = {name: ranking[0][0] for name, ranking in Run(args).shap.items()}
    print(f"explain: top features {tops}")
    return 0


def cmd_report(args) -> int:
    from . import exposure

    run = Run(args)
    cfg = run.cfg
    # the stages run in this order: laeq, fused, features, models, exposure, shap, validation
    records, models = run.records, run.models
    matrices, ginis, comparisons, correlations = run.exposure
    summaries = run.shap
    report = {
        "meta": {
            "window": {"start": tables.hour(cfg.window_start), "end": tables.hour(cfg.window_end)},
            "thresholds": list(cfg.thresholds),
            "retention_dba": cfg.retention_dba,
            "mapping": cfg.mapping,
            "seed": cfg.seed,
            "tract_order": sorted({r.tract_id for r in records}),
        },
        "exposure": {
            exposure.theta_tag(t): {
                "hours": [tables.hour(h) for h in m.hours],
                "hourly_total": [float(m.cells[:, j].sum()) for j in range(len(m.hours))],
            }
            for t, m in matrices.items()
        },
        "gini": {
            exposure.theta_tag(t): [
                {"hour": tables.hour(e.hour), "gini": e.gini,
                 "exposed_total": e.exposed_total, "mean_exposure": e.mean_exposure}
                for e in s.entries
            ]
            for t, s in ginis.items()
        },
        "comparison": {
            exposure.theta_tag(t): [
                {"hour": tables.hour(r["hour"]), "defacto_total": r["defacto_total"],
                 "residential_total": r["residential_total"], "delta": r["delta"]}
                for r in rows
            ]
            for t, rows in comparisons.items()
        },
        "rotation": [{"nmt_a": a, "nmt_b": b, "correlation": r} for (a, b), r in sorted(correlations.items())],
        "model": {
            name: {
                "rounds_run": len(history),
                "trees_kept": kept,
                "train_mae": history[kept - 1]["train_mae"] if kept else None,
                "train_rmse": history[kept - 1]["train_rmse"] if kept else None,
                "test_mae": history[kept - 1]["valid_mae"] if kept else None,
                "test_rmse": history[kept - 1]["valid_rmse"] if kept else None,
            }
            for name, (history, kept, _) in models.items()
        },
        "shap": {name: {"summary": [[f, v] for f, v in ranking]} for name, ranking in summaries.items()},
        "validation": run.validation,
    }
    tables.write_json(run.ws.out / "report.json", report)
    print(f"report: wrote {run.ws.out / 'report.json'} "
          f"({len(matrices)} thresholds, {len(correlations)} terminal pairs)")
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that raises each usage error as ``UsageError``, for
    ``main`` to report in one line."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, whose flags are ``--config`` and those of
    CONFIG_KEYS. Every flag keeps its text; ``resolve_config`` converts it."""
    parser = _Parser(prog="airnoise", description="Hourly aircraft-noise exposure analytics pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("synth", cmd_synth, "generate a synthetic input bundle"),
        ("validate", cmd_validate, "cross-validate the input bundle"),
        ("laeq", cmd_laeq, "aggregate samples into hourly levels"),
        ("fuse", cmd_fuse, "fuse population and levels; build the feature table"),
        ("exposure", cmd_exposure, "exposure, Gini, comparison and rotation tables"),
        ("train", cmd_train, "train the take-off and landing noise models"),
        ("explain", cmd_explain, "Shapley attribution exports"),
        ("report", cmd_report, "full pipeline into report.json"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value configuration file (flags win)")
        skip = "in" if name == "synth" else "days"
        for key, (attr, _, flag_help) in CONFIG_KEYS.items():
            if flag_help is not None and key != skip:
                p.add_argument(_flag(key), dest=attr, action="append" if key == "theta" else "store", help=flag_help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AirnoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except OSError as exc:  # a missing or unreadable file, named in one line
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
