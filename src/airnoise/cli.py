"""Command-line pipeline: synth, validate, laeq, fuse, exposure, train, explain, report.

Every subcommand reads declared inputs, writes declared outputs under --out,
and prints a one-line summary. Re-running with unchanged inputs and seed
produces byte-identical outputs.

The seven subcommands but synth are each one `Run`, whose inputs and stages
are cached properties. A subcommand reads the stage it wants, and a stage
reads the inputs and stages it needs, so stages run in the order they are
first read, each input is parsed once, and each stage runs or is read back at
most once per command. The study window is pinned first, for every command
but laeq. The stages laeq, fused, features, models and shap are cached: a
stage whose parameters, input files, code and outputs still match its entry in
the content-hash manifest (`manifest.json` under --out) reads its outputs back,
and any other stage recomputes them, with identical results either way (see
`Workspace`). Findings (validate) always recompute, and so do exposure and
validation unless the whole report is up to date: report is one more cached
stage, keyed on the six input files, every setting but --in and --out, and the
code. When its entry still matches every file it owns, report makes no
`Run`, reads back only report.json for its summary line, and writes nothing,
not even the manifest.

Each layer module writes its own tables through `tables.write`, which picks
csv or json from the file's suffix. Every artifact, the manifest and
report.json included, is written to a temporary file that then replaces it.
OWNED names the files each stage owns in --out; a stage's entry records just
those, and report's every stage's. Once it has written, a stage removes those
it owns but did not write, and every `Run` subcommand but report removes
report.json (`Workspace.prune`), so --out holds no stale copy. Any other file
there is left alone and recorded by no entry.

Configuration comes from a plain key=value file (--config) overridden by
flags. Each setting is declared once, in CONFIG_KEYS, which also builds its
flag; a flag's text goes through the same converter as the key's value in the
file. All randomness derives from the single --seed through named
sub-streams, so adding a consumer never perturbs the others.

Exit status: 0 on success, 1 on error-severity validation findings or data
errors (a missing input file among them), 2 on usage errors, each reported in
one line: a bad flag or config value, an unknown flag or subcommand, and a
missing subcommand among them.

`train`, `explain` and `report` fit the models of MODEL_TARGETS together, in
one process: `gbm.train_models` grows every model's tree of a round in the
same levels, and each model comes out as `gbm.train` would fit it alone. A
model with no training or no held-out rows, or every model when the feature
table has fewer rows than `gbm.split_data` splits (a short window), is not
fitted: it has no model file and no attribution tables, and its report entry
has no round, no tree and null metrics.

This module imports only the standard library, `tables` and `errors`. Each
stage imports the layer modules it runs, and numpy with them, so a command
loads only the layers it runs, and an up-to-date report loads none.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path

from . import tables
from .errors import AirnoiseError, InvalidConfig, MalformedConfig, UsageError

MET_FEATURES = ("temperature_c", "wind_speed_kt", "wind_deviation_deg", "cloud_cover_tenths")
MAPPINGS = (tables.MAPPING_CONTAINING, tables.MAPPING_NEAREST_CENTROID)
FORMATS = ("csv", "json")
# the RunConfig fields that train_config passes to gbm.TrainConfig by name
TRAIN_FIELDS = ("rounds_max", "max_depth", "lambda_", "gamma", "min_child_weight", "early_stopping_patience")


@dataclass
class RunConfig:
    in_dir: Path = Path(".")
    out_dir: Path = Path("out")
    window_start: datetime | None = None   # inferred from weather coverage when absent
    window_end: datetime | None = None
    thresholds: tuple[float, ...] = (65.0, 70.0)
    retention_dba: float = tables.DEFAULT_RETENTION_DBA
    mapping: str = tables.MAPPING_CONTAINING
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
    early_stopping_patience: int = 30

    def train_config(self) -> gbm.TrainConfig:
        from . import gbm

        return gbm.TrainConfig(seed=self.seed, **{name: getattr(self, name) for name in TRAIN_FIELDS})


def _choice(choices: tuple[str, ...]):
    """A converter that accepts only ``choices``."""
    def convert(value: str) -> str:
        if value not in choices:
            raise ValueError(value)
        return value
    return convert


def _iso_hour(value: str) -> datetime:
    """A window bound: an ISO hour with no UTC offset, minutes or seconds."""
    hour = datetime.fromisoformat(value)
    if hour.tzinfo is not None or hour.minute or hour.second or hour.microsecond:
        raise ValueError(value)
    return hour


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
    "window_start": ("window_start", _iso_hour, "study window start (ISO hour)"),
    "window_end": ("window_end", _iso_hour, "study window end, exclusive (ISO hour)"),
    "mapping": ("mapping", _choice(MAPPINGS), f"tract-to-terminal mapping mode: {' or '.join(MAPPINGS)}"),
    "format": ("out_format", _choice(FORMATS), f"tabular artifact format: {' or '.join(FORMATS)}"),
    "days": ("days", int, "scenario length in days"),
    "rounds_max": ("rounds_max", int, None),
    "max_depth": ("max_depth", int, None),
    "lambda": ("lambda_", float, None),
    "gamma": ("gamma", float, None),
    "min_child_weight": ("min_child_weight", float, None),
    "patience": ("early_stopping_patience", int, None),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def load_config_file(path: Path) -> dict:
    """Parse a key=value config file; a file that cannot be read or is not
    UTF-8, a line without ``=`` and an unknown key are usage errors."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"{path}: cannot read config file: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"{path}: cannot read config file: it is not UTF-8 text") from None
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
    if any(math.isnan(v) for v in (cfg.retention_dba, *cfg.thresholds)):
        raise UsageError("retention_dba and theta must not be NaN")
    return replace(cfg, thresholds=tuple(sorted(set(cfg.thresholds))))


def _check_window(start: datetime, end: datetime) -> None:
    if start >= end:
        raise UsageError(f"empty study window: start {tables.hour(start)} is not before end {tables.hour(end)}")


def _settings(args: argparse.Namespace, pin_window: bool = True) -> RunConfig:
    """``resolve_config(args)``, with a study window given in full checked
    before any input is read, unless the command needs no window."""
    cfg = resolve_config(args)
    if pin_window and cfg.window_start is not None and cfg.window_end is not None:
        _check_window(cfg.window_start, cfg.window_end)
    return cfg


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


@functools.cache
def _code_identity() -> str:
    """The sha256 of the package's modules, each paired with its name: part of
    every stage digest, so that no stage reads back what other code wrote."""
    modules = sorted(Path(__file__).parent.glob("*.py"))
    return hashlib.sha256(repr([(p.name, p.read_bytes()) for p in modules]).encode("utf-8")).hexdigest()


# the files each stage owns in --out, by pattern; manifest.json and findings.json are no stage's
OWNED = {
    "laeq": ("hourly_laeq.csv",),
    "fused": ("fused.csv",),
    "features": ("features.csv",),
    "models": ("model_*.json",),
    "shap": tuple(f"shap_*.{fmt}" for fmt in FORMATS),
    "exposure": tuple(f"{stem}.{fmt}" for stem in ("exposure_*", "gini_*", "compare", "rotation") for fmt in FORMATS),
    "validation": ("validation.csv",),
    "report": ("report.json",),
}


class Workspace:
    """Stage cache rooted at the output directory, a verifying trace: each entry
    holds the digest of the stage's parameters, input files and code, and the
    sha256 of each file the stage owns (OWNED). A command hashes each file once
    (``hashes``): an input when a digest first names it, an output when a hit
    checks it or a miss writes it. A file is hashed again only once a miss has
    replaced it."""

    def __init__(self, out_dir: Path):
        self.out = Path(out_dir)
        self.manifest_path = self.out / "manifest.json"
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError):  # ValueError: not UTF-8, or not JSON
            manifest = {}
        self.manifest = manifest if isinstance(manifest, dict) else {}  # anything else counts as empty
        self.hashes: dict[Path, tuple[tuple[int, int, int], str]] = {}

    def _sha256(self, path: Path) -> str:
        """The sha256 of ``path``'s bytes, kept with the file's inode, mtime and
        size: ``tables.write_atomic`` replaces a file it rewrites, which gives
        it a new inode, so only a rewritten file is hashed again."""
        st = path.stat()
        key = (st.st_ino, st.st_mtime_ns, st.st_size)
        kept = self.hashes.get(path)
        if kept is None or kept[0] != key:
            kept = self.hashes[path] = (key, _file_sha256(path))
        return kept[1]

    def digest(self, *parts) -> str:
        """The sha256 of the repr of ``parts`` and the code identity, each file
        among the parts replaced by the sha256 of its bytes, so that no two
        different inputs share it."""
        named = [self._sha256(p) if isinstance(p, Path) else p for p in parts]
        return hashlib.sha256(repr([*named, _code_identity()]).encode("utf-8")).hexdigest()

    def owned(self, *stages: str) -> list[Path]:
        """The files in --out that ``stages`` own, sorted."""
        return sorted({p for stage in stages for pattern in OWNED[stage] for p in self.out.glob(pattern)})

    def prune(self, stage: str, written=()) -> None:
        """Remove the files ``stage`` owns but did not just write. Only after it
        writes: a file removed first could lend its rewrite its inode (``_sha256``)."""
        for path in set(self.owned(stage)) - set(written):
            path.unlink()

    def stage(self, name: str, parts, load, compute):
        """The result of a cached stage. If the stage last ran on the digest of
        ``parts``, and the files it owns (every stage's for report) are the ones
        it recorded then, each still holding the bytes it wrote, that is
        ``load()``. Otherwise ``compute()`` writes them and returns the result,
        and the run is recorded."""
        stages = OWNED if name == "report" else (name,)
        digest = self.digest(*parts)
        entry = self.manifest.get(name)
        recorded = entry.get("outputs") if isinstance(entry, dict) and entry.get("digest") == digest else None
        if isinstance(recorded, dict):
            paths = self.owned(*stages)
            if recorded.keys() == {p.name for p in paths} and all(recorded[p.name] == self._sha256(p) for p in paths):
                try:
                    return load()
                except (AirnoiseError, ValueError):
                    pass  # a torn artifact is a miss
        # the entry goes before the outputs are rewritten, so that an
        # interrupted rewrite is never taken for fresh
        if self.manifest.pop(name, None) is not None:
            tables.write_json(self.manifest_path, self.manifest)
        result = compute()
        self.manifest[name] = {"digest": digest, "outputs": {p.name: self._sha256(p) for p in self.owned(*stages)}}
        tables.write_json(self.manifest_path, self.manifest)
        return result


# ---------------------------------------------------------------------------
# shared pipeline pieces

MODEL_TARGETS = {
    "takeoff": tables.Operation.DEPARTURE,
    "landing": tables.Operation.ARRIVAL,
}


def _model_rows(table: fusion.FeatureTable, name: str):
    import numpy as np

    op = MODEL_TARGETS[name]
    keep = np.array([k[2] is op for k in table.keys]) & ~np.isnan(table.laeq)
    keys = [k for k, kp in zip(table.keys, keep) if kp]
    return table.matrix[keep], table.laeq[keep], keys


def _fit_rows(split) -> dict[str, tuple]:
    """(X_train, y_train, X_test, y_test) of each model with rows in both parts
    of ``split``, a (train, test) pair of feature tables or None."""
    if split is None:
        return {}
    parts = {name: (*_model_rows(split[0], name)[:2], *_model_rows(split[1], name)[:2]) for name in MODEL_TARGETS}
    return {name: rows for name, rows in parts.items() if len(rows[1]) and len(rows[3])}


# the models entry of a model that is not fitted: no history, no tree, no ensemble
UNFITTED = ([], 0, None)


def _model_facts(history: list[dict], kept: int) -> dict:
    """A model's rounds run, trees kept, and metrics at its last kept tree,
    null when it keeps none."""
    at = history[kept - 1] if kept else {}
    return {"rounds_run": len(history), "trees_kept": kept, "train_mae": at.get("train_mae"),
            "train_rmse": at.get("train_rmse"), "test_mae": at.get("valid_mae"), "test_rmse": at.get("valid_rmse")}


def _saved_model(text: str):
    """A saved model's history, its number of trees, and a call that decodes
    the trees the first time it is made."""
    from . import gbm

    doc = json.loads(text)
    return doc.get("history", []), len(doc["trees"]), functools.cache(lambda: gbm.from_json(text)[0])


def _parsed(stem: str) -> functools.cached_property:
    """A run's input ``<stem>.csv``, parsed once by ``ingest.parse_<stem>``."""
    def parse(run):
        from . import ingest

        return getattr(ingest, f"parse_{stem}")(run.cfg.in_dir / f"{stem}.csv")
    return functools.cached_property(parse)


class Run:
    """One subcommand's inputs and stages, each a cached property (see the
    module docstring). A cached stage reads the stages it depends on before it
    takes its digest, which covers the files they wrote. A window bound not
    given is inferred from weather coverage; an empty window is a usage error.
    ``laeq`` needs no window: it passes ``pin_window=False`` and never reads
    weather.csv. A run of report takes the report stage's ``cfg``, resolved
    and checked by ``_settings``, and its ``ws``."""

    def __init__(self, args, pin_window: bool = True, cfg: RunConfig | None = None, ws: Workspace | None = None):
        self.cfg = cfg = cfg if cfg is not None else _settings(args, pin_window)
        # before any stage digest, so that an inferred window is part of every cache key
        if pin_window and (cfg.window_start is None or cfg.window_end is None):
            if not self.weather:
                raise InvalidConfig("cannot infer the study window from an empty weather stream")
            start = cfg.window_start or min(w.hour_start for w in self.weather)
            end = cfg.window_end or max(w.hour_start for w in self.weather) + timedelta(hours=1)
            _check_window(start, end)
            self.cfg = replace(cfg, window_start=start, window_end=end)
        self.ws = ws or Workspace(self.cfg.out_dir)
        self.ws.out.mkdir(parents=True, exist_ok=True)
        if args.command != "report":  # a report.json left here would describe other outputs
            self.ws.prune("report")

    spl = _parsed("spl")
    flights = _parsed("flights")
    weather = _parsed("weather")
    tracts = _parsed("tracts")
    nmts = _parsed("nmts")
    population = _parsed("population")

    @functools.cached_property
    def hours(self) -> list[datetime]:
        from . import ingest

        return ingest.window_hours((self.cfg.window_start, self.cfg.window_end))

    @functools.cached_property
    def split(self) -> tuple[fusion.FeatureTable, fusion.FeatureTable] | None:
        """The feature table's train and test parts; None when it has fewer
        rows than ``gbm.split_data`` splits."""
        from . import gbm

        if len(self.table.keys) < gbm.SPLIT_ROWS_MIN:
            return None
        return gbm.split_data(self.table, gbm.TrainConfig().split_fraction, self.cfg.seed)

    @functools.cached_property
    def series(self) -> list[acoustics.HourlyLaeq]:
        from . import acoustics

        cfg, out = self.cfg, self.ws.out / "hourly_laeq.csv"

        def compute():
            series = acoustics.hourly_series(self.spl, cfg.retention_dba)
            del self.spl  # no later stage reads the samples, and held through training they raise the peak RSS
            acoustics.write_hourly_laeq(series, out)
            return series

        return self.ws.stage("laeq", (cfg.in_dir / "spl.csv", cfg.retention_dba),
                             lambda: acoustics.read_hourly_laeq(out), compute)

    @functools.cached_property
    def records(self) -> list[fusion.TractHourRecord]:
        from . import fusion

        cfg, series, out = self.cfg, self.series, self.ws.out / "fused.csv"

        def compute():
            tracts = self.tracts
            mapping = fusion.map_tracts(self.nmts, tracts, cfg.mapping)
            records = fusion.fuse(self.population, series, mapping, tracts, self.hours)
            fusion.write_fused(records, out)
            return records

        parts = (self.ws.out / "hourly_laeq.csv", cfg.in_dir / "population.csv", cfg.in_dir / "tracts.csv",
                 cfg.in_dir / "nmts.csv", cfg.mapping, cfg.window_start, cfg.window_end)
        return self.ws.stage("fused", parts, lambda: fusion.read_fused(out), compute)

    @functools.cached_property
    def table(self) -> fusion.FeatureTable:
        from . import fusion

        cfg, series, out = self.cfg, self.series, self.ws.out / "features.csv"

        def compute():
            table = fusion.build_features(self.flights, self.weather, self.nmts, series, self.hours)
            fusion.write_features(table, out)
            return table

        parts = (self.ws.out / "hourly_laeq.csv", cfg.in_dir / "flights.csv", cfg.in_dir / "weather.csv",
                 cfg.in_dir / "nmts.csv", cfg.window_start, cfg.window_end)
        return self.ws.stage("features", parts, lambda: fusion.read_features(out), compute)

    @functools.cached_property
    def models(self) -> dict[str, tuple]:
        """Per model: its history, the number of trees it kept, and a call that
        returns the ensemble, which decodes a cached model's trees only then;
        ``UNFITTED`` for a model that is not fitted, which has no model file."""
        from . import gbm

        cfg, table = self.cfg, self.table
        paths = {name: self.ws.out / f"model_{name}.json" for name in MODEL_TARGETS}

        def compute():
            config = cfg.train_config()
            rows = _fit_rows(self.split)
            fitted = dict(zip(rows, gbm.train_models(list(rows.values()), config, table.feature_names) if rows else []))
            models = dict.fromkeys(paths, UNFITTED)
            for name, (ens, history) in fitted.items():
                tables.write_text(paths[name], gbm.to_json(ens, config, history))
                models[name] = (history, len(ens.trees), lambda ens=ens: ens)
            self.ws.prune("models", [paths[name] for name in fitted])
            return models

        def load():
            return {name: _saved_model(path.read_text(encoding="utf-8")) if path.exists() else UNFITTED
                    for name, path in paths.items()}

        parts = (self.ws.out / "features.csv", vars(cfg.train_config()))
        return self.ws.stage("models", parts, load, compute)

    @functools.cached_property
    def exposure(self):
        """Exposure matrices, Gini series, basis comparison and rotation tables."""
        from . import exposure

        cfg, records, series, out = self.cfg, self.records, self.series, self.ws.out
        matrices = exposure.exposure_matrices(records, cfg.thresholds)
        residential = exposure.exposure_matrices(records, cfg.thresholds, exposure.BASIS_RESIDENTIAL)
        ginis = {t: exposure.gini_series(m) for t, m in matrices.items()}
        comparisons = {t: exposure.compare_bases(matrices[t], residential[t]) for t in matrices}
        # every pair of the terminals in nmts.csv, and only those: a pair with a silent terminal has no correlation
        terminals = {n.nmt_id for n in self.nmts}
        window = [h for h in series if cfg.window_start <= h.hour_start < cfg.window_end and h.nmt_id in terminals]
        correlations = {**dict.fromkeys(itertools.combinations(sorted(terminals), 2)),
                        **exposure.rotation_contrast(window)}

        fmt = cfg.out_format
        paths = {t: [out / f"{kind}_{exposure.theta_tag(t)}.{fmt}" for kind in ("exposure", "gini")] for t in matrices}
        for theta, (matrix_path, gini_path) in paths.items():
            exposure.write_exposure_matrix(matrices[theta], matrix_path)
            exposure.write_gini_series(ginis[theta], gini_path)
        exposure.write_comparison(comparisons, out / f"compare.{fmt}")
        exposure.write_rotation(correlations, out / f"rotation.{fmt}")
        self.ws.prune("exposure", [*itertools.chain(*paths.values()), out / f"compare.{fmt}", out / f"rotation.{fmt}"])
        return matrices, ginis, comparisons, correlations

    @functools.cached_property
    def shap(self) -> dict[str, list[tuple[str, float]]]:
        """Attribution exports per model over its held-out rows; the rankings."""
        from . import shapley

        cfg, table, models, fmt, out = self.cfg, self.table, self.models, self.cfg.out_format, self.ws.out
        outputs = {name: [out / f"{stem}.{fmt}" for stem in (f"shap_values_{name}", f"shap_summary_{name}",
                                                             *(f"shap_dependence_{name}_{f}" for f in MET_FEATURES))]
                   for name, (_, _, ensemble) in models.items() if ensemble is not None}

        def compute():
            summaries = {name: [] for name in models}  # a model not fitted has no attribution
            for name in outputs:
                _, _, ensemble = models[name]
                X, _, keys = _model_rows(self.split[1], name)
                atts = shapley.shapley_batch(ensemble(), X, [f"{k[0]}|{tables.hour(k[1])}" for k in keys])
                summaries[name] = ranking = shapley.summary(atts)
                values, summary, *dependence = outputs[name]
                shapley.write_shap_values(atts, values)
                shapley.write_shap_summary(ranking, summary)
                for feature, path in zip(MET_FEATURES, dependence):
                    shapley.write_shap_dependence(shapley.dependence(atts, feature), feature, path)
            self.ws.prune("shap", [p for group in outputs.values() for p in group])
            return summaries

        parts = (out / "features.csv", *(out / f"model_{name}.json" for name in outputs), cfg.seed, fmt)
        return self.ws.stage("shap", parts,
                             lambda: {name: shapley.read_shap_summary(outputs[name][1]) if name in outputs else []
                                      for name in models},
                             compute)

    @functools.cached_property
    def findings(self) -> ingest.ValidationReport:
        """Coverage, duplicate and reference checks across the six inputs in
        the window, also written to findings.json. Never cached."""
        from . import ingest

        bundle = ingest.Bundle(self.spl, self.flights, self.weather, self.population, self.tracts, self.nmts)
        report = ingest.validate_bundle(bundle, (self.cfg.window_start, self.cfg.window_end))
        tables.write_json(self.ws.out / "findings.json",
                          {"findings": [asdict(f) for f in report.findings], "streams_checked": 6})
        return report

    @functools.cached_property
    def validation(self):
        """Per-tract diurnal labels and district-pair agreement statistics, also
        written to validation.csv.

        Works from the raw population stream, in the window, so that tracts
        with no terminal are covered too.
        """
        import numpy as np

        from . import validation

        district_of = {t.tract_id: t.district_id for t in self.tracts}
        by_tract: dict[str, dict[datetime, float]] = {}
        for p in self.population:
            if self.cfg.window_start <= p.hour_start < self.cfg.window_end:
                by_tract.setdefault(p.tract_id, {})[p.hour_start] = p.defacto_count

        diurnal = {}
        tract_series = []
        for tract in sorted(by_tract):
            points = sorted(by_tract[tract].items())
            tract_series.append(validation.HourlySeries(key=tract, points=points))
            by_hour = [[v for hs, v in points if hs.hour == h] for h in range(24)]
            label = validation.classify_diurnal([float(np.mean(vals)) if vals else None for vals in by_hour])
            diurnal[tract] = label and label.value

        def r2(a, b, transform=lambda values: values):
            """R^2 of two district series after ``transform``; None where it is undefined."""
            try:
                return validation.r_squared(transform(a.values()), transform(b.values()))
            except AirnoiseError:
                return None

        district_series = validation.aggregate_to_district(tract_series, district_of)
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
    report = Run(args).findings
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
        mae = _model_facts(history, kept)["test_mae"]
        parts.append(f"{name}: {kept} trees, test mae {'null' if mae is None else f'{mae:.3f}'}")
    print("train: " + "; ".join(parts))
    return 0


def cmd_explain(args) -> int:
    run = Run(args)  # a model that keeps no tree ranks every feature at 0, and has no top feature
    tops = {name: ranking[0][0] if ranking and run.models[name][1] else None for name, ranking in run.shap.items()}
    print(f"explain: top features {tops}")
    return 0


# the six inputs, in the order that a report first reads them: with the window
# inferred, a missing --in is a missing weather.csv
REPORT_INPUTS = ("weather", "tracts", "population", "spl", "nmts", "flights")


def cmd_report(args) -> int:
    cfg = _settings(args)
    ws = Workspace(cfg.out_dir)
    # every setting with the window as given: weather.csv stands in for an inferred one
    settings = {k: v for k, v in vars(cfg).items() if k not in ("in_dir", "out_dir")}
    parts = (*(cfg.in_dir / f"{stem}.csv" for stem in REPORT_INPUTS), settings)
    path = ws.out / "report.json"
    report = ws.stage("report", parts, lambda: json.loads(path.read_text(encoding="utf-8")),
                      lambda: _report(Run(args, cfg=cfg, ws=ws)))
    print(f"report: wrote {path} ({len(report['exposure'])} thresholds, {len(report['rotation'])} terminal pairs)")
    return 0


def _report(run: Run) -> dict:
    """Every stage of ``run``, summed up in report.json."""
    from . import exposure

    cfg = run.cfg
    # the stages run in this order: validation (population and tracts only, so that an
    # unmapped tract fails before any training), laeq, fused, features, models, exposure, shap
    validation = run.validation
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
                "hourly_total": [e.exposed_total for e in ginis[t].entries],
            }
            for t, m in matrices.items()
        },
        "gini": {exposure.theta_tag(t): [{**asdict(e), "hour": tables.hour(e.hour)} for e in s.entries]
                 for t, s in ginis.items()},
        "comparison": {exposure.theta_tag(t): [{**r, "hour": tables.hour(r["hour"])} for r in rows]
                       for t, rows in comparisons.items()},
        "rotation": [{"nmt_a": a, "nmt_b": b, "correlation": r} for (a, b), r in sorted(correlations.items())],
        "model": {name: _model_facts(history, kept) for name, (history, kept, _) in models.items()},
        "shap": {name: {"summary": [[f, v] for f, v in ranking]} for name, ranking in summaries.items()},
        "validation": validation,
    }
    tables.write_json(run.ws.out / "report.json", report)
    return report


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
