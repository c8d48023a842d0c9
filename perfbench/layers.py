"""Per-layer metrics from the spans of one traced pass and the saved models.

A traced pass is one `validate` and one `report` command, each run under
`tracer.py`. Times are sums of span durations in seconds. A layer's self time
is the duration of its spans minus the part covered by their child spans.
Work counts of the models (rounds, trees, nodes, leaves, coalitions) are read
from the saved `model_<name>.json`, not from inside the program.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "ingest", "acoustics", "fusion", "gbm", "shapley", "exposure", "validation")

# report stages in pipeline order; the first four are cached, and a hit shows
# as a read of the stage's artifact instead of the call that computes it
STAGES = ("laeq", "fused", "features", "models", "exposure", "shap", "validation")
STAGE_HIT_CALLS = {
    "laeq": "acoustics.read_hourly_laeq",
    "fused": "fusion.read_fused",
    "features": "fusion.read_features",
    "models": "gbm.from_json",
}

PARSE_CALLS = ("ingest.parse_spl", "ingest.parse_flights", "ingest.parse_weather",
               "ingest.parse_population", "ingest.parse_tracts", "ingest.parse_nmts")


def model_work(model_path: Path) -> dict[str, int]:
    """Rounds run, trees kept, nodes, leaves and TreeSHAP coalitions of a model.

    A leaf whose root path splits on d distinct features makes the fast
    Shapley path enumerate 2**d coalitions.
    """
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    leaves = coalitions = 0

    def walk(nodes, pos, features):
        nonlocal leaves, coalitions
        spec = nodes[pos]
        if "leaf" in spec:
            leaves += 1
            coalitions += 1 << len(features)
            return pos + 1
        below = features | {spec["feature"]}
        return walk(nodes, walk(nodes, pos + 1, below), below)

    for nodes in doc["trees"]:
        walk(nodes, 0, frozenset())
    return {
        "rounds_run": len(doc["history"]),
        "trees_kept": len(doc["trees"]),
        "nodes": sum(len(nodes) for nodes in doc["trees"]),
        "leaves": leaves,
        "coalitions": coalitions,
    }


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """(run, span id) -> duration minus the durations of its direct children."""
    own = {(s["run"], s["id"]): s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[(s["run"], s["parent"])] -= s["end"] - s["start"]
    return own


def derive(validate_spans: list[dict], report_spans: list[dict], out_dir: Path,
           model_names: list[str]) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    spans = validate_spans + report_spans
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for s in spans:
        seconds[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        for key, value in s.get("counts", {}).items():
            counts[f"{s['name']}.{key}"] += value

    def total(*names):
        return sum(seconds[n] for n in names)

    m: dict[str, float] = {}
    reported = {s["name"] for s in report_spans}
    hits = sum(1 for call in STAGE_HIT_CALLS.values() if call in reported)
    m["cli.digest_s"] = seconds["cli.digest"]
    m["cli.digest_bytes"] = counts["cli.digest.bytes"]
    m["cli.stage_hit_ratio"] = hits / len(STAGES)

    m["ingest.parse_spl_s"] = seconds["ingest.parse_spl"]
    m["ingest.parse_other_s"] = total(*PARSE_CALLS[1:])
    m["ingest.parse_bundle_s"] = seconds["ingest.parse_bundle"]
    m["ingest.validate_bundle_s"] = seconds["ingest.validate_bundle"]
    m["ingest.parse_calls"] = sum(calls[n] for n in PARSE_CALLS)
    m["ingest.rows_parsed"] = sum(counts[f"{n}.rows"] for n in PARSE_CALLS)

    m["acoustics.hourly_series_s"] = seconds["acoustics.hourly_series"]
    m["acoustics.cache_io_s"] = total("acoustics.read_hourly_laeq", "acoustics.write_hourly_laeq")
    m["acoustics.samples_in"] = counts["acoustics.hourly_series.samples_in"]
    m["acoustics.terminal_hours_out"] = counts["acoustics.hourly_series.hours_out"]
    m["acoustics.absent_hours"] = counts["acoustics.hourly_series.absent_hours"]

    m["fusion.fuse_s"] = total("fusion.map_tracts", "fusion.fuse")
    m["fusion.build_features_s"] = seconds["fusion.build_features"]
    m["fusion.cache_io_s"] = total("fusion.read_fused", "fusion.write_fused",
                                   "fusion.read_features", "fusion.write_features")
    m["fusion.feature_rows"] = counts["fusion.build_features.rows"] + counts["fusion.read_features.rows"]

    # the CLI trains and explains the models in this order, one call each
    trains = [s for s in report_spans if s["name"] == "gbm.train"]
    batches = [s for s in report_spans if s["name"] == "shapley.shapley_batch"]
    m["gbm.serialize_s"] = total("gbm.to_json", "gbm.from_json")
    for i, name in enumerate(model_names):
        work = model_work(out_dir / f"model_{name}.json")
        train = trains[i] if i < len(trains) else None
        batch = batches[i] if i < len(batches) else None
        m[f"gbm.train_s.{name}"] = train["end"] - train["start"] if train else 0.0
        m[f"gbm.train_rows.{name}"] = train["counts"]["rows"] if train else 0
        for key in ("rounds_run", "trees_kept", "nodes"):
            m[f"gbm.{key}.{name}"] = work[key]
        m[f"gbm.kept_ratio.{name}"] = work["trees_kept"] / work["rounds_run"]
        m[f"shapley.batch_s.{name}"] = batch["end"] - batch["start"] if batch else 0.0
        m[f"shapley.rows.{name}"] = batch["counts"]["rows"] if batch else 0
        m[f"shapley.leaves.{name}"] = work["leaves"]
        m[f"shapley.coalitions.{name}"] = work["coalitions"]

    m["exposure.compute_s"] = total("exposure.exposure_matrices", "exposure.gini_series",
                                    "exposure.compare_bases", "exposure.rotation_contrast")
    m["exposure.write_s"] = total("exposure.write_exposure_matrix", "exposure.write_gini_series",
                                  "exposure.write_rotation")
    # exposure_matrices runs once per population basis over the same records
    matrices = [s for s in report_spans if s["name"] == "exposure.exposure_matrices"]
    m["exposure.tract_hours"] = matrices[0]["counts"]["rows"] if matrices else 0

    m["validation.s"] = sum(t for n, t in seconds.items() if n.startswith("validation."))

    own = self_times(spans)
    for layer in LAYERS:
        in_layer = [s for s in spans if s["name"].split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = len(in_layer)
        m[f"{layer}.errors"] = sum(1 for s in in_layer if s["error"])
        m[f"{layer}.self_s"] = sum(own[(s["run"], s["id"])] for s in in_layer)
    return m


def coverage(spans: list[dict]) -> float:
    """Share of the commands' wall time spent inside some layer span.

    The root span of each command is `cli.main`; what its children do not
    cover is CLI glue outside every traced layer call.
    """
    roots = [s for s in spans if s["parent"] is None]
    whole = sum(s["end"] - s["start"] for s in roots)
    own = self_times(spans)
    return 1.0 - sum(own[(s["run"], s["id"])] for s in roots) / whole
