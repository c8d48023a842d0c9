"""Run one `airnoise` CLI command in-process with its layer boundaries traced.

    python3 perfbench/tracer.py SPANS_JSON RUN_ID -- <airnoise cli arguments>

Before calling `airnoise.cli.main`, this wraps the public functions that the
CLI calls on each layer module (and `Workspace.digest`, the stage cache's
hashing). Every wrapped call records a span: name, start, end, parent span,
run id, whether it raised, and the work counts it can see in its arguments or
result. Spans are kept in memory and written to SPANS_JSON when the command
ends. The process exits with the command's own exit status.

The program is not changed: the wrapping happens in this process only.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _digest_bytes(args, kwargs, result):
    # args[0] is the Workspace; Path parts are the files it hashes
    return {"bytes": sum(p.stat().st_size for p in args[1:] if isinstance(p, Path))}


def _hourly(args, kwargs, result):
    return {
        "samples_in": len(args[0]),
        "hours_out": len(result),
        "absent_hours": sum(1 for h in result if h.laeq is None),
    }


def _table_rows(args, kwargs, result):
    return {"rows": int(result.matrix.shape[0])}


def _first_arg_rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _explained_rows(args, kwargs, result):
    return {"rows": len(args[1])}


# (module, function, counts) for every traced call into a layer
TRACED = (
    ("ingest", "parse_spl", _rows),
    ("ingest", "parse_flights", _rows),
    ("ingest", "parse_weather", _rows),
    ("ingest", "parse_population", _rows),
    ("ingest", "parse_tracts", _rows),
    ("ingest", "parse_nmts", _rows),
    ("ingest", "parse_bundle", None),
    ("ingest", "validate_bundle", None),
    ("acoustics", "hourly_series", _hourly),
    ("acoustics", "read_hourly_laeq", None),
    ("acoustics", "write_hourly_laeq", None),
    ("fusion", "map_tracts", None),
    ("fusion", "fuse", None),
    ("fusion", "build_features", _table_rows),
    ("fusion", "read_features", _table_rows),
    ("fusion", "read_fused", None),
    ("fusion", "write_fused", None),
    ("fusion", "write_features", None),
    ("gbm", "split_data", None),
    ("gbm", "train", _first_arg_rows),
    ("gbm", "to_json", None),
    ("gbm", "from_json", None),
    ("shapley", "shapley_batch", _explained_rows),
    ("shapley", "summary", None),
    ("shapley", "dependence", None),
    ("shapley", "write_shap_values", None),
    ("shapley", "write_shap_summary", None),
    ("shapley", "write_shap_dependence", None),
    ("exposure", "exposure_matrices", _first_arg_rows),
    ("exposure", "gini_series", None),
    ("exposure", "compare_bases", None),
    ("exposure", "rotation_contrast", None),
    ("exposure", "write_exposure_matrix", None),
    ("exposure", "write_gini_series", None),
    ("exposure", "write_rotation", None),
    ("validation", "classify_diurnal", None),
    ("validation", "aggregate_to_district", None),
    ("validation", "r_squared", None),
    ("validation", "pct_change", None),
)


class Tracer:
    """In-memory span recorder; spans of one command share a run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]]["name"] == name:
                # readers and writers re-enter themselves with the opened file
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._open[-1] if self._open else None, "error": False}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        """Wrap every traced function; return the wrapped `cli.main`."""
        import importlib

        from airnoise import cli

        for module, attr, counts in TRACED:
            self.wrap(importlib.import_module(f"airnoise.{module}"), attr, f"{module}.{attr}", counts)
        self.wrap(cli.Workspace, "digest", "cli.digest", _digest_bytes)
        self.wrap(cli, "main", "cli.main")
        return cli.main


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON RUN_ID -- <airnoise arguments>", file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[3:]
    sys.path.insert(0, str(SRC))
    tracer = Tracer(run_id)
    cli_main = tracer.install()
    try:
        return cli_main(cli_args)
    finally:
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
