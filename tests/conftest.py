import csv

import numpy as np
import pytest

from airnoise.cli import main
from airnoise.spl import SplColumns


@pytest.fixture(params=["mid-row", "no-final-line-end", "wrong-header"])
def torn(request):
    """A call that tears the text of a whole csv table: cut inside its last
    row, cut before its final line end, or given a foreign header."""
    def cut(text: str) -> str:
        if request.param == "mid-row":
            return text[:text.rindex(",") - 2]
        if request.param == "no-final-line-end":
            return text[:-1]
        return "other" + text[text.index(","):]
    return cut


def spl_columns(rows) -> SplColumns:
    """SPL columns of (terminal id, datetime, level) rows, in their order."""
    names = sorted({r[0] for r in rows})
    code = {name: i for i, name in enumerate(names)}
    return SplColumns(names, np.array([code[r[0]] for r in rows], np.int32),
                      np.array([r[1] for r in rows], dtype="datetime64[us]"),
                      np.array([r[2] for r in rows], np.float64))


def spl_rows(columns: SplColumns) -> list[tuple]:
    """The (terminal id, datetime, level) rows of SPL columns, in their order."""
    return [(columns.names[code], ts, level)
            for code, ts, level in zip(columns.codes.tolist(), columns.times.tolist(), columns.levels.tolist())]


# cells of a 1-day seed-3 bundle renamed to ids that the csv dialect must
# quote: (file, column) -> {old: new}
QUOTED_IDS = {
    ("nmts.csv", "nmt_id"): {"NMT1": "N,1"},
    ("spl.csv", "nmt_id"): {"NMT1": "N,1"},
    ("nmts.csv", "tract_id"): {"R02": 'R"2'},
    ("tracts.csv", "tract_id"): {"R02": 'R"2'},
    ("population.csv", "tract_id"): {"R02": 'R"2'},
    ("flights.csv", "aircraft_type"): {"A320": "A,320"},
}


@pytest.fixture(scope="session")
def quoted_bundle(tmp_path_factory):
    """A 1-day seed-3 bundle in which a terminal id holds a comma, a tract id
    a double quote and an aircraft type a comma, written by the csv module."""
    data = tmp_path_factory.mktemp("quoted")
    assert main(["synth", "--seed", "3", "--days", "1", "--out", str(data)]) == 0
    for name in sorted({name for name, _ in QUOTED_IDS}):
        path = data / name
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        for (file, column), renames in QUOTED_IDS.items():
            if file == name:
                i = header.index(column)
                for row in rows:
                    row[i] = renames.get(row[i], row[i])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return data
