import json
from datetime import datetime

import pytest

from airnoise import tables
from airnoise.errors import MalformedRow

HEADER = ("name", "hour_start", "value", "count")
ROWS = [
    ("a", tables.hour(datetime(2023, 1, 1, 5)), 0.1, 3),
    ("b", tables.hour(datetime(2023, 1, 1, 6)), None, 0),
    ("c", tables.hour(datetime(2023, 1, 1, 7)), -0.0, 12),
]


def test_csv_cells_follow_one_rule(tmp_path):
    path = tmp_path / "t.csv"
    tables.write(path, HEADER, ROWS)
    assert path.read_text(encoding="utf-8") == (
        "name,hour_start,value,count\n"
        "a,2023-01-01T05:00,0.1,3\n"
        "b,2023-01-01T06:00,,0\n"
        "c,2023-01-01T07:00,-0.0,12\n"
    )
    assert tables.read(path, HEADER) == (list(HEADER), [
        ["a", "2023-01-01T05:00", "0.1", "3"],
        ["b", "2023-01-01T06:00", "", "0"],
        ["c", "2023-01-01T07:00", "-0.0", "12"],
    ])


def test_json_is_a_sorted_record_array(tmp_path):
    path = tmp_path / "t.json"
    tables.write(path, HEADER, iter(ROWS))
    records = [dict(zip(HEADER, row)) for row in ROWS]
    assert path.read_text(encoding="utf-8") == json.dumps(records, sort_keys=True, indent=1)
    assert tables.read(path, HEADER) == (list(HEADER), [list(row) for row in ROWS])


def test_a_column_given_as_none_takes_any_name(tmp_path):
    path = tmp_path / "t.csv"
    tables.write(path, HEADER, ROWS)
    names, rows = tables.read(path, ("name", None, None, "count"))
    assert names == list(HEADER) and len(rows) == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_write_keeps_the_old_artifact(tmp_path, fmt):
    path = tmp_path / f"t.{fmt}"
    tables.write(path, HEADER, ROWS)
    old = path.read_bytes()

    def rows():
        yield ROWS[0]
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        tables.write(path, HEADER, rows())
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_write_atomic_removes_its_temporary_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old", encoding="utf-8")

    def raising(fh):
        fh.write("partly written")
        raise OSError("disk full")

    with pytest.raises(OSError):
        tables.write_atomic(path, raising)
    assert path.read_text(encoding="utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_torn_csv_raises_malformed_row(tmp_path, torn):
    path = tmp_path / "t.csv"
    tables.write(path, HEADER, ROWS)
    path.write_text(torn(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(MalformedRow):
        tables.read(path, HEADER)


@pytest.mark.parametrize("text", ["[{\"name\": \"a\"", "{}", "[{\"name\": \"a\"}]", "[1]"],
                         ids=["torn", "not-an-array", "missing-keys", "not-a-record"])
def test_foreign_json_raises_malformed_row(tmp_path, text):
    path = tmp_path / "t.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedRow):
        tables.read(path, HEADER)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cells_that_need_quoting_read_back(tmp_path, fmt):
    path = tmp_path / f"t.{fmt}"
    header = ("a,b", "q\"t")
    rows = [("a,b", 'q"t'), ("l\nm", "x\u2028y"), ("r\rs", "")]
    tables.write(path, header, rows)
    assert tables.read(path, header) == (list(header), [list(row) for row in rows])
