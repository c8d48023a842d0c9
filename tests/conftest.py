import numpy as np
import pytest

from airnoise.spl import SplBuilder, SplColumns


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
    columns = SplBuilder()
    columns.add([r[0] for r in rows],
                np.array([r[1] for r in rows], dtype="datetime64[us]").view(np.int64),
                [r[2] for r in rows])
    return columns.build()


def spl_rows(columns: SplColumns) -> list[tuple]:
    """The (terminal id, datetime, level) rows of SPL columns, in their order."""
    return [(columns.names[code], ts, level)
            for code, ts, level in zip(columns.codes.tolist(), columns.times.tolist(), columns.levels.tolist())]
