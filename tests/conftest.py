import pytest


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
