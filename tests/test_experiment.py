"""How `experiment` writes its CSVs: `atomic_write` streams the lines it is
given into a temporary file and renames it onto the target, writing the
bytes that joining the lines would give, and a failure partway leaves
neither the temporary nor a changed target. `write_oracle` streams the
grid's rows, so its memory does not grow with the grid."""

import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenariosearch.config import load_config
from scenariosearch.experiment import atomic_write, write_oracle

DEFAULT_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")


def raising_lines(exc: BaseException):
    yield "header"
    yield "first row"
    raise exc


@pytest.mark.parametrize("exc", [ValueError("bad row"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
@pytest.mark.parametrize("existing", [None, b"kept,bytes\r\nno newline"],
                         ids=["absent", "present"])
def test_lines_that_raise_leave_no_file(tmp_path, exc, existing):
    target = tmp_path / "out.csv"
    if existing is not None:
        target.write_bytes(existing)
    with pytest.raises(type(exc)):
        atomic_write(str(target), raising_lines(exc))
    assert os.listdir(tmp_path) == ([] if existing is None else ["out.csv"])
    if existing is not None:
        assert target.read_bytes() == existing


# newline-free ASCII, "\r" included: the file is opened with newline="", so
# nothing is translated, and ASCII encodes the same under any locale
LINE = st.text([chr(c) for c in range(128) if chr(c) != "\n"])


@settings(max_examples=50, deadline=None)
@given(lines=st.lists(LINE, min_size=1, max_size=20))
def test_streamed_bytes_equal_joined_lines(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("write") / "out.csv"
    atomic_write(str(path), iter(lines))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_empty_lines_write_an_empty_file(tmp_path):
    atomic_write(str(tmp_path / "out.csv"), [])
    assert (tmp_path / "out.csv").read_bytes() == b""


def test_write_oracle_holds_no_rows(tmp_path):
    """The default grid's 60,480 rows are about 2.5 MB of text; a writer
    that held them as a list and joined them peaked at about 10 MB under
    tracemalloc."""
    space = load_config(DEFAULT_CFG).space
    # a stand-in for the oracle: valid values across every class band
    gttc = [(i % 9) * 0.375 for i in range(space.cardinality)]
    tracemalloc.start()
    try:
        path = write_oracle(space, gttc, str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with open(path, newline="") as fh:
        assert sum(1 for _ in fh) == space.cardinality + 1
