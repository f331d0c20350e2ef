"""Byte-level fuzzing of every input file the CLI reads.

Each case mutates the bytes of one input (the golden collection, a SAWSDL
file, a GraphML file, its sidecar or a report) with flips, deletions,
truncations, splices, inserted JSON/XML tokens and prepended XML encoding
declarations, and runs the command that reads it through cli.main.
Whatever the bytes, the run must exit 0, 2 or 3 without a traceback, and
an input error must name the mutated file. A GraphML file loads only as
the bytes save_network wrote, so any change to one must exit 2.
"""

import contextlib
import io
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_cli import WSDL
from wsdepnet.cli import main

GOLDEN_COLLECTION = Path(__file__).parent / "data" / "golden" / "collection.json"
SMALL_ANALYZE = ["--er-samples", "2", "--bootstrap", "0", "--seed", "0"]

TOKENS = [
    b"{", b"}", b"[", b"]", b",", b":", b'"', b"\\", b"null", b"true", b"0", b"-1", b"1e999", b"NaN",
    b'"x"', b"[]", b"{}", b"<", b">", b"</", b"/>", b"&", b"&amp;", b"&#0;", b"<x>", b"</x>", b"<!--",
    b"<![CDATA[", b"]]>", b"<?xml", b'encoding="x-nope"', b'encoding="utf-32"', b"\xff", b"\x00", b"\xc3",
]
# encodings of a declaration put before the file's own, which it overrides
ENCODINGS = ["x-nope", "euc-jp", "shift_jis", "utf-32", "utf-16", "cp037", "latin-1", "ascii"]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data after one to three byte-level edits."""
    for _ in range(draw(st.integers(1, 3))):
        n = len(data)
        at = draw(st.integers(0, max(n - 1, 0)))
        kind = draw(st.sampled_from(("flip", "delete", "truncate", "splice", "insert", "declare")))
        if kind == "flip":
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:] if n else data
        elif kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 64)):]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "splice":  # a chunk from elsewhere overwrites the bytes at `at`
            start = draw(st.integers(0, n))
            chunk = data[start:start + draw(st.integers(1, 64))]
            data = data[:at] + chunk + data[at + len(chunk):]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
        elif kind == "declare":
            data = f'<?xml version="1.0" encoding="{draw(st.sampled_from(ENCODINGS))}"?>'.encode() + data
    return data


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The unmutated inputs: file name -> bytes, written by the CLI itself."""
    root = tmp_path_factory.mktemp("pristine")
    net, report = root / "net.graphml", root / "report.json"
    assert main(["extract", "--collection", str(GOLDEN_COLLECTION), "--matcher", "syntactic-equal",
                 "--out", str(net)]) == 0
    assert main(["analyze", str(net), *SMALL_ANALYZE, "--out", str(report)]) == 0
    return {
        "collection.json": GOLDEN_COLLECTION.read_bytes(),
        "corpus/bookprice.wsdl": WSDL.encode("utf-8"),
        "net.graphml": net.read_bytes(),
        "net.graphml.meta.json": (root / "net.graphml.meta.json").read_bytes(),
        "report.json": report.read_bytes(),
    }


# input kind -> (the file mutated, the command that reads it); {w} is a
# directory that holds every input
CASES = {
    "collection": ("collection.json", ["extract", "--collection", "{w}/collection.json",
                                       "--matcher", "syntactic-equal", "--out", "{w}/out.graphml"]),
    "sawsdl": ("corpus/bookprice.wsdl", ["extract", "--collection", "{w}/corpus", "--format", "sawsdl",
                                         "--matcher", "semantic-exact", "--out", "{w}/out.graphml"]),
    "graphml": ("net.graphml", ["analyze", "{w}/net.graphml", *SMALL_ANALYZE]),
    "sidecar": ("net.graphml.meta.json", ["analyze", "{w}/net.graphml", *SMALL_ANALYZE]),
    "report": ("report.json", ["compare", "{w}/good.json", "{w}/report.json"]),
}


@pytest.mark.parametrize("kind", sorted(CASES))
@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_mutated_input_fails_closed(tmp_path_factory, pristine, kind, data):
    target, command = CASES[kind]
    work = tmp_path_factory.getbasetemp() / f"fuzz-{kind}"
    (work / "corpus").mkdir(parents=True, exist_ok=True)
    for name, content in pristine.items():
        (work / name).write_bytes(content)
    shutil.copyfile(work / "report.json", work / "good.json")
    bad = work / target
    content = data.draw(mutated(pristine[target]), label="bytes")
    bad.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(w=work) for arg in command])
    message = err.getvalue()
    assert code in (0, 2, 3), message
    assert "Traceback" not in message
    if code == 2:
        assert str(bad) in message, message
    if kind == "graphml" and content != pristine[target]:
        assert code == 2, "a GraphML file that is not save_network's bytes loaded"
