"""Unit tests for trace I/O and trace statistics."""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache._native import native_kernels
from repro.trace import io as trace_io
from repro.trace import (
    PeriodicTrace,
    Trace,
    locality_score,
    read_npz,
    read_text,
    summarize,
    write_npz,
    write_text,
    zipfian_trace,
)


class TestTextIO:
    def test_round_trip(self, tmp_path, rng):
        trace = zipfian_trace(100, 20, rng=rng)
        path = write_text(trace, tmp_path / "trace.txt")
        loaded = read_text(path)
        assert loaded == trace
        assert loaded.name == trace.name

    def test_round_trip_without_header(self, tmp_path):
        trace = Trace([5, 3, 5], name="tiny")
        path = write_text(trace, tmp_path / "bare.txt", header=False)
        loaded = read_text(path)
        assert loaded == trace
        assert loaded.name == "bare"

    def test_reads_files_with_blank_lines_and_comments(self, tmp_path):
        path = tmp_path / "manual.txt"
        path.write_text("# comment\n\n3\n1\n\n2\n")
        trace = read_text(path, name="manual")
        assert trace.accesses.tolist() == [3, 1, 2]
        assert trace.name == "manual"


INT64_MAX = 2**63 - 1
PAD = st.text(alphabet=" \t", max_size=2)
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
NAME_COMMENTS = st.sampled_from(["", " name: run-1", "name:", " name:  ", "\tname:a b ", " names: x", "# name: x"])


#: Lines ``int()`` or ``str.strip`` read in ways the kernel does not: digit separators, other
#: scripts' digits, other whitespace, two numbers, a byte-order mark.
INT_ODDITIES = ["1_0", "\u0663", "\u0661\u0660", "1 2", "x3", "- 1", "+", "0x10", "\ufeff4", "5\x00", "\x1f7"]
#: Characters ``str.splitlines`` breaks lines on, alone, in labels and in comments.
LINE_BREAK_ODDITIES = ["\x0b", "\x0c", "\x1c", "\x1d5", "\x1e", "\u2028", "\x85", "#\x0b name: a", "# name: a\x1cb"]


@st.composite
def _label_lines(draw, signs=("", "+", "-"), labels=st.integers(0, 10**6)):
    sign, zeros, label = draw(st.sampled_from(signs)), draw(st.integers(0, 3)), draw(labels)
    return f"{draw(PAD)}{sign}{'0' * zeros}{label}{draw(PAD)}"


@st.composite
def _comment_lines(draw, bodies=NAME_COMMENTS):
    return f"{draw(PAD)}#{draw(bodies)}"


def _join(draw, lines) -> str:
    text = "".join(line + draw(ENDINGS) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@st.composite
def kernel_texts(draw):
    """Files inside the kernel's grammar: labels, blanks and comments, ASCII only."""
    labels = _label_lines(signs=("", "+"))
    printable = st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.just("\t")
    comments = _comment_lines(st.one_of(NAME_COMMENTS, st.text(printable)))
    extreme = st.sampled_from([str(INT64_MAX), f"+{INT64_MAX}", "-0", f"\t{'0' * 19}\t"])
    return _join(draw, draw(st.lists(st.one_of(labels, PAD, comments, extreme), max_size=12))).encode()


@st.composite
def text_trace_files(draw):
    """Files the kernel parses, mixed with lines and bytes it must leave to the Python loop."""
    labels = _label_lines(labels=st.one_of(st.integers(0, 10**6), st.sampled_from([INT64_MAX, 2**63, 2**64, 10**30])))
    odd = st.sampled_from(INT_ODDITIES + LINE_BREAK_ODDITIES)
    lines = st.one_of(labels, labels, PAD, _comment_lines(), odd)
    data = _join(draw, draw(st.lists(lines, max_size=12))).encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + draw(st.sampled_from([b"", b"", b"", b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[cut:]


@pytest.fixture(scope="module")
def native():
    kernels = native_kernels()
    if kernels is None:
        pytest.skip("no C compiler: the Python loop reads text traces here")
    return kernels


@pytest.fixture(params=["native", "python"])
def reader(request, monkeypatch):
    """Read text traces through the C parser, then through the Python loop."""
    if request.param == "python":
        monkeypatch.setattr(trace_io, "native_kernels", lambda: None)  # as on a machine without a compiler
    elif native_kernels() is None:
        pytest.skip("no C compiler: the Python loop reads text traces here")
    return request.param


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("text-traces") / "trace.txt"


def _outcome(path):
    """``read_text``'s trace as (dtype, labels, name), or the type of what it raised."""
    try:
        trace = read_text(path)
    except Exception as error:  # the two paths must fail alike
        return type(error)
    return trace.accesses.dtype, trace.accesses.tolist(), trace.name


def _python_outcome(path):
    with mock.patch.object(trace_io, "native_kernels", lambda: None):
        return _outcome(path)


class TestNativeTextParse:
    """The C parser against the Python loop of ``read_text``, which stays the reference."""

    @given(data=text_trace_files())
    def test_differential_against_python_loop(self, native, scratch_file, data):
        scratch_file.write_bytes(data)
        assert _outcome(scratch_file) == _python_outcome(scratch_file)

    @given(data=kernel_texts())
    def test_kernel_parses_its_grammar(self, native, scratch_file, data):
        parsed = native.parse_labels(data)
        assert parsed is not None
        scratch_file.write_bytes(data)
        labels, _ = parsed
        assert labels.dtype == np.int64
        assert _outcome(scratch_file) == _python_outcome(scratch_file)

    @pytest.mark.parametrize(
        "data",
        [
            b"1\n\xc3\xa9\n",  # non-ASCII in a label line
            b"# caf\xc3\xa9\n1\n",  # and in a comment
            b"1\x0b2\n",  # line breaks of str.splitlines only
            b"1\n#\x0c\n",
            b"# a\x1cb\n",
            b"# a\x1db\n",
            b"# a\x1eb\n",
            b"# \x1fname: x\n",  # whitespace of str.strip only
            b"1_000\n",
            b"1 2\n",
            b"9223372036854775808\n",  # INT64_MAX + 1
            b"99999999999999999999\n",
            b"00000000000000000001\n",  # 20 digits
            b"-1\n",
            b"x3\n",
            b"+\n",
            b"5 # note\n",
        ],
    )
    def test_kernel_leaves_the_rest_to_python(self, native, data):
        assert native.parse_labels(data) is None

    @pytest.mark.parametrize(
        ("data", "labels", "name"),
        [
            (b"", [], None),
            (b"# only a comment", [], None),
            (b"7", [7], None),
            (b" +07 \r\n\r-0\t\n9223372036854775807", [7, 0, INT64_MAX], None),
            (b"# name:\n# name: later\n1\n", [1], ""),
            (b"#name:\tspaced out \r2", [2], "spaced out"),
        ],
    )
    def test_kernel_labels_and_name(self, native, data, labels, name):
        got, comment = native.parse_labels(data)
        assert got.tolist() == labels
        assert comment == name

    def test_fallback_reads_the_same_trace(self, native, tmp_path, monkeypatch, rng):
        path = write_text(zipfian_trace(2000, 300, rng=rng), tmp_path / "zipf.txt")
        kernel = read_text(path)
        monkeypatch.setattr(trace_io, "native_kernels", lambda: None)
        fallback = read_text(path)
        assert fallback == kernel
        assert fallback.accesses.dtype == kernel.accesses.dtype
        assert fallback.name == kernel.name


class TestTextEdgeCases:
    @pytest.mark.parametrize(
        "accesses",
        [
            np.array([0]),
            np.array([INT64_MAX]),
            np.tile(np.arange(50), 4),  # cyclic
            np.concatenate([np.arange(50), np.arange(50)[::-1]]),  # sawtooth
        ],
        ids=["length-1", "int64-max", "cyclic", "sawtooth"],
    )
    def test_round_trip(self, reader, tmp_path, accesses):
        trace = Trace(accesses, name="edge case")
        loaded = read_text(write_text(trace, tmp_path / "edge.txt"))
        assert loaded == trace
        assert loaded.accesses.dtype == np.intp
        assert loaded.name == "edge case"

    def test_first_name_comment_wins_even_when_empty(self, reader, tmp_path):
        path = tmp_path / "named.txt"
        path.write_text("# name:\n# name: second\n4\n")
        assert read_text(path).name == "named"
        assert read_text(path, name="given").name == "given"

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("x3", "not an integer label: 'x3'"),
            ("99999999999999999999", "label 99999999999999999999 is outside"),
            ("-4", "label -4 is outside"),
        ],
    )
    def test_unusable_line_names_file_and_line(self, reader, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n1\n{line}\n2\n")
        with pytest.raises(ValueError, match=re.escape(f"bad.txt:3: {message}")):
            read_text(path)

    def test_invalid_utf8_names_the_file(self, reader, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"1\n\xff\n")
        with pytest.raises(ValueError, match="binary.txt: not UTF-8"):
            read_text(path)

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\x0bb", "a\x1cb", "a\x85b", "a\u2028b", "trailing\n"])
    def test_write_rejects_names_with_line_breaks(self, tmp_path, name):
        with pytest.raises(ValueError, match="line break"):
            write_text(Trace([1, 2], name=name), tmp_path / "t.txt")
        write_text(Trace([1, 2], name=name), tmp_path / "bare.txt", header=False)  # no header, no name


class TestNpzIO:
    def test_round_trip_with_metadata(self, tmp_path, rng):
        trace = zipfian_trace(64, 16, rng=rng)
        write_npz(trace, tmp_path / "trace.npz", metadata={"source": "unit-test"})
        loaded, meta = read_npz(tmp_path / "trace.npz")
        assert loaded == trace
        assert meta["source"] == "unit-test"
        assert meta["footprint"] == trace.footprint

    def test_round_trip_without_metadata(self, tmp_path):
        trace = Trace([0, 1, 2, 1, 0])
        write_npz(trace, tmp_path / "plain.npz")
        loaded, meta = read_npz(tmp_path / "plain.npz")
        assert loaded == trace
        assert meta["name"] == trace.name


class TestStats:
    def test_summary_of_sawtooth(self):
        stats = summarize(PeriodicTrace.sawtooth(8).to_trace())
        assert stats.accesses == 16
        assert stats.footprint == 8
        assert stats.cold_accesses == 8
        assert stats.mean_stack_distance == pytest.approx((8 + 1) / 2)
        assert stats.max_stack_distance == 8
        assert stats.reuse_fraction() == pytest.approx(0.5)

    def test_summary_of_cyclic(self):
        stats = summarize(PeriodicTrace.cyclic(8).to_trace())
        assert stats.mean_stack_distance == pytest.approx(8.0)

    def test_summary_empty_raises(self):
        with pytest.raises(ValueError):
            summarize(Trace([]))

    def test_summary_no_reuse(self):
        stats = summarize(Trace(range(10)))
        assert stats.cold_accesses == 10
        assert np.isnan(stats.mean_stack_distance)
        assert stats.reuse_fraction() == 0.0

    def test_locality_score_extremes(self):
        assert locality_score(PeriodicTrace.cyclic(32).to_trace()) == pytest.approx(0.0)
        assert locality_score(PeriodicTrace.sawtooth(32).to_trace()) == pytest.approx(1.0)

    def test_locality_score_monotone_in_inversions(self, rng):
        from repro.trace import fixed_inversion_retraversal

        low = fixed_inversion_retraversal(32, 50, rng)
        high = fixed_inversion_retraversal(32, 400, rng)
        assert locality_score(low.to_trace()) < locality_score(high.to_trace())

    def test_locality_score_no_reuse_trace(self):
        assert locality_score(Trace(range(20))) == 0.0

    def test_locality_score_single_item(self):
        assert locality_score(Trace([0, 0, 0])) in (0.0, 1.0)
