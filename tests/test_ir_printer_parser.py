"""Tests for the textual region format (printer + parser round trip)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.ir import format_region, format_schedule, parse_region
from repro.ir.builder import figure1_region
from repro.schedule import Schedule

from conftest import make_region, regions


class TestFormatRegion:
    def test_contains_header_and_end(self, fig1_region):
        text = format_region(fig1_region)
        assert text.startswith("region figure1\n")
        assert text.rstrip().endswith("end")

    def test_live_out_line(self, fig1_region):
        assert "live_out: v7" in format_region(fig1_region)

    def test_labels_preserved(self, fig1_region):
        text = format_region(fig1_region)
        assert "A: op3 defs(v1)" in text  # lat 3 is op3's default, not printed
        assert "D: op1 defs(v4) lat=4" in text  # overridden latency is printed


class TestParseRegion:
    def test_roundtrip_figure1(self, fig1_region):
        assert parse_region(format_region(fig1_region)) == fig1_region

    def test_comments_and_blanks_ignored(self):
        text = """
        region t
        # a comment
        a: op1 defs(v0)   # trailing comment

        end
        """
        region = parse_region(text)
        assert region.size == 1
        assert region[0].name == "a"

    def test_generic_labels_not_kept_as_names(self):
        region = parse_region("region t\ni0: op1 defs(v0)\nend\n")
        assert region[0].name == ""
        assert region[0].label == "i0"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "region t\nend",  # no instructions
            "x: op1\nend",  # missing header
            "region t\na: op1",  # missing end
            "region t\na: op1\nend\nmore",  # trailing content
            "region t\na: nosuchop defs(v0)\nend",
            "region t\na: op1 defs(zz)\nend",
            "region \nend",
        ],
    )
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse_region(text)

    def test_error_carries_line_number(self):
        try:
            parse_region("region t\n???\nend\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")

    def test_live_in_parsed(self):
        text = "region t\nlive_in: s4\na: op1 defs(v0) uses(s4)\nend\n"
        region = parse_region(text)
        assert str(sorted(region.live_in)[0]) == "s4"

    @given(regions(max_size=25))
    @settings(max_examples=40)
    def test_roundtrip_property(self, region):
        assert parse_region(format_region(region)) == region

    @pytest.mark.parametrize(
        "text, line",
        [
            ("region t\na: op1 defs(v0,v0)\nend", 2),  # duplicate def
            ("region t\nlive_in: v1\na: op1 uses(v1,v1)\nend", 3),  # duplicate use
            ("region t\nlive_out: v0\nlive_out: v9\na: op1 defs(v0)\nend", 2),
            ("region t\na: op1 lat=%s\nend" % ("9" * 5000), 2),  # too long for int()
        ],
        ids=["duplicate-def", "duplicate-use", "undefined-live-out", "huge-latency"],
    )
    def test_ir_errors_become_parse_errors(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_region(text)
        assert info.value.line == line


#: A printed suite region, the seed of the mutation fuzz.
_FUZZ_SEED_TEXT = format_region(make_region("stencil", 8, 8))

#: What a mutation inserts: tokens of the format, near-miss spellings,
#: duplicate operands, undefined live-outs, an over-long number.
_FRAGMENTS = (
    "v0", "v1", "s1", "s0", ",", "(", ")", "defs(", "uses(", " lat=", "7",
    "\n", " ", "#", "end", ":", "region r", "live_out: v9", "live_in: s7",
    "v1,v1", "x", "9" * 5000,
)
_LINES = (
    "live_out: v9", "live_in: v1", "i9: v_add defs(v3,v3)",
    "i9: v_add defs(v3) uses(v1,v1)", "i9: s_mov defs(s4) lat=" + "9" * 5000,
)


@st.composite
def _mutated_region_text(draw):
    text = _FUZZ_SEED_TEXT
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("delete", "insert", "delete-line", "insert-line")))
        if kind in ("delete", "insert"):
            at = draw(st.integers(0, len(text)))
            if kind == "delete":
                text = text[:at] + text[at + draw(st.integers(1, 4)):]
            else:
                text = text[:at] + draw(st.sampled_from(_FRAGMENTS)) + text[at:]
            continue
        lines = text.split("\n")
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "delete-line":
            del lines[at]
        else:
            extra = draw(st.sampled_from(lines + list(_LINES)))
            lines.insert(at, extra)
        text = "\n".join(lines)
    return text


class TestParseFuzz:
    """parse_region's contract on bad input: a ParseError, nothing else."""

    @given(_mutated_region_text())
    @settings(max_examples=300, deadline=500)
    def test_mutated_regions_raise_only_parse_errors(self, text):
        try:
            parse_region(text)
        except ParseError:
            pass


class TestFormatSchedule:
    def test_shows_stalls(self, fig1_region):
        # A at 0, B at 1, rest packed late with a gap at cycle 2.
        schedule = Schedule(fig1_region, [0, 1, 3, 4, 5, 9, 10])
        text = format_schedule(schedule)
        assert "cycle   2: Stall" in text
        assert "length 11" in text

    def test_lists_instruction_labels(self, fig1_region):
        schedule = Schedule.from_order(fig1_region, [0, 1, 2, 3, 4, 5, 6])
        text = format_schedule(schedule)
        assert "cycle   0: A" in text
        assert "cycle   6: G" in text
