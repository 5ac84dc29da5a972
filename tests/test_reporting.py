"""The JSON writer against json.dumps(indent=2), its oracle."""

import gc
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtfan.cli
from spechtfan.cli import main
from spechtfan.combinatorics import Partition
from spechtfan.fan import enumerate_fan
from spechtfan.reporting import _FLUSH, json_text, write_json


def oracle(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


WIDE = st.one_of(st.integers(2**64, 2**300), st.integers(-(2**300), -(2**64)))
TRICKY_CHARS = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "😀"])
TEXT = st.text(st.one_of(TRICKY_CHARS, st.characters()), max_size=8)
# Short lists over a tiny alphabet repeat, at one depth and at several, and
# put a bool where an equal int was: the cases a wrong memo key gets wrong.
ALIASES = st.sampled_from([0, 1, True, False])
SHORT = st.lists(ALIASES, min_size=1, max_size=2)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), WIDE, TEXT, ALIASES)
# Lists of rows take the one-join path when every row is an int list or empty,
# and fall back item by item when a row holds a bool or anything else.
ROW_ITEMS = st.one_of(SHORT, st.just([]), st.just(()), st.lists(st.integers(-3, 3), max_size=3))
ROWS = st.lists(ROW_ITEMS, min_size=1, max_size=6)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(SHORT, min_size=2, max_size=6),
        ROWS,
        ROWS.map(tuple),
        SHORT,
        st.dictionaries(TEXT, children, max_size=5),
    )


DOCUMENTS = st.recursive(SCALARS, containers, max_leaves=40)


@st.composite
def shared_documents(draw):
    """Documents that hold the same few objects at several positions and depths,
    as a fan report holds one tuple per distinct generator in many classes."""
    pool = draw(st.lists(st.one_of(SHORT, SHORT.map(tuple), st.tuples(ALIASES, st.integers(-3, 3)),
                                   ROW_ITEMS, st.recursive(SCALARS, containers, max_leaves=6)),
                         min_size=1, max_size=4))
    # sampled_from draws the pooled objects themselves, not copies
    return draw(st.recursive(st.one_of(st.sampled_from(pool), ALIASES), containers, max_leaves=30))


# the memo is keyed by object: in the frozen cases each shared object below is rendered
# at two indents, or sits next to a distinct object equal to it that must render otherwise
PAIR = (1, 2)
ROW = [3, 4]
MIXED = [1, True]
ONES = [1, 1]
EMPTY = []


class RecordingSink:
    """A text sink that checks each write against the text expected at its offset
    and keeps only the write sizes, so a repeated piece fails at once, in little memory."""

    def __init__(self, want):
        self.want, self.pos, self.sizes = want, 0, []

    def write(self, text):
        same = text == self.want[self.pos : self.pos + len(text)]
        assert same, f"write {len(self.sizes)} at offset {self.pos} is not the expected text"
        self.pos += len(text)
        self.sizes.append(len(text))

    def check_whole(self):
        """The joined writes are the whole expected text, in more than one write."""
        assert self.pos == len(self.want)
        assert len(self.sizes) > 1


class TestJsonText:
    @settings(deadline=None, max_examples=200)
    @given(DOCUMENTS)
    def test_matches_json_dumps(self, doc):
        assert json_text(doc) == oracle(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            [[1, 1], [1, True], [True, 1], [0, False], [0, 0]],
            ([1, 1], (1, True), [True, 1], (0, False), {"a": [0, 0], "b": [False, 0]}),
            {"a": [1, 2], "b": {"c": [1, 2], "d": [[1, 2]]}},
            [],
            {},
            [[]],
            {"a": {}},
            [[], {}, [[]], {"a": []}],
            "",
            0,
            -(2**100),
            True,
            None,
            [PAIR, [PAIR, {"a": PAIR}], PAIR],
            {"a": ROW, "b": [ROW, [ROW]], "c": ROW},
            [[PAIR], PAIR, (ROW, PAIR)],
            [ONES, MIXED, ONES, MIXED],
            [MIXED, ONES, [MIXED, [1, 1]], [1, True]],
            {"classes": [{"ideal": {"min_gens": (PAIR, PAIR)}}, {"ideal": {"min_gens": (PAIR,)}}]},
            [[], [1], (), [2, 3]],
            [EMPTY, ROW, EMPTY, [EMPTY, ROW]],
            [[1, 2], [True, 2], [1, 2]],
            [ONES, ROW, MIXED, ONES],
            [ROW, PAIR, ROW, {"a": ROW}],
            {"a": [ROW, PAIR], "b": [[ROW, PAIR], ROW], "c": ROW},
            [(PAIR, ROW), (PAIR,), [ROW, PAIR]],
            [ROW, [ROW, [ROW, ROW]]],
        ],
        ids=["bool-int-aliases", "aliases-in-tuples", "same-list-at-three-depths", "empty-list",
             "empty-dict", "nested-empty-list", "nested-empty-dict", "mixed-empties", "empty-str",
             "zero", "wide-int", "true", "null", "shared-tuple-at-three-depths",
             "shared-list-at-three-depths", "shared-list-in-tuple", "shared-bool-next-to-int",
             "shared-int-next-to-bool", "shared-fan-like", "empty-rows", "shared-empty-rows",
             "bool-row", "bool-row-shared", "dict-after-rows", "shared-rows-at-two-depths",
             "rows-of-rows", "row-list-and-row-at-one-depth"],
    )
    def test_frozen_cases(self, doc):
        assert json_text(doc) == oracle(doc)

    @settings(deadline=None, max_examples=200)
    @given(shared_documents())
    def test_shared_objects_match_json_dumps(self, doc):
        assert json_text(doc) == oracle(doc)

    def test_a_long_row_list_is_written_in_slices(self):
        # shared rows, an empty one and a bool row past the first slice
        rows = [row for i in range(_FLUSH) for row in (ROW, PAIR, EMPTY, [i, -i])]
        doc = {"rows": rows + [[True, 1]], "more": [ROW, PAIR]}
        sink = RecordingSink(oracle(doc))
        write_json(doc, sink)
        sink.check_whole()
        doc["rows"].pop()
        sink = RecordingSink(oracle(doc))
        write_json(doc, sink)
        sink.check_whole()
        assert len(sink.sizes) > 4

    def test_leaves_no_garbage_for_the_cyclic_collector(self):
        # the memo and the pending pieces go when the call returns, not at the next collection
        doc = enumerate_fan(Partition.parse("4,3")).to_json()
        gc.collect()
        gc.disable()
        try:
            write_json(doc, io.StringIO())
            with pytest.raises(TypeError):
                write_json([ROW, {"a": 0.5}], io.StringIO())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_list_past_the_flush_threshold_shares_objects_across_writes(self):
        # every item holds the same PAIR and ROW objects, so memo texts cross each flush
        doc = [[PAIR, {"row": ROW}, i, [ROW, PAIR]] for i in range(2 * _FLUSH)]
        sink = RecordingSink(oracle(doc))
        write_json(doc, sink)
        sink.check_whole()
        assert json_text(doc) == sink.want

    @pytest.mark.parametrize(
        "doc",
        [1.5, Fraction(1, 2), {1: 2}, [1, 0.5], {"a": [Fraction(1)]}, {(1,): 0}, {True: 1}, [1, {2}]],
        ids=["float", "fraction", "int-key", "float-in-int-list", "nested-fraction", "tuple-key",
             "bool-key", "set"],
    )
    def test_refuses_what_is_not_json(self, doc):
        with pytest.raises(TypeError):
            json_text(doc)


class TestReports:
    """Each report cli.main writes is json.dumps(indent=2) of the object it was given."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fan", "--lambda", "3,3"],
            ["fan", "--lambda", "4,2"],
            ["count", "--n-max", "5", "--format", "json"],
            ["count", "--lambda", "5,4", "--format", "json"],
            ["verify", "--n-max", "3", "--format", "json"],
            ["oracle", "--lambda", "2,2"],
            ["polytope", "--lambda", "3,1"],
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_report_matches_json_dumps(self, argv, capsys, monkeypatch):
        seen = []

        def capture(obj, sink):
            seen.append(obj)
            write_json(obj, sink)

        monkeypatch.setattr(spechtfan.cli, "write_json", capture)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(seen) == 1
        assert out == oracle(seen[0])

    def test_count_past_the_enumeration_limit_carries_null(self, capsys):
        assert main(["count", "--lambda", "5,4", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"brute_force_count": null' in out and '"agree": null' in out

    def test_a_polytope_report_is_written_in_bounded_pieces(self, monkeypatch):
        # (4,4) is P(8,0): one list of 40,320 rows, joined slice by slice
        seen = []
        monkeypatch.setattr(spechtfan.cli, "write_json", lambda obj, sink: seen.append(obj))
        assert main(["polytope", "--lambda", "4,4"]) == 0
        (doc,) = seen
        assert len(doc["vertices"]) == 40320
        sink = RecordingSink(oracle(doc))
        write_json(doc, sink)
        sink.check_whole()
        assert max(sink.sizes) <= 2 << 20

    def test_a_fan_report_is_written_in_bounded_pieces(self):
        # the (4,3) report is 7.7 MB of text
        doc = enumerate_fan(Partition.parse("4,3")).to_json()
        sink = RecordingSink(oracle(doc))
        write_json(doc, sink)
        sink.check_whole()
        assert max(sink.sizes) <= 2 << 20
