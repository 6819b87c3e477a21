"""Golden --json output: the envelopes pinned in perfbench/data/pinned.json.

Every pinned query runs through cli.main and must print its pinned
envelope byte for byte.  Five of the six ext-class queries on lens
spaces L(9, q) are left out to keep the run short; the one kept covers
that order.  The pinned files are only read, never written.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from fourfold import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
DATA = os.path.join(PERFBENCH, "data")
sys.path.append(PERFBENCH)

import workloads  # noqa: E402

SKIPPED = {"ext-class L9_2", "ext-class L9_4", "ext-class L9_5", "ext-class L9_7", "ext-class L9_8"}

with open(os.path.join(DATA, "pinned.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)

QUERIES = [q for q in workloads.pinned_queries() if q["key"] not in SKIPPED]


def test_query_list_covers_pinned_file():
    assert sorted(q["key"] for q in QUERIES) == sorted(set(PINNED) - SKIPPED)


@pytest.mark.parametrize("query", QUERIES, ids=[q["key"] for q in QUERIES])
def test_json_envelope_is_byte_equal(query, tmp_path):
    (q,) = workloads.write_inputs([query], DATA, str(tmp_path))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(q["argv"])
    assert code == 0
    assert buf.getvalue() == PINNED[q["key"]]
