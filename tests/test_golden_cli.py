"""Golden --json output: the envelopes pinned in perfbench/data/pinned.json.

Every pinned query, including all the ext-class queries on lens spaces,
runs through cli.main and must print its pinned envelope byte for byte.
The pinned files are only read, never written.
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

with open(os.path.join(DATA, "pinned.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)

QUERIES = workloads.pinned_queries()


def test_query_list_covers_pinned_file():
    assert sorted(q["key"] for q in QUERIES) == sorted(PINNED)


@pytest.mark.parametrize("query", QUERIES, ids=[q["key"] for q in QUERIES])
def test_json_envelope_is_byte_equal(query, tmp_path):
    (q,) = workloads.write_inputs([query], DATA, str(tmp_path))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(q["argv"])
    assert code == 0
    assert buf.getvalue() == PINNED[q["key"]]
