"""Regenerate perfbench/data from the fourfold sources in ./src.

    python3 perfbench/make_data.py

Writes the model complex documents to data/docs and the pinned --json
envelope of every query in workloads.pinned_queries() to
data/pinned.json.  The committed files come from the commit that added
this benchmark; regenerate them only in a change that alters --json
output on purpose and says why.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from fourfold import cli, emit_complex  # noqa: E402
from fourfold.manifolds import (  # noqa: E402
    LensSpace,
    cp2_complex,
    lens_complex,
    lens_times_circle,
    rp4_complex,
    s4_complex,
    torus4_complex,
)


def _documents():
    docs = {"rp4": rp4_complex(), "s4": s4_complex(), "cp2": cp2_complex(), "t4": torus4_complex()}
    for p in workloads.EXT_LENS_ORDERS:
        for q in workloads.oracles.units(p):
            docs["L%d_%d" % (p, q)] = lens_complex(LensSpace(p, q))
    for p in workloads.EXT_CIRCLE_ORDERS:
        for q in workloads.oracles.units(p):
            docs["LxS1_%d_%d" % (p, q)] = lens_times_circle(LensSpace(p, q))
    return docs


def main():
    data = os.path.join(HERE, "data")
    os.makedirs(os.path.join(data, "docs"), exist_ok=True)
    for name, complex_ in sorted(_documents().items()):
        with open(os.path.join(data, "docs", name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(emit_complex(complex_))
    pinned = {}
    for q in workloads.write_inputs(workloads.pinned_queries(), data, os.path.join(ROOT, ".perfbench", "pin")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(q["argv"])
        if code != 0 or data in buf.getvalue():
            raise SystemExit("cannot pin %s: exit %d, output %r" % (q["key"], code, buf.getvalue()))
        pinned[q["key"]] = buf.getvalue()
        print("pinned", q["key"], file=sys.stderr)
    with open(os.path.join(data, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
