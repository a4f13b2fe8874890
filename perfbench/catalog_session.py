"""One catalog-tkt session through capkit's public API.

    python3 perfbench/catalog_session.py PRODUCTS.txt RESULT.json [SPANS.json]

Parses the packaged catalog text followed by the product groups in
PRODUCTS.txt with `catalog.parse_catalog`, then, for every group with
rank(G/G') >= 1, computes the transfer-kernel pattern with
`pcgroup.capitulation_type` and the relative data with
`gmodule.catalog_relative_data`, calling `check_invariants()` and
`classify_growth` on each datum; this is what `capkit tkt` and
scripts/growth_survey.py do.  Writes per-group results and the wall time of
the build and analysis phases to RESULT.json.  With SPANS.json, records spans
of the calls into capkit and writes them there.
"""

import json
import sys
import time
from importlib import resources

# Calls go through the module attributes, where the tracer puts its wrappers.
from capkit import catalog, gmodule, pcgroup

import tracer


def session(text):
    t0 = time.perf_counter()
    groups = catalog.parse_catalog(text)
    t1 = time.perf_counter()
    results = {}
    for name, G in groups.items():
        A = G.abelianization()[0]
        if A.rank(G.p) < 1:
            continue
        entries = pcgroup.capitulation_type(G)
        data = gmodule.catalog_relative_data(G)
        results[name] = {
            "p": G.p,
            "order": G.order,
            "abelianization": list(A.invariant_factors),
            "pattern": [e.code for e in entries],
            "kernel_orders": [e.kernel.order() for e in entries],
            "growth": [gmodule.classify_growth(d).value for d in data],
            "problems": [d.check_invariants() for d in data],
        }
    t2 = time.perf_counter()
    return {"groups": results, "build_s": t1 - t0, "analysis_s": t2 - t1}


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    packaged = resources.files("capkit.data").joinpath("catalog.txt") \
        .read_text("utf-8")
    with open(sys.argv[1], encoding="utf-8") as fh:
        text = packaged + "\n" + fh.read()
    if len(sys.argv) == 4:
        out = tracer.run_traced(sys.argv[3], session, text)
    else:
        out = session(text)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
