#!/usr/bin/env python3
"""Record the output digests that perfbench/run.py checks against.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are trusted.  Writes
perfbench/digests.json with the scan payload digest of the windows of seeds
0-19, the TKT/growth digest of the packaged catalog groups and the digest
of every product group the catalog-tkt workload can draw.  capkit's outputs
are exact, so these digests change only when a result changes.
"""

import json
import os
import shutil
import sys

import inputs
import run

SCAN_SEEDS = range(20)


def main():
    work = os.path.join(run.WORK_ROOT, "record-%d" % os.getpid())
    os.makedirs(work)
    b = run.Bench(work, 0, False)
    b.deadline = float("inf")   # no run time limit applies here
    out = {"scan": {}, "catalog_products": {}}
    try:
        store = b.path("scan.tsv")
        for seed in SCAN_SEEDS:
            lo, hi, _ = inputs.scan_window(seed)
            if os.path.exists(store):
                os.remove(store)
            _, rc, _, err = b.cli(["scan", "--prime", "5", "--store", store,
                                   "--", str(lo), str(hi)])
            payloads, problems = run.read_payloads(store)
            if rc != 0 or problems:
                sys.exit("scan for seed %d failed: %s" % (seed, err))
            out["scan"][str(seed)] = inputs.payload_digest(payloads)

        with open(os.path.join(run.SRC, "capkit", "data", "catalog.txt"),
                  encoding="utf-8") as fh:
            catalog_text = fh.read()
        blocks = inputs.catalog_blocks(catalog_text)
        every = inputs.PRODUCT_POOL
        products = b.path("products.txt")
        with open(products, "w", encoding="utf-8") as fh:
            fh.write("\n".join(inputs.direct_product_text(blocks, name, k)
                               for name, k in every))
        result = b.path("session.json")
        _, rc, _, err = b.run([run.PY, os.path.join(run.HERE,
                                                    "catalog_session.py"),
                               products, result])
        if rc != 0:
            sys.exit("catalog session failed: %s" % err)
        with open(result, encoding="utf-8") as fh:
            groups = json.load(fh)["groups"]
        names = {inputs.product_name(blocks, name, k) for name, k in every}
        out["catalog_packaged"] = run.group_digest(
            groups, [n for n in groups if n not in names])
        for n in sorted(names):
            out["catalog_products"][n] = run.group_digest(groups, [n])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(run.WORK_ROOT)
        except OSError:
            pass
    with open(os.path.join(run.HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
