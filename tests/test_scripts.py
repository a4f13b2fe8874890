"""Smoke tests for the scripts in scripts/, which walk catalog elements."""

import os
import pathlib
import runpy
import subprocess
import sys

from capkit.catalog import get_group, load_catalog

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def test_growth_survey_prints_one_header_per_group():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, str(SCRIPTS / "growth_survey.py")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    headers = [line.split(":")[0] for line in run.stdout.splitlines()
               if not line.startswith(" ")]
    assert headers == [name for name, G in load_catalog().items()
                       if G.abelianization()[0].rank(G.p) >= 1]


def test_explore_fingerprints():
    # oracle: the textbook rows.  Element orders as {order: count}, G/G',
    # |G'|, Z(G) and the number of conjugacy classes: both extraspecial
    # groups of order 27 have centre and derived group of order 3 and
    # 9 + 2 classes; D4 and Q8 have centre {1, z} = G' and 5 classes
    fingerprint = runpy.run_path(
        str(SCRIPTS / "explore_group_catalog.py"))["fingerprint"]
    rows = {
        "H27": ({1: 1, 3: 26}, (3, 3), 3, (3,), 11),
        "M27": ({1: 1, 3: 8, 9: 18}, (3, 3), 3, (3,), 11),
        "Q8": ({1: 1, 2: 1, 4: 6}, (2, 2), 2, (2,), 5),
        "D4": ({1: 1, 2: 5, 4: 2}, (2, 2), 2, (2,), 5),
    }
    for name, row in rows.items():
        assert fingerprint(get_group(name)) == row, name
