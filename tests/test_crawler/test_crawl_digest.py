"""Pinned crawl output: the seeded crawl of ``tools/crawl_digest.py``
(three iterations, then an epoch-changed recheck) must hash, column by
column, to the lines in ``crawl_digest.txt``. A change that moves crawl
output on purpose regenerates that file with the tool (see its
docstring)."""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(HERE, "..", "..", "tools", "crawl_digest.py")


@pytest.mark.usefixtures("ray_session")
def test_crawl_digest_matches_golden(tmp_path):
    spec = importlib.util.spec_from_file_location("crawl_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with open(os.path.join(HERE, "crawl_digest.txt")) as fh:
        want = fh.read().splitlines()
    got = tool.digest_lines(str(tmp_path / "wd"))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
