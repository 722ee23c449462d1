"""Seeded output digests stay as committed (see `tests/digests.py`)."""

import json

import pytest

import digests


@pytest.mark.parametrize("name", sorted(digests.CLASSES))
def test_outputs_match_the_committed_digest(name):
    committed = json.loads(digests.PATH.read_text())[name]
    hashes = digests.case_hashes(name)
    for (label, h), (old_label, old) in zip(hashes.items(), committed["cases"].items()):
        assert (label, h) == (old_label, old), f"{name}: case {old_label!r} changed first"
    assert list(hashes) == list(committed["cases"]), f"{name}: the corpus changed"
    assert digests.class_digest(committed["cases"]) == committed["digest"]
