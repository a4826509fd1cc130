"""Replay of the golden CLI corpus (tests/golden): every recorded invocation
must give the same exit code, stdout bytes and written files."""

import json

import pytest

from golden.record import CORPUS, INVOCATIONS, run

RECORDS = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_matches_invocation_list():
    assert [tuple(r["argv"]) for r in RECORDS] == INVOCATIONS


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_replay_is_byte_identical(record, tmp_path):
    assert run(tuple(record["argv"]), tmp_path) == record
