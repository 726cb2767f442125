"""The cost ledger: each method's exact counts on the synthetic worlds."""

import json

from cost_ledger import LEDGER_PATH, compute_ledger


def test_every_ledger_row_reproduces_exactly():
    assert compute_ledger() == json.loads(LEDGER_PATH.read_text(encoding="utf-8"))
