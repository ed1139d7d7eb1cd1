"""The deterministic reports stay as pinned: `tests/report_digest.py` runs
in-process and its last line must equal PINNED. A change that alters a
report on purpose declares it by editing PINNED."""

import report_digest

PINNED = "48 commands, sha256 f6f12f21f31e34767490f8095b7c3bcaa794f6bc271633cdcbfdabe9d0eac52f"


def test_report_digest_is_pinned(capsys):
    assert report_digest.main_digest() == 0
    assert capsys.readouterr().out.splitlines()[-1] == PINNED
