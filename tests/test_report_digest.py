"""The deterministic reports stay as pinned: `tests/report_digest.py` runs
in-process and its last line must equal PINNED. A change that alters a
report on purpose declares it by editing PINNED."""

import report_digest

PINNED = "48 commands, sha256 7fccd33ebf11d5c2a2113694bc7d9aae70088b0723505949e9eea84981bd2f7e"


def test_report_digest_is_pinned(capsys):
    assert report_digest.main_digest() == 0
    assert capsys.readouterr().out.splitlines()[-1] == PINNED
