"""The deterministic reports stay as pinned: `tests/report_digest.py` runs
in-process and its last two lines must equal PINNED and PINNED_RAW. A
change that alters a report on purpose declares it by editing the pins;
one that keeps the parsed reports but changes their key order or layout
moves PINNED_RAW alone."""

import report_digest

PINNED = "48 commands, sha256 f6f12f21f31e34767490f8095b7c3bcaa794f6bc271633cdcbfdabe9d0eac52f"
PINNED_RAW = (
    "48 commands, raw json sha256 469a3f3077a8df7c381a4dd4e7a66ca1d5fa16a45be5dda0f18b54c6ff912eda"
)


def test_report_digest_is_pinned(capsys):
    assert report_digest.main_digest() == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [PINNED, PINNED_RAW]
