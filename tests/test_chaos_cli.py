"""The chaos CLI rejects empty and non-integer list arguments.

An empty ``--seeds`` used to run zero trials and report ``OK``; a
non-integer ``--sizes`` escaped as a traceback. Every case must now be an
argparse usage error (exit status 2) before any trial runs.
"""

import pytest

import repro.resilience.chaos as resilience_chaos

BAD_LISTS = [
    ["--seeds", "", "--skip-proofs"],
    ["--seeds", " , ", "--skip-proofs"],
    ["--seeds", "11,x", "--skip-proofs"],
    ["--sizes", "", "--skip-proofs"],
    ["--sizes", "x"],
    ["--seeds", "", "--skip-proofs", "--bitcheck", "D"],
]


def _rejected(main, argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "comma-separated list of integers" in err


@pytest.mark.parametrize("argv", BAD_LISTS, ids=" ".join)
def test_resilience_rejects_bad_list(argv, capsys):
    _rejected(resilience_chaos.main, argv, capsys)


def test_trailing_comma_still_accepted(capsys):
    assert resilience_chaos.main(["--seeds", "11,", "--sizes", "8", "--skip-proofs"]) == 0
    assert "1 trial(s)" in capsys.readouterr().out
