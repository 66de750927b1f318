"""tools/identity.py's comparison of what one command did on two sides."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import identity  # noqa: E402


def _log(loss, wall_time):
    records = [{"phase": "pretrain", "epoch": 1, "mean_loss": loss, "wall_time": wall_time}]
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


def _outcome(**files):
    return identity.outcome(0, "done\n", "", files)


def test_logs_that_differ_only_in_wall_time_are_the_same():
    parent = _outcome(**{"pre.jsonl": _log(0.5, 1.25), "pre.ckpt": b"weights"})
    change = _outcome(**{"pre.jsonl": _log(0.5, 0.75), "pre.ckpt": b"weights"})
    assert identity.differences(parent, change) == []


def test_a_log_that_differs_in_a_loss_differs():
    parent = _outcome(**{"pre.jsonl": _log(0.5, 1.25)})
    change = _outcome(**{"pre.jsonl": _log(0.5000001, 1.25)})
    assert identity.differences(parent, change) == ["pre.jsonl differs"]


def test_a_missing_output_differs():
    parent = _outcome(**{"pre.ckpt": b"weights", "pre.jsonl": _log(0.5, 1.25)})
    change = _outcome(**{"pre.jsonl": _log(0.5, 1.25)})
    assert identity.differences(parent, change) == ["pre.ckpt not written"]
    assert identity.differences(change, parent) == ["pre.ckpt written only by the change"]


def test_exit_code_and_streams_are_compared():
    parent = identity.outcome(0, "kept=3\n", "", {})
    change = identity.outcome(2, "", "error: bad\n", {})
    assert identity.differences(parent, change) == ["exit", "stdout", "stderr"]


def test_a_file_other_than_a_log_is_compared_byte_for_byte():
    parent = _outcome(**{"report.txt": b'{"wall_time": 1}\n'})
    change = _outcome(**{"report.txt": b'{"wall_time": 2}\n'})
    assert identity.differences(parent, change) == ["report.txt differs"]
