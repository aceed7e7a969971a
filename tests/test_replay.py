"""The replay's outputs against the checked-in listing, ``replay.sha256``:
a change that is meant to be bit for bit must leave every output byte as
it was.  The listing holds only where it was made, since numpy's kernels
may round differently on another CPU or another version."""

import pytest

import replay_outputs


def test_replay_outputs_match_the_checked_in_listing(tmp_path):
    header, _ = replay_outputs.read_listing(replay_outputs.LISTING)
    if header != replay_outputs.environment():
        pytest.skip("the replay listing was made on another machine: " + "; ".join(
            line[2:].strip() for line in header
        ))
    assert replay_outputs.main([str(tmp_path / "out"), "--check"]) == 0
