"""What a killed driver may lose from the journal, per fsync mode
(DESIGN.md, "What a SIGKILL may lose").

The crash point is deterministic: on the simulated executor bodies run
one at a time on the driver thread, and the Kth body calls
``os._exit(9)`` — the process dies like a SIGKILLed one (no ``stop()``,
no buffer flush, no ``atexit``) with exactly K - 1 tasks completed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime import checkpoint as ckpt
from repro.runtime.checkpoint import WriteAheadJournal

REPO = Path(__file__).resolve().parent.parent

DRIVER = """\
import json, os, sys

from repro.pycompss_api import compss_wait_on, task
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import COMPSsRuntime
from repro.simcluster.machines import local_machine

workdir, fsync, buffer, n, crash_at = sys.argv[1:6]
n, crash_at = int(n), int(crash_at)
executed = 0


@task(returns=int)
def bump(x):
    global executed
    executed += 1
    if executed == crash_at:
        os._exit(9)
    return x + 1


config = RuntimeConfig(
    cluster=local_machine(4),
    executor="simulated",
    execute_bodies=True,
    checkpoint_dir=workdir,
    checkpoint_every=1,
    journal_fsync=fsync,
    journal_buffer_records=int(buffer),
    duration_fn=lambda t, spec, alloc: 1.0,
)
resume = workdir if os.path.exists(os.path.join(workdir, "journal.jsonl")) else None
with COMPSsRuntime(config, resume_from=resume):
    got = compss_wait_on([bump(x) for x in range(n)])
print(json.dumps({"executed": executed, "exact": got == [x + 1 for x in range(n)]}))
"""

N, K, BUFFER = 40, 30, 8


def run_driver(workdir, fsync, crash_at):
    return subprocess.run(
        [sys.executable, "-c", DRIVER, str(workdir), fsync, str(BUFFER),
         str(N), str(crash_at)],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("fsync", WriteAheadJournal.FSYNC_MODES)
def test_killed_driver_loses_at_most_what_the_mode_allows(tmp_path, fsync):
    crashed = run_driver(tmp_path, fsync, crash_at=K)
    assert crashed.returncode == 9, crashed.stderr

    records, truncated = WriteAheadJournal.replay(tmp_path / ckpt.JOURNAL_FILE)
    assert not truncated
    replayed = sum(1 for r in records if r["rec"] == ckpt.COMPLETED)
    if fsync == "off":
        # Whole buffers reach the OS; only the unflushed tail is lost.
        assert K - 1 - BUFFER <= replayed < K - 1
        assert len(records) % BUFFER == 0
    else:
        # Every record is a commit record: nothing waits in the buffer.
        assert replayed == K - 1

    resumed = run_driver(tmp_path, fsync, crash_at=0)
    assert resumed.returncode == 0, resumed.stderr
    out = json.loads(resumed.stdout.splitlines()[-1])
    assert out["exact"]
    # Exactly the tasks the journal did not vouch for run again — the
    # lost tail is at-least-once, never wrong.
    assert out["executed"] == N - replayed
