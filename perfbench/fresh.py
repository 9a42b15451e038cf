"""One fresh interpreter: ``import qlt.cli``, then run one CLI command if given.

    python3 perfbench/fresh.py <kernel> [<experiment> --config <file> --out <dir> --seed <n>]

A timer samples the machine's speed every SAMPLE_S with a short reference
kernel while the interpreter imports and runs (see speed.py): the pure
interpreter kernel until ``import qlt.cli`` is done (numpy must not load
early), then ``<kernel>``.  The last line on standard error is JSON with the
time the import finished, the exit code and the speed samples.
"""

import json
import signal
import sys
import time

import speed

SAMPLE_S = 0.1
SAMPLE_WORK_S = 0.001

samples = []
kernel = "loop"


def _sample(signum, frame):
    units = max(1, round(SAMPLE_WORK_S / speed.KERNELS[kernel][1]))
    samples.append((time.monotonic(), speed.probe(kernel, units)))


_sample(None, None)
signal.signal(signal.SIGALRM, _sample)
signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

import qlt.cli  # noqa: E402  (the import is what is timed)

imported = time.monotonic()
speed.probe(sys.argv[1], 1)  # a first call, outside the samples
kernel = sys.argv[1]
rc = qlt.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
signal.setitimer(signal.ITIMER_REAL, 0)
_sample(None, None)
print(json.dumps({"imported": imported, "rc": rc, "samples": samples}), file=sys.stderr)
sys.exit(rc)
