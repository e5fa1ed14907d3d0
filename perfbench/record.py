"""Record the payloads the benchmark compares job outputs against.

    python3 perfbench/record.py

Runs every job marked ``recorded`` once, over Q, and writes their JSON
text to ``perfbench/expected.json``.  Each recorded job must exit with 0,
return no ``fail`` verdict and pass its oracle.  The payloads are part of
the benchmark: re-record them only when an output is meant to change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402


def main():
    expected = {}
    for workload, make in jobs.WORKLOADS.items():
        for job in make(None):
            if not job.recorded:
                continue
            code, text = job.run()
            payload = json.loads(text)
            if code != 0 or payload.get("verdict") == "fail":
                raise SystemExit("%s: exit %d, %s" % (job.name, code, text))
            problem = job.check(payload) if job.check else None
            if problem:
                raise SystemExit("%s: %s" % (job.name, problem))
            expected[job.name] = text
            print("recorded %s / %s" % (workload, job.name), file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
