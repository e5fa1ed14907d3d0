"""Workloads of the confspace benchmark: job lists and output checks.

A job is one computation a user would ask for.  Where the command line has
a command for it, the job runs ``confspace.cli.main([..., "--format",
"json"])`` with stdout captured, so the JSON payload is what gets checked.
The n=5 jobs use the public library calls instead, because the command line
refuses n=5.

Every job's output is checked:

* against an oracle that does not depend on this code where one exists
  (Feichtner-Ziegler Poincare polynomials, collapse at the second page for
  formal carriers, zig-zag/formula agreement, the verdicts the paper's
  theorems predict);
* and, where ``recorded`` is set, byte for byte against the payload stored
  in ``expected.json`` (see ``record.py``).

The seed only shuffles the job order within a workload and picks the prime
for ``tensor-e2``; the work done does not depend on it.
"""

import contextlib
import io
import json
import random
from itertools import product

# duality is imported here, not lazily by the first duality job, so the
# import counts as set-up
from confspace import catalog, cli, duality, massey, reports  # noqa: F401
from confspace.bgcomplex import build_C
from confspace.exactlinalg import Field
from confspace.spectral import SpectralSequence

# the first eight primes from 32003 on; all are far above every integer
# that appears in these eliminations, so ranks agree with those over Q
PRIMES = (32003, 32009, 32027, 32029, 32051, 32057, 32059, 32063)


class Job:
    """One job of a workload.

    name: stable identifier; run: () -> (exit code, JSON text); check:
    parsed payload -> problem string or None; recorded: compare the text
    with the payload recorded under this name."""

    __slots__ = ("name", "run", "check", "recorded")

    def __init__(self, name, run, check=None, recorded=True):
        self.name = name
        self.run = run
        self.check = check
        self.recorded = recorded


def _cli(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--format", "json"])
        return code, buf.getvalue()
    return run


def _library(fn):
    def run():
        return 0, json.dumps(fn(), sort_keys=True) + "\n"
    return run


# -- oracles ---------------------------------------------------------------

def sphere_poincare(m, n):
    """Betti numbers of F(S^m, n), n >= 3, by degree (Feichtner-Ziegler,
    Doc. Math. 2000): (1+t^m) prod_{j=1}^{n-2} (1+j t^{m-1}) for odd m and
    (1+t^{2m-1}) prod_{j=2}^{n-2} (1+j t^{m-1}) for even m."""
    if m % 2:
        factors = [(1, m)] + [(j, m - 1) for j in range(1, n - 1)]
    else:
        factors = [(1, 2 * m - 1)] + [(j, m - 1) for j in range(2, n - 1)]
    poly = {0: 1}
    for c, d in factors:
        out = dict(poly)
        for k, v in poly.items():
            out[k + d] = out.get(k + d, 0) + c * v
        poly = out
    return {k: v for k, v in poly.items() if v}


def _collapses_at_2(payload):
    pages = payload["pages"]
    last = max(pages, key=lambda name: int(name[1:]))
    if pages["E2"] != pages[last]:
        return "E2 differs from %s: the sequence does not collapse at 2" % last


def _zigzag_agrees(payload):
    if payload.get("zigzag_cross_validation") != "agree":
        return "zig-zag and closed formula disagree"


def _nonzero_d2(payload):
    if payload.get("verdict") != "nonzero in E2^{2,*}":
        return "expected a nonzero second-page differential"
    return _zigzag_agrees(payload)


def _matches(expected):
    def check(payload):
        got = {int(k): v for k, v in payload.items()}
        if got != expected:
            return "got %r, closed form %r" % (got, expected)
    return check


# -- library jobs ----------------------------------------------------------

def _collapse_page(name, n):
    def fn():
        bc = build_C(catalog.load(name), n)
        return {"collapse_page": SpectralSequence(bc).collapse_page()}
    return fn


def _config_space_dims(name, n, field):
    def fn():
        alg = catalog.load(name, field=field)
        return {str(k): d for k, d in
                sorted(reports.config_space_dims(alg, n).items())}
    return fn


def _thm3_findings(name):
    def fn():
        H = catalog.load(name)
        out = []
        for f in massey.thm3_detector(H):
            out.append({
                "quadruple": [H.labels[i] for i in f["quadruple"]],
                "hypotheses_met": f["hypotheses_met"],
                "residual_nonzero": f["residual_nonzero"],
                "residuals": {tensor: {repr(k): str(v)
                                       for k, v in sorted(r.items())}
                              for tensor, r in f["residuals"].items()},
            })
        return {"findings": out}
    return fn


# -- workloads -------------------------------------------------------------

def graph_pages(prime):
    jobs = [Job("pages %s n=4" % a,
                _cli(["pages", "--catalog", a, "--n", "4"]), _collapses_at_2)
            for a in ("s2xs2", "t2")]
    jobs.append(Job("collapse build_C s2xs2 n=5",
                    _library(_collapse_page("s2xs2", 5)),
                    lambda p: None if p["collapse_page"] == 2
                    else "collapse page %r, expected 2" % p["collapse_page"],
                    recorded=False))
    return jobs


def tensor_e2(prime):
    jobs = [Job("config_space_dims s2 n=5",
                _library(_config_space_dims("s2", 5, Field(prime))),
                _matches(sphere_poincare(2, 5)), recorded=False)]
    # recorded over Q, so the byte comparison is the Q-versus-F_p check
    for a in ("s2xs2", "cp2"):
        argv = ["ct-e2", "--catalog", a, "--n", "4"]
        if prime is not None:
            argv += ["--field", "F%d" % prime]
        jobs.append(Job("ct-e2 %s n=4" % a, _cli(argv)))
    return jobs


def massey_d2(prime):
    jobs = []
    for quad in product("xy", repeat=4):
        check = _nonzero_d2 if quad == ("x", "x", "y", "y") else _zigzag_agrees
        jobs.append(Job("d2 %s" % " ".join(quad),
                        _cli(["d2", "--catalog", "stb_s2xs2", "--n", "4"]
                             + list(quad)), check))
    for triple in (("x", "x", "y"), ("x", "y", "y")):
        jobs.append(Job("massey %s" % " ".join(triple),
                        _cli(["massey", "--catalog", "stb_s2xs2"]
                             + list(triple))))
    jobs.append(Job("thm3_detector stb_s2xs2_h",
                    _library(_thm3_findings("stb_s2xs2_h"))))
    for a in ("s2xs2", "t2", "cp2"):
        jobs.append(Job("formal-negative %s" % a,
                        _cli(["check", "formal-negative", "--catalog", a])))
    return jobs


def duality_checks(prime):
    jobs = [Job("duality %s n=3" % a,
                _cli(["check", "duality", "--catalog", a, "--n", "3"]))
            for a in ("s2xs2", "t2", "cp2", "s3")]
    # the paper's duality theorem says these pass; they fail at this
    # revision (block (2, 0)) and are kept so the failure is counted
    jobs += [Job("duality %s n=4" % a,
                 _cli(["check", "duality", "--catalog", a, "--n", "4"]),
                 recorded=False)
             for a in ("s2", "cp2", "t2")]
    return jobs


WORKLOADS = {
    "graph-pages": graph_pages,
    "tensor-e2": tensor_e2,
    "massey-d2": massey_d2,
    "duality": duality_checks,
}


def build(workload, seed):
    """The workload's job list for a seed: a large prime for tensor-e2 and
    a shuffled order."""
    rng = random.Random(seed)
    prime = rng.choice(PRIMES)
    jobs = WORKLOADS[workload](prime)
    rng.shuffle(jobs)
    return jobs


def evaluate(job, expected, meter):
    """Run one job, timed by ``meter`` (see ``meter.py``): ((raw seconds,
    scaled seconds), status, detail) with status "ok", "fail" (raised, exit
    code not 0 or a fail verdict) or "wrong" (completed but disagrees with
    its oracle or its recorded payload)."""
    meter.start()
    try:
        code, text = job.run()
    except Exception as e:  # a job that raises is a failed job, not a crash
        return meter.stop(), "fail", "%s: %s" % (type(e).__name__, e)
    span = meter.stop()
    try:
        payload = json.loads(text)
    except ValueError:
        # a refusal (exit 2) prints its error on stderr, not a payload
        return span, "fail" if code else "wrong", (
            "exit %d, output is not JSON: %r" % (code, text[:200]))
    if code != 0 or payload.get("verdict") == "fail":
        details = payload.get("details", payload)
        return span, "fail", "exit %d, %s" % (
            code, json.dumps(details, sort_keys=True)[:200])
    problem = job.check(payload) if job.check else None
    if problem is None and job.recorded:
        if job.name not in expected:
            problem = "no recorded payload"
        elif text != expected[job.name]:
            problem = "payload differs from the recorded one"
    if problem:
        return span, "wrong", problem
    return span, "ok", ""
