"""The cli-oneshot workload: a closed loop with one client.

Each request is a fresh process running `metric_affine.cli` as `python -m`
does, with `--format records` (through cli_child.py, which interleaves the
drift kernel), so every request pays the interpreter start, the import and
the cold caches, as a user at a shell does.  A round is 29 requests: the
same fixed composition for every seed (below), with the order and the form
files drawn from the seed.  Outputs are checked against frozen
records (verify) or against invariants computed here in plain Python,
independently of the library (groups, quadric, lift, drop, eval).
"""

import contextlib
import json
import os
import random
import subprocess
import sys
from time import perf_counter

import drift
import settings

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_cli.json")

# The verify invocations that README.md documents and tests/test_cli.py
# exercises, each once, spelled as there (the budget tests, which are meant
# to fail, are left out).
VERIFY_REQUESTS = [
    ["verify", "lemmas", "--field", "2", "--dim", "2"],
    ["verify", "proposition", "--field", "3", "--dim", "1"],
    ["verify", "theorem", "--field", "GF(5)", "--dim", "1"],
    ["verify", "theorem", "--field", "GF(3)", "--dim", "1"],
    ["verify", "theorem", "--field", "GF(4)", "--dim", "1"],
    ["verify", "tables", "--case", "t1"],
    ["verify", "tables", "--case", "t2"],
    ["verify", "tables", "--case", "t3"],
    ["verify", "tables", "--case", "t4"],
    ["verify", "projective", "--field", "GF(3)", "--dim", "0"],
]

# The form commands, each once on a drawn form of every (field, dim) of the
# quadric sweep: GF(3)^2, GF(3)^3, GF(5)^2, GF(5)^3.  `groups` leaves out
# GF(5)^3: its GL has 1,488,000 elements, beyond the CLI's default
# enumeration budget.  A lift is always followed by a
# drop of its result.
FORM_SIZES = ((3, 2), (3, 3), (5, 2), (5, 3))
FORM_REQUESTS = [(cmd, p, n) for cmd in ("groups", "quadric", "lift", "eval")
                 for p, n in FORM_SIZES
                 if not (cmd == "groups" and (p, n) == (5, 3))]


# --- plain-Python arithmetic for the independent checks --------------------

def _upper_matrix(p, n, upper):
    W = [[0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i, n):
            W[i][j] = upper[k] % p
            k += 1
    return W


def form_value(p, n, upper, x):
    W = _upper_matrix(p, n, upper)
    return sum(W[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) % p


def polar_rank(p, n, upper):
    """Rank mod p of B = W + W^T."""
    W = _upper_matrix(p, n, upper)
    B = [[(W[i][j] + W[j][i]) % p for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if B[r][col]), None)
        if piv is None:
            continue
        B[rank], B[piv] = B[piv], B[rank]
        inv = pow(B[rank][col], p - 2, p)
        B[rank] = [(v * inv) % p for v in B[rank]]
        for r in range(n):
            if r != rank and B[r][col]:
                c = B[r][col]
                B[r] = [(a - c * b) % p for a, b in zip(B[r], B[rank])]
        rank += 1
    return rank


def projective_zeros(p, n, upper):
    """Number of projective points of F_p^n on which the form vanishes."""
    zeros = 0
    for idx in range(1, p ** n):
        x = [(idx // p ** i) % p for i in range(n)]
        zeros += form_value(p, n, upper, x) == 0
    return zeros // (p - 1)


def gl_order(n, q):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def random_form(rng, p, n, nondegenerate):
    m = n * (n + 1) // 2
    while True:
        upper = [rng.randrange(p) for _ in range(m)]
        if not nondegenerate or polar_rank(p, n, upper) == n:
            return upper


def form_file_text(p, n, upper):
    return json.dumps({"dim": n, "field": "GF(%d)" % p, "upper": upper}) + "\n"


# --- requests ---------------------------------------------------------------

def build_round(seed, form_dir):
    """The round's requests in seed order, writing their form files.

    Each request is a dict: argv after `--format records`, its kind, and
    what the check needs.  A drop request's file is written only once its
    lift has answered.
    """
    rng = random.Random(seed)
    items = [[{"kind": "verify", "argv": list(argv)}]
             for argv in VERIFY_REQUESTS]
    for k, (cmd, p, n) in enumerate(FORM_REQUESTS):
        upper = random_form(rng, p, n, nondegenerate=cmd in ("quadric", "lift"))
        path = os.path.join(form_dir, "form-%02d.json" % k)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(form_file_text(p, n, upper))
        base = {"kind": cmd, "p": p, "n": n, "upper": upper}
        if cmd == "groups":
            items.append([dict(base, argv=["groups", path])])
        elif cmd == "quadric":
            items.append([dict(base, argv=["verify", "quadric", path])])
        elif cmd == "eval":
            x = [rng.randrange(p) for _ in range(n)]
            items.append([dict(base, x=x, argv=["eval", path,
                                                ",".join(map(str, x))])])
        else:
            drop_path = os.path.join(form_dir, "form-%02d-lifted.json" % k)
            items.append([dict(base, argv=["lift", path]),
                          dict(base, kind="drop", argv=["drop", drop_path])])
    rng.shuffle(items)
    return [req for item in items for req in item]


def check(req, rc, stdout, expected):
    """None when the response is right, else a one-line reason."""
    if rc is None:
        return "timed out"
    if rc != 0:
        return "exit code %d" % rc
    if req["kind"] == "verify":
        want = expected.get(" ".join(req["argv"]))
        return None if stdout == want else "records differ from frozen output"
    try:
        rec = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "no JSON record"
    try:
        ok = invariants_hold(req, rec)
    except (KeyError, TypeError, IndexError):
        return "record lacks the expected fields"
    return None if ok else "%s output fails its invariants" % req["kind"]


def invariants_hold(req, rec):
    """Whether the last record of a form command agrees with its input."""
    p, n, upper = req["p"], req["n"], req["upper"]
    if req["kind"] == "groups":
        o, w, c = rec["o_order"], rec["ow_order"], rec["closure_order"]
        return (rec["form"]["upper"] == upper
                and rec["gl_order"] == gl_order(n, p)
                and rec["gl_order"] % o == 0 and o % w == 0 and w % c == 0
                and rec["generates"] == (c == w)
                and rec["radical_dim"] == n - polar_rank(p, n, upper))
    if req["kind"] == "quadric":
        pts = projective_zeros(p, n, upper)
        return (rec["base_points"] == pts and not rec["details"]
                and rec["status"] == ("ok" if pts else "empty-quadric")
                and rec["lifted_points"] == rec["hyperplane_points"])
    if req["kind"] == "eval":
        return rec["value"] == form_value(p, n, upper, req["x"])
    if req["kind"] == "lift":
        res = rec["result"]
        # the lift vanishes on the whole first row: Gram diag(0, ...)
        return (res["dim"] == n + 1 and not any(res["upper"][:n + 1])
                and rec["input"]["upper"] == upper)
    if req["kind"] == "drop":
        return rec["result"]["upper"] == upper and rec["result"]["dim"] == n
    raise ValueError("unknown request kind %r" % req["kind"])


def run_round(requests, env, cwd, work_dir, traced=False):
    """Issue the requests one at a time, each in a fresh cli_child.py.

    Returns (timings, failures, span summaries).  A request's raw time is
    its wall time less the kernel slices run inside it, and it is corrected
    by the mean of those slices.  With `traced`, each child also writes its
    span summary and spans to `work_dir`.
    """
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    raw, corrected, kernels, failures, traces = [], [], [], [], []
    for i, req in enumerate(requests):
        tag = "request-%02d" % i
        slices_path = os.path.join(work_dir, tag + "-slices.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
               "--slices-out", slices_path]
        if traced:
            cmd += ["--trace-out", os.path.join(work_dir, tag), "--run-id", tag]
        cmd += ["--", "--format", "records"] + req["argv"]
        if req["kind"] == "lift":     # no drop may read an earlier round's
            with contextlib.suppress(FileNotFoundError):
                os.remove(requests[i + 1]["argv"][1])
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True,
                                  text=True, timeout=settings.CHILD_TIMEOUT_S)
            rc, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            rc, stdout = None, ""
        wall = perf_counter() - t0
        slices = []
        if os.path.exists(slices_path):
            with open(slices_path, encoding="utf-8") as fh:
                slices = [pair[0] for pair in json.load(fh)]
        busy = wall - sum(slices)
        raw.append(busy)
        corrected.append(drift.correct(busy, slices, settings.KERNEL_NOMINAL_S)
                         if slices else busy)
        kernels.append(slices)

        why = check(req, rc, stdout, expected)
        if why is not None:
            failures.append("%s: %s" % (" ".join(req["argv"]), why))
        if req["kind"] == "lift" and why is None:
            res = json.loads(stdout.strip().splitlines()[-1])["result"]
            with open(requests[i + 1]["argv"][1], "w", encoding="utf-8") as fh:
                fh.write(json.dumps({k: res[k] for k in ("dim", "field",
                                                         "upper")}) + "\n")
        if traced and os.path.exists(os.path.join(work_dir, tag + ".json")):
            with open(os.path.join(work_dir, tag + ".json"),
                      encoding="utf-8") as fh:
                traces.append(json.load(fh))
    timings = {"raw_s": sum(raw), "corrected_s": sum(corrected),
               "unit_corrected_s": corrected, "requests_raw_s": raw,
               "kernel_slices_s": kernels}
    return timings, failures, traces
