#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for olclint.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload batch|session|infer \
        [--seed 42] [--seconds 20] [--trace 0|1]

It builds bin/olclint.exe and perfbench/pb.exe with dune, generates the
workload's corpus from the seed (pb gen), drives the real olclint binary
one child process at a time, checks every output against answers that
come from the generator rather than the checker, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures, taken with no
tracing.  Their timings are scaled to a reference machine speed by a
calibration loop (pb calib) run between the timed samples.  With
--trace 1 they are the per-layer figures of a traced in-process replay
(pb trace) of the same layer calls.  Every workload reports every
metric BENCHMARK.json names for its mode; what each means on each
workload is in perfbench/README.md.  Everything else goes to standard
error.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

OLCLINT = os.path.join("_build", "default", "bin", "olclint.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
WORK = ".perfbench_run"
SETUP_DIR = os.path.join(WORK, "setup")

# A corpus is always written over the files of the last one, which the
# run leaves in WORK for the next.  Deleting 150 files and creating them
# again, set-up after set-up, slows file creation in that part of the
# file system: the write phase of a batch set-up doubled over 200
# set-ups, and stays slow long after.  Overwritten in place, it stayed
# flat.

# The session's setup_s is the median of this many set-ups.  batch and
# infer set up once more after every timed sample, into a directory of
# their own, so that their medians span the whole run: the machine's
# speed moves from one second to the next.
SESSION_SETUPS = 7

# The session's requests are counted, not timed, so that the server's
# allocation figures repeat exactly from run to run.
BODY_EDITS = 100
IFACE_EDITS = 6
RESTARTS = 1
FIRST_CLEAN_MODULE = 19  # m0..m18 carry the seeded bugs, one kind each

# End-to-end timings are reported at the speed of a machine on which
# `pb calib` takes this long.  The machine's speed moves by up to 2x,
# and olclint's times move with the calibration loop's (README.md,
# "Calibration").  Each timing sample is scaled by the calibrations
# taken right next to it.
CALIB_REF_S = 0.05

# Known-answer floors for inference, scored against the stripped
# declared annotations (seed 42 scores precision 1.000, recall 0.981).
INFER_MIN_PRECISION = 0.95
INFER_MIN_RECALL = 0.90


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failures:
    """Operations attempted and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED: " + what)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/olclint.exe", "./perfbench/pb.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if r.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(xs)
    k = max(0, -(-len(s) * q // 100) - 1)
    return s[int(k)]


def exit_report(stderr_text):
    """Allocated and top-heap words from OCAMLRUNPARAM=v=0x400."""
    def field(name):
        m = re.search(r"^%s: (\d+)$" % name, stderr_text, re.M)
        if not m:
            raise RuntimeError("no %s in the runtime's exit report" % name)
        return int(m.group(1))

    return field("allocated_words"), field("top_heap_words")


def timed_run(cmd, env=None):
    t0 = time.perf_counter()
    r = subprocess.run(cmd, capture_output=True, env=env)
    return time.perf_counter() - t0, r


def report_env():
    return dict(os.environ, OCAMLRUNPARAM="v=0x400")


def generate(workload, seed, reps, d=None):
    """Generate the corpus `reps` times into the same directory, over the
    files already there; return the CPU seconds each generation took, as
    `pb gen` measured them, and the directory."""
    d = d or os.path.join(WORK, workload)
    times = []
    for _ in range(reps):
        r = subprocess.run([PB, "gen", workload, str(seed), d], capture_output=True)
        if r.returncode != 0:
            raise RuntimeError("pb gen failed: " + r.stderr.decode())
        times.append(float(r.stdout))
    return times, d


def calib(n=1):
    """(wall, CPU) seconds each of `n` runs of `pb calib` took."""
    times = []
    for _ in range(n):
        r = subprocess.run([PB, "calib"], capture_output=True)
        if r.returncode != 0:
            raise RuntimeError("pb calib failed: " + r.stderr.decode())
        wall, cpu = r.stdout.split()
        times.append((float(wall), float(cpu)))
    return times


def calib_ms(calibs):
    """The median wall time of `calibs`, in ms."""
    return median(c[0] for c in calibs) * 1000


def paired(xs, refs):
    """The median of timings `xs` at the reference speed, each scaled by
    its own calibration time in `refs`.  The machine's speed moves from
    one second to the next, so a sample is scaled by calibrations taken
    right next to it."""
    return CALIB_REF_S * median(x / r for x, r in zip(xs, refs))


def sample_loop(seconds, sample, setup=None):
    """Call `sample()` (which returns its wall seconds) for `seconds`
    and at least 5 times, each time followed by `setup()` (which returns
    its CPU seconds) if given, and a calibration.  Return the samples,
    the set-ups, each sample's calibration (the mean wall time of the
    calibrations just before and after it), each set-up's (the CPU time
    of the one right after it), and every calibration."""
    cal = calib()
    xs, ups, x_refs, up_refs = [], [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(xs) < 5:
        xs.append(sample())
        if setup:
            ups.append(setup())
        c = calib()[0]
        x_refs.append((cal[-1][0] + c[0]) / 2)
        up_refs.append(c[1])
        cal.append(c)
    return xs, ups, x_refs, up_refs[:len(ups)], cal


def known_answers(workload, seed, d):
    """The generator's answers for the corpus in `d`, written by a
    separate, untimed process; return (answers, file paths)."""
    r = subprocess.run([PB, "answers", workload, str(seed), d], capture_output=True)
    if r.returncode != 0:
        raise RuntimeError("pb answers failed: " + r.stderr.decode())
    with open(os.path.join(d, "answers.json")) as f:
        answers = json.load(f)
    return answers, [os.path.join(d, "src", n) for n in answers["files"]]


def trace_layers(args, op_ms, cal):
    """The per-layer figures of `pb trace ARGS`, with the two that need
    the run's untraced operation (its median wall time `op_ms`) and its
    calibrations `cal`."""
    tr = subprocess.run([PB, "trace"] + args, capture_output=True)
    if tr.returncode != 0:
        raise RuntimeError("pb trace failed: " + tr.stderr.decode())
    if tr.stderr:
        log(tr.stderr.decode().strip())
    layers = json.loads(tr.stdout)
    # the untraced operation's time that no span of its replay covers
    layers["op.outside_spans_ms"] = op_ms - layers.pop("op_span_ms")
    layers["calib_ms"] = calib_ms(cal)
    return layers


# ---------------------------------------------------------------------------
# batch: a cold olclint -q over the 137k-line corpus


def run_batch(seed, seconds, trace, fails):
    _, d = generate("batch", seed, 1)
    generate("batch", seed, 1, SETUP_DIR)  # so that every timed set-up overwrites
    answers, files = known_answers("batch", seed, d)
    # The known answers, on one full (not -q) run at each -j: every
    # seeded bug the checker is expected to see is reported in its
    # file, and both outputs are byte-identical.
    _, full1 = timed_run([OLCLINT, "-j", "1"] + files)
    _, full2 = timed_run([OLCLINT, "-j", "2"] + files)
    out = full1.stdout.decode()
    fails.check(full1.returncode == 1, "olclint -j 1 exit code %d" % full1.returncode)
    fails.check(full1.stdout == full2.stdout, "-j 1 and -j 2 output differ")
    reported = set(re.findall(r"^\S*/src/([^/:]+\.c):\d+,\d+: ", out, re.M))
    for sb in answers["expected"]:
        fails.check(sb["file"] in reported,
                    "seeded %s in %s not reported" % (sb["kind"], sb["file"]))
    summary = out.splitlines()[-1].encode() + b"\n"

    reports = []

    def cold():
        dt, r = timed_run([OLCLINT, "-q", "-j", "1"] + files, env=report_env())
        fails.check(r.returncode == 1 and r.stdout == summary,
                    "olclint -q -j 1 printed %r" % r.stdout[:200])
        reports.append(exit_report(r.stderr.decode()))
        return dt

    def set_up():
        return generate("batch", seed, 1, SETUP_DIR)[0][0]

    # Cold -j 1 samples for the whole budget (half of it in traced
    # runs, which only need the median for op.outside_spans_ms), each
    # followed by a set-up and a calibration.
    j1, setup, j1_refs, setup_refs, cal = sample_loop(
        seconds / 2 if trace else seconds, cold, None if trace else set_up)
    cold_s = median(j1)
    log("batch: %d lines, cold -j 1 %d samples, median %.3f s; %d set-ups; "
        "calibration %.1f ms" % (answers["lines"], len(j1), cold_s, len(setup),
                                 calib_ms(cal)))
    if not trace:
        return {
            "setup_s": paired(setup, setup_refs),
            "op_ms": paired(j1, j1_refs) * 1000,
            "alloc_mw": median(r[0] for r in reports) / 1e6,
            "peak_heap_mb": median(r[1] for r in reports) * 8 / 1e6,
        }
    layers = trace_layers(["batch", d], cold_s * 1000, cal)
    with open(os.path.join(d, "trace_out.txt"), "rb") as f:
        fails.check(f.read() == full1.stdout, "traced replay output differs from olclint's")
    fails.check(layers.pop("j2_identical"), "traced -j 2 replay output differs")
    return layers


# ---------------------------------------------------------------------------
# session: olclint -server +loopexec +xproc, one closed-loop client


class Server:
    def __init__(self, cache=None, report=False):
        cmd = [OLCLINT, "-server", "+loopexec", "+xproc"]
        if cache:
            cmd += ["-cache", cache]
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=report_env() if report else None,
        )

    def send(self, req):
        """Send one request; return (seconds to the response line, line).

        The clock stops when the line has arrived, before it is decoded:
        decoding the diagnostic records is client time."""
        data = (json.dumps(req) + "\n").encode()
        t0 = time.perf_counter()
        self.proc.stdin.write(data)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        return time.perf_counter() - t0, line

    def shutdown(self):
        """Ask the server to stop; return (seconds to exit, stderr)."""
        t0 = time.perf_counter()
        self.proc.stdin.write(b'{"op":"shutdown"}\n')
        self.proc.stdin.flush()
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        err = self.proc.stderr.read()
        self.proc.wait()
        dt = time.perf_counter() - t0
        self.proc.stdout.close()
        self.proc.stderr.close()
        if b'"ok":true' not in out:
            raise RuntimeError("shutdown not acknowledged: %r" % out[:200])
        return dt, err.decode()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_session(seed, seconds, trace, fails, servers):
    del seconds  # requests are counted, see BODY_EDITS
    _, d = generate("session", seed, 1)
    answers, files = known_answers("session", seed, d)
    cache = os.path.join(d, "cache.olc")
    if os.path.exists(cache):  # left by a run that was cut short
        os.remove(cache)
    # Every request names the whole document set by path, like a build
    # manifest; an edit is written to disk (untimed) before its request.
    request = {"op": "check", "files": files}
    originals = {}
    for f in files[FIRST_CLEAN_MODULE:-1]:  # modules with no seeded bug
        with open(f) as fh:
            originals[f] = fh.read()
    targets = list(originals)

    def body_edit(f, k):
        return originals[f].replace(
            "  r->weight = r->weight + by;\n",
            "  r->weight = r->weight + by + %d;\n" % (k + 1), 1)

    final = {}
    for k in range(BODY_EDITS):
        f = targets[k % len(targets)]
        final[f] = body_edit(f, k)

    def write(f, text):
        with open(f, "w") as fh:
            fh.write(text)

    def decode(line, tier, rechecked=None, what=""):
        resp = json.loads(line)
        ok = resp.get("ok") is True and resp.get("tier") == tier
        if rechecked is not None:
            ok = ok and resp.get("rechecked") == rechecked
        fails.check(ok, "%s: want tier %s rechecked %s, got %s" % (
            what, tier, rechecked,
            {k: resp.get(k) for k in ("ok", "tier", "rechecked", "error")}))
        return resp

    def body_edits(srv):
        """Body edits, cycling through the modules with no seeded bug,
        each followed by an unchanged resubmission, with a calibration
        before the first and after every fifth.  Return each edit's
        latency and its calibration: the mean wall time of the
        calibrations before and after its block of five."""
        edits, refs = [], []
        cal_edit.extend(calib())
        for k in range(BODY_EDITS):
            f = targets[k % len(targets)]
            write(f, body_edit(f, k))
            dt, line = srv.send(request)
            decode(line, "patched", 1, "body edit %d" % k)
            edits.append(dt)
            _, line = srv.send(request)
            decode(line, "clean", 0, "resubmission %d" % k)
            if k % 5 == 4:
                cal_edit.extend(calib())
                refs += [(cal_edit[-2][0] + cal_edit[-1][0]) / 2] * 5
        log("session: edits p10/p50/p90/max %s ms" % (
            ["%.0f" % (percentile(edits, q) * 1000) for q in (10, 50, 90, 100)]))
        return edits, refs

    # Set-up, every time the same work: generate the corpus, spawn
    # `-server -cache F` (F does not exist yet, so nothing is loaded)
    # and send the cold first request.  Every server but the last is
    # killed, which saves nothing; the last is the one the session
    # drives.  All set-ups must give the same diagnostics.
    # Each set-up is scaled by the two calibrations after it.
    cal_setup, cal_edit = [], []
    setup, setup_refs = [], []
    reps = SESSION_SETUPS
    cold_pristine = None
    for rep in range(reps):
        t0 = time.perf_counter()
        generate("session", seed, 1)
        srv = Server(cache=cache, report=not trace)
        servers.append(srv)
        _, line = srv.send(request)
        setup.append(time.perf_counter() - t0)
        resp = decode(line, "cold", what="set-up cold request %d" % rep)
        if cold_pristine is None:
            cold_pristine = resp["diagnostics"]
        else:
            fails.check(resp["diagnostics"] == cold_pristine,
                        "set-up cold request %d differs from the first" % rep)
        if rep < reps - 1:
            srv.kill()
        cal_setup += calib(2)
        setup_refs.append((cal_setup[-2][0] + cal_setup[-1][0]) / 2)
    main = srv
    log("session: %d lines, %d diagnostics cold" % (answers["lines"], len(cold_pristine)))
    edits, edit_refs = body_edits(main)
    # Interface edits: drop /*@only@*/ from mN_create, each reverted by
    # the next request; both directions change the interface.
    iface = []
    for k in range(IFACE_EDITS):
        f = targets[(k // 2) % len(targets)]
        if k % 2 == 0:
            m = re.search(r"/m(\d+)\.c$", f).group(1)
            write(f, final[f].replace(
                "/*@only@*/ m%s_rec *m%s_create" % (m, m), "m%s_rec *m%s_create" % (m, m), 1))
        else:
            write(f, final[f])
        dt, line = main.send(request)
        decode(line, "rebuilt", what="interface edit %d" % k)
        iface.append(dt)
    _, line = main.send(request)
    warm = decode(line, "clean", 0, "final resubmission")["diagnostics"]

    # Shutdown with -cache, then a restart from the cache (RESTARTS
    # times, each restarted server shut down again until the last).
    save, restart = [], []
    srv = main
    for k in range(RESTARTS):
        dt, err = srv.shutdown()
        save.append(dt)
        if srv is main and not trace:
            alloc, heap = exit_report(err)
        t0 = time.perf_counter()
        srv = Server(cache=cache)
        servers.append(srv)
        _, line = srv.send(request)
        restart.append(time.perf_counter() - t0)
        resp = decode(line, "cold", 0, "restart %d" % k)
        fails.check(resp["diagnostics"] == warm, "restart %d diagnostics differ" % k)
    srv.kill()
    # The reference for the warm end state: a cold check of the same
    # final documents by a fresh server with no cache, once every other
    # server has exited.
    ref = Server()
    servers.append(ref)
    _, line = ref.send(request)
    cold_final = decode(line, "cold", what="reference cold check")["diagnostics"]
    ref.kill()
    fails.check(warm == cold_final,
                "final warm diagnostics differ from a cold check of the same documents")
    log("session: setup %s; calibration %s ms" % (
        ["%.2f" % x for x in setup],
        ["%.1f" % calib_ms(c) for c in (cal_setup, cal_edit)]))
    log("session: iface %s, save %s, restart %s" % tuple(
        ["%.2f" % x for x in xs] for xs in (iface, save, restart)))
    log("session: edit p90 %.0f ms, iface p50 %.0f ms, save %.2f s, restart %.2f s" % (
        percentile(edits, 90) * 1000, percentile(iface, 50) * 1000,
        median(save), median(restart)))
    edit_ms = percentile(edits, 50) * 1000
    if not trace:
        return {
            "setup_s": paired(setup, setup_refs),
            "op_ms": paired(edits, edit_refs) * 1000,
            "alloc_mw": alloc / 1e6,
            "peak_heap_mb": heap * 8 / 1e6,
        }
    # the in-process replay, from the pristine corpus
    generate("session", seed, 1)
    layers = trace_layers(["session", d], edit_ms, cal_setup + cal_edit)
    fails.attempted += layers.pop("attempted")
    fails.failed += layers.pop("failed")
    return layers


# ---------------------------------------------------------------------------
# infer: olclint -infer-bulk -infer-out on a stripped corpus


def score_patch(patch, declared):
    """Inferred (function, slot, word) triples read off a header patch,
    scored against the declared ones: (precision, recall, inferred)."""
    inferred = set()
    fn = None
    for line in patch.splitlines():
        m = re.match(r"^@@ .* @@ (\S+)$", line)
        if m:
            fn = m.group(1)
            continue
        if not line.startswith("+") or line.startswith("+++"):
            continue
        head, sep, params = line[1:].partition(fn + "(")
        if not sep:
            raise RuntimeError("patch line without %s(: %r" % (fn, line))
        for w in re.findall(r"/\*@(\w+) inferred@\*/", head):
            inferred.add((fn, "ret", w))
        # split the parameter list at top-level commas
        depth, seg = 0, [""]
        for ch in params:
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch == "," and depth == 0:
                seg.append("")
                continue
            seg[-1] += ch
        for i, s in enumerate(seg):
            for w in re.findall(r"/\*@(\w+) inferred@\*/", s):
                inferred.add((fn, "p%d" % i, w))
    decl = {tuple(x) for x in declared}
    matched = len(inferred & decl)
    precision = matched / len(inferred) if inferred else 1.0
    recall = matched / len(decl) if decl else 1.0
    return precision, recall, inferred


def run_infer(seed, seconds, trace, fails):
    _, d = generate("infer", seed, 1)
    generate("infer", seed, 1, SETUP_DIR)  # so that every timed set-up overwrites
    answers, files = known_answers("infer", seed, d)
    patch_path = os.path.join(d, "patch.diff")

    def cold():
        if os.path.exists(patch_path):
            os.remove(patch_path)
        dt, r = timed_run([OLCLINT, "-infer-bulk", "-infer-out", patch_path] + files,
                          env=report_env())
        with open(patch_path) as f:
            patch = f.read()
        return dt, r, patch

    dt, r, patch = cold()
    precision, recall, inferred = score_patch(patch, answers["declared"])
    summary = r.stdout
    m = re.match(rb"^(\d+) annotations inferred", summary)
    fails.check(r.returncode == 0 and m is not None and int(m.group(1)) == len(inferred),
                "infer summary %r vs %d parsed findings" % (summary, len(inferred)))
    fails.check(precision >= INFER_MIN_PRECISION and recall >= INFER_MIN_RECALL,
                "inferred set: precision %.3f recall %.3f" % (precision, recall))
    log("infer: %d lines, %d declared, %d inferred, precision %.3f recall %.3f" % (
        answers["lines"], len(answers["declared"]), len(inferred), precision, recall))
    reports = []

    def sample():
        dt, r, p = cold()
        fails.check(r.returncode == 0 and r.stdout == summary and p == patch,
                    "infer run differs from the first")
        reports.append(exit_report(r.stderr.decode()))
        return dt

    def set_up():
        return generate("infer", seed, 1, SETUP_DIR)[0][0]

    # Cold samples for the whole budget (half of it in traced runs,
    # which only need the median for op.outside_spans_ms), each
    # followed by a set-up and a calibration.  The first run above is
    # the warm-up.
    times, setup, times_refs, setup_refs, cal = sample_loop(
        seconds / 2 if trace else seconds, sample, None if trace else set_up)
    cold_s = median(times)
    log("infer: cold %d samples, median %.3f s; calibration %.1f ms" % (
        len(times), cold_s, calib_ms(cal)))
    if trace:
        layers = trace_layers(["infer", str(seed), d], cold_s * 1000, cal)
        with open(os.path.join(d, "trace_patch.diff")) as f:
            fails.check(f.read() == patch, "traced replay's patch differs from olclint's")
        return layers
    return {
        "setup_s": paired(setup, setup_refs),
        "op_ms": paired(times, times_refs) * 1000,
        "alloc_mw": median(x[0] for x in reports) / 1e6,
        "peak_heap_mb": median(x[1] for x in reports) * 8 / 1e6,
    }


# ---------------------------------------------------------------------------


def tidy_work():
    """Delete everything in WORK but the corpora, which the next run
    overwrites (see WORK).  The session's cache file goes with the rest:
    a set-up must find none."""
    for entry in os.listdir(WORK) if os.path.isdir(WORK) else []:
        d = os.path.join(WORK, entry)
        for name in os.listdir(d):
            if name != "src":
                path = os.path.join(d, name)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["batch", "session", "infer"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("bin", "olclint.ml"), "BENCHMARK.json"):
        if not os.path.exists(need):
            log("perfbench: run from the root of a source checkout (no %s here)" % need)
            sys.exit(2)
    build()
    fails = Failures()
    servers = []
    try:
        if args.workload == "batch":
            metrics = run_batch(args.seed, args.seconds, args.trace, fails)
        elif args.workload == "session":
            metrics = run_session(args.seed, args.seconds, args.trace, fails, servers)
        else:
            metrics = run_infer(args.seed, args.seconds, args.trace, fails)
    finally:
        for s in servers:
            s.kill()
        tidy_work()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        log("perfbench: metrics %s missing, %s not in BENCHMARK.json" % (
            sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))))
        sys.exit(3)
    metrics = {k: {"value": v, "unit": units[k]} for k in units for v in [metrics[k]]}
    print(json.dumps({
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
