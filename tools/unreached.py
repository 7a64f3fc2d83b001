#!/usr/bin/env python3
"""Print the executable lines of src/ that no campaign run reaches.

Build the coverage tree first (gcov instrumentation, -O0):

    cmake --preset coverage && cmake --build --preset coverage -j

then run

    python3 tools/unreached.py [campaign ...] [--build build-coverage]

The script clears old counters, runs `cgpbench run smoke server-smoke
sampled-smoke` plus any campaigns named on the command line, then
`cgpbench resume`, `report` and `verify` on each campaign's run dir,
and the three `cgpbench show` pages, all at CGP_SCALE=0.03 (unless
CGP_SCALE is set).  It then asks gcov for every object compiled from src/ and
prints, per module and per file, the executable lines that never ran,
then, per file, the functions that were never entered, each with its
line range.  Template instantiations merge by name: a template counts
as entered if any of its instantiations ran.
An object with a .gcno but no .gcda was compiled but not linked into
cgpbench; gcov reports all its lines as unrun.

The report is a measurement, not a gate: the script always exits 0.
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BASE_CAMPAIGNS = ["smoke", "server-smoke", "sampled-smoke"]
SHOW_PAGES = ["table1", "callgraph", "anatomy"]


def run_workloads(cgpbench, campaigns, env):
    """Run the campaigns, read each run dir back with resume, report
    and verify, and run the show pages; return False if one failed."""
    ok = True

    def run(*args):
        nonlocal ok
        r = subprocess.run([cgpbench, *args], env=env,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            ok = False
            print("warning: %s exited %d: %s" %
                  (" ".join(args[:2]), r.returncode, r.stderr.strip()))

    with tempfile.TemporaryDirectory() as tmp:
        run("run", *campaigns, "--threads", "2", "--quiet",
            "--dir", tmp, "--fresh", "--artifact-dir", tmp)
        # Groups such as `all` expand inside cgpbench: read back every
        # run dir the run left.
        for name in sorted(os.listdir(tmp)):
            run_dir = os.path.join(tmp, name)
            if not os.path.isfile(os.path.join(run_dir, "manifest.json")):
                continue
            run("resume", run_dir, "--threads", "2", "--quiet",
                "--artifact-dir", tmp)
            run("report", run_dir)
            run("verify", run_dir)
        for page in SHOW_PAGES:
            run("show", page)
    return ok


# Operator names that hold brackets, masked while templates and
# parameter lists are cut from a demangled name.
OPERATORS = ["operator()", "operator<=>", "operator<<=", "operator>>=",
             "operator<<", "operator>>", "operator<=", "operator>=",
             "operator->*", "operator->", "operator<", "operator>",
             "(anonymous namespace)"]
QUALIFIERS = {"const", "volatile", "&", "&&", "noexcept"}


def function_name(demangled):
    """@p demangled without template arguments, parameter lists,
    return type and qualifiers, so every instantiation of one
    template reads the same: `std::string cgp::detail::concat<int&>
    (int&)` is `cgp::detail::concat`."""
    for i, op in enumerate(OPERATORS):
        demangled = demangled.replace(op, "\x01%d\x02" % i)
    out, angle, paren, brace = [], 0, 0, 0
    for c in demangled:
        if c in "<>":
            angle += 1 if c == "<" else -1
        elif angle == 0 and brace == 0 and c in "()":
            paren += 1 if c == "(" else -1
        elif angle == 0 and paren == 0 and c in "{}":
            brace += 1 if c == "{" else -1
            out.append(c)
        elif angle == 0 and paren == 0:
            out.append(c)
    # A lambda in a const member function: `f() const::{lambda...}`.
    scoped = re.sub(r" (?:const|volatile|&&|&|noexcept)(?=::)", "",
                    "".join(out))
    tokens = []
    depth = 0
    word = ""
    for c in scoped:
        depth += {"{": 1, "}": -1}.get(c, 0)
        if c == " " and depth == 0:
            tokens.append(word)
            word = ""
        else:
            word += c
    tokens.append(word)
    tokens = [t for t in tokens if t and t not in QUALIFIERS]
    # A conversion operator names its type after a space.
    if len(tokens) > 1 and tokens[-2].endswith("operator"):
        tokens[-2:] = [tokens[-2] + " " + tokens[-1]]
    name = re.sub(r"\[abi:\w+\]", "", tokens[-1] if tokens else demangled)
    for i, op in enumerate(OPERATORS):
        name = name.replace("\x01%d\x02" % i, op)
    return name


def coverage(objdir):
    """What gcov saw over every object compiled from src/: (source
    file, line) -> max execution count, and (source file, function
    name, first line) -> [last line, entered], instantiations of one
    template merged."""
    counts = {}
    functions = {}
    for root, _, files in os.walk(objdir):
        for name in sorted(files):
            if not name.endswith(".gcno"):
                continue
            r = subprocess.run(["gcov", "--stdout", "--json-format",
                                "--demangled-names",
                                os.path.join(root, name)],
                               cwd=root, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            for doc in r.stdout.splitlines():
                if not doc.startswith("{"):
                    continue
                for f in json.loads(doc).get("files", []):
                    path = os.path.realpath(
                        os.path.join(root, f["file"]))
                    if not path.startswith(SRC + os.sep):
                        continue
                    for ln in f.get("lines", []):
                        key = (path, ln["line_number"])
                        counts[key] = max(counts.get(key, 0), ln["count"])
                    for fn in f.get("functions", []):
                        key = (path, function_name(
                            fn.get("demangled_name", fn["name"])),
                               fn["start_line"])
                        entry = functions.setdefault(
                            key, [fn["end_line"], False])
                        entry[0] = max(entry[0], fn["end_line"])
                        entry[1] |= fn["execution_count"] > 0
    return counts, functions


def report(counts, functions):
    per_file = collections.defaultdict(lambda: [0, 0])  # [unrun, lines]
    for (path, _), count in counts.items():
        entry = per_file[os.path.relpath(path, SRC)]
        entry[1] += 1
        if count == 0:
            entry[0] += 1
    per_module = collections.defaultdict(lambda: [0, 0])
    for rel, (unrun, lines) in per_file.items():
        module = rel.split(os.sep)[0]
        per_module[module][0] += unrun
        per_module[module][1] += lines

    def pct(unrun, lines):
        return 100.0 * unrun / lines if lines else 0.0

    print("%-12s %7s %7s %7s" % ("module", "unrun", "lines", "unrun%"))
    total = [0, 0]
    for module in sorted(per_module):
        unrun, lines = per_module[module]
        total[0] += unrun
        total[1] += lines
        print("%-12s %7d %7d %6.1f%%" %
              ("src/" + module, unrun, lines, pct(unrun, lines)))
    print("%-12s %7d %7d %6.1f%%" %
          ("total", total[0], total[1], pct(*total)))
    print()
    print("%-36s %7s %7s" % ("file", "unrun", "lines"))
    for rel in sorted(per_file):
        unrun, lines = per_file[rel]
        if unrun:
            print("%-36s %7d %7d" % ("src/" + rel, unrun, lines))

    unentered = collections.defaultdict(list)
    for (path, name, first), (last, entered) in functions.items():
        if not entered:
            unentered[os.path.relpath(path, SRC)].append(
                (first, last, name))
    print()
    print("Functions never entered (template instantiations merged):")
    for rel in sorted(unentered):
        print("src/" + rel)
        for first, last, name in sorted(unentered[rel]):
            print("  %5d-%-5d %s" % (first, last, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("campaigns", nargs="*",
                    help="campaigns to run besides " +
                    " ".join(BASE_CAMPAIGNS))
    ap.add_argument("--build", default=os.path.join(REPO, "build-coverage"),
                    help="coverage build tree (default: build-coverage)")
    args = ap.parse_args()
    # gcov runs in each object's directory: every path it is handed
    # must be absolute.
    args.build = os.path.abspath(args.build)

    cgpbench = os.path.join(args.build, "bench", "cgpbench")
    objdir = os.path.join(args.build, "src")
    if not os.path.isfile(cgpbench):
        print("no %s; build it with: cmake --preset coverage && "
              "cmake --build --preset coverage -j" % cgpbench)
        return
    for root, _, files in os.walk(args.build):
        for name in files:
            if name.endswith(".gcda"):
                os.remove(os.path.join(root, name))

    env = dict(os.environ)
    env.setdefault("CGP_SCALE", "0.03")
    campaigns = BASE_CAMPAIGNS + [c for c in args.campaigns
                                  if c not in BASE_CAMPAIGNS]
    print("Unrun executable lines of src/ at CGP_SCALE=%s after "
          "`cgpbench run %s`, `resume|report|verify` of each run dir "
          "and `cgpbench show %s`" %
          (env["CGP_SCALE"], " ".join(campaigns), "|".join(SHOW_PAGES)))
    if not run_workloads(cgpbench, campaigns, env):
        print("warning: a run failed; its lines may read as unrun")
    print()
    counts, functions = coverage(objdir)
    if not counts:
        print("warning: gcov found no src/ line under %s" % objdir)
    report(counts, functions)


if __name__ == "__main__":
    try:
        main()
    except Exception as e:  # a measurement never fails the caller
        print("unreached.py: %s" % e, file=sys.stderr)
    sys.exit(0)
