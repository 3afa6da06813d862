"""One checked-in set of command-line runs: "byte-identical" as one command.

    python tests/output_set.py DIR

runs every command of COMMANDS in DIR, each as a fresh
`python -m zmclab.cli` process on the src/ beside this script, and writes
per command NAME.stdout, NAME.stderr and NAME.code (the exit code). A
refusal is an outcome to record, but a crash or a console warning is not:
the script exits 1, naming the commands, when any stderr holds a Python
traceback or a line of the warnings module (FAULTS), such as numpy's
overflow and invalid-value RuntimeWarnings. CSV
paths are relative, so each CSV lands in DIR under its command's name and
stdout, which names it, reads the same in any DIR. The config files the
evolve runs read (CONFIGS) are written into DIR first.

To compare two checkouts, run the script of each into its own directory
and diff them:

    python A/tests/output_set.py out-a
    python B/tests/output_set.py out-b
    diff -r out-a out-b

The set holds every subcommand, every verify pairing (read from
VERIFY_PAIRINGS) and at least one refusal per subcommand, plus the cases
found fragile before: negative k in scientific notation, overflowing k,
T at the edges of the sample sets, non-finite T, off-centre and off-axis
windows, a wide window, and a blow-up fit that cannot be taken.
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from zmclab.residuals import VERIFY_PAIRINGS  # noqa: E402

README = ("equation = born-infeld\nfamily = log\nk = 0.2\nT = 1.0\nn = 400\n"
          "t_end = 0.8\nfit = true\n")
CONSTANT = "family = constant\nk = 0.3\nn = 200\nt_end = 0.8\n"
CONFIGS = {
    "run.cfg": README,
    "constant.cfg": "equation = born-infeld\n" + CONSTANT + "fit = true\n",
    "membrane.cfg": "equation = membrane\nlo = 0\nhi = 0.5\n" + CONSTANT,
}


# what fails the set when a command's stderr holds it: a Python traceback,
# and a line the warnings module prints, <file>:<line>: <Category>: <message>
FAULTS = {
    "traceback": re.compile(rb"Traceback \(most recent call last\)"),
    "warning": re.compile(rb"^[^\n]*:\d+: \w*Warning: ", re.MULTILINE),
}


def faults(stderr: bytes) -> list[str]:
    """The kinds of FAULTS that a command's stderr holds, in FAULTS' order."""
    return [kind for kind, pattern in FAULTS.items() if pattern.search(stderr)]


def _evolve(name, config, *sets, snapshots=False):
    sets += (f"diagnostics_csv={name}-diag.csv",)
    if snapshots:
        sets += (f"snapshots_csv={name}-snap.csv",)
    return name, ("evolve", config, *(arg for s in sets for arg in ("--set", s)))


def _verify(name, equation, family, *flags):
    return name, ("verify", "--equation", equation, "--family", family, *flags)


COMMANDS = [
    ("audit", ("audit",)),
    ("audit-extra-argument", ("audit", "--k", "1")),
    ("stability", ("stability",)),
    ("stability-extra-argument", ("stability", "1")),
    ("scaling", ("scaling",)),
    ("scaling-extra-argument", ("scaling", "--weight", "1")),
    # every pairing at its defaults
    *(_verify(f"verify-{e.value}-{f.value}", e.value, f.value) for e, f in VERIFY_PAIRINGS),
    _verify("verify-negative-k", "born-infeld", "log", "--k", "-2.5e-1"),
    _verify("verify-unpaired", "eikonal", "log"),
    _verify("verify-k-1e100", "born-infeld", "log", "--k", "1e100"),
    _verify("verify-T-1e-300", "spacelike", "arctan-corrected", "--T", "1e-300"),
    *(_verify(f"verify-T-{T}", "born-infeld", "log", "--T", T)
      for T in ("nan", "inf", "-inf")),
    # the sample sets' edges: the lightcone needs T > 0.04 and the cone
    # T > 0.06, and both refuse a T above 2^48, where T - MARGIN rounds onto T
    *(_verify(f"verify-{family}-T-{T}", equation, family, "--T", T)
      for equation, family in (("born-infeld", "log"), ("membrane", "sphere-plus"))
      for T in ("0.04", "0.0400001", "0.06", "0.0600001", "281474976710656", "2.9e14",
                "3e14", "1e15")),
    ("profile", ("profile", "--a", "0.6", "--csv", "profile.csv")),
    ("profile-negative", ("profile", "--a", "-5e-1", "--csv", "profile-negative.csv")),
    ("profile-adaptive", ("profile", "--a", "0.6", "--tolerance", "1e-10",
                          "--csv", "profile-adaptive.csv")),
    # a fixed march of three CSV chunks that ends on a clipped step at --rho-max
    ("profile-long", ("profile", "--a", "0.3", "--drho", "1e-4", "--rho-max", "0.85123",
                      "--csv", "profile-long.csv")),
    ("profile-rho-max-nan", ("profile", "--a", "0.5", "--rho-max", "nan",
                             "--csv", "profile-rho-max-nan.csv")),
    _evolve("evolve", "run.cfg", snapshots=True),
    _evolve("evolve-n800", "run.cfg", "n=800", snapshots=True),
    _evolve("evolve-n1600", "run.cfg", "n=1600", snapshots=True),
    _evolve("evolve-short", "run.cfg", "t_end=0.3"),
    _evolve("evolve-off-centre", "run.cfg", "lo=-0.1", "hi=0.5", "n=200"),
    _evolve("evolve-off-centre-n1600", "run.cfg", "lo=-0.1", "n=1600"),
    # the constant family's centre series is zero: its fit is skipped
    _evolve("evolve-constant", "constant.cfg"),
    _evolve("evolve-membrane", "membrane.cfg"),
    _evolve("evolve-membrane-fit", "membrane.cfg", "fit=true"),
    # the third window kind of the evolution's step: a radial window off the axis
    _evolve("evolve-membrane-off-axis", "membrane.cfg", "lo=0.1", "family=log", "k=0.05"),
    *(_evolve(f"evolve-wide-{w}", "run.cfg", "family=constant", f"lo=-{w}", f"hi={w}")
      for w in ("1e100", "1e150", "1e200", "1e300", "1e308")),
    _evolve("evolve-slope-1e155", "run.cfg", "k=1e155"),
    _evolve("evolve-membrane-axis-log", "membrane.cfg", "family=log", "k=0.2"),
]


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(f"usage: python {argv[0]} DIR\n")
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, text in CONFIGS.items():
        (out / name).write_text(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    faulted = {kind: [] for kind in FAULTS}
    for name, args in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "zmclab.cli", *args], cwd=out,
                              env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(done.stdout)
        (out / f"{name}.stderr").write_bytes(done.stderr)
        (out / f"{name}.code").write_text(f"{done.returncode}\n")
        for kind in faults(done.stderr):
            faulted[kind].append(name)
    for kind, names in faulted.items():
        if names:
            sys.stderr.write(f"{kind} from: {', '.join(names)}\n")
    return 1 if any(faulted.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
