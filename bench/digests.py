"""sha256 digests of what `leashed run` writes, for every stack and adversary.

    python3 bench/digests.py [--src DIR] > digests.json

Runs every pairing of a stack with an adversary kind through
`leashed.cli.main`, in this process, with the package imported from --src
(default: this checkout's src), and prints one JSON object: for each pairing
that completes, the sha256 of its trace.csv and summary.json; for each that
does not, its exit code. Every pairing plays T = 2000 rounds with seed 0,
the vector stacks in 3 dimensions and fixed_diameter with --D 1.

Because --src may point at any commit's src, the same command shows whether
a change keeps every trace bit-identical to its parent's:

    git archive <parent> | tar -x -C ../parent
    python3 bench/digests.py --src ../parent/src > parent.json
    python3 bench/digests.py > change.json
    cmp parent.json change.json
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
T = 2000
SEED = 0
VECTOR_DIM = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=BENCH.parent / "src")
    args = ap.parse_args(argv)
    src = args.src.resolve()
    if not (src / "leashed" / "__init__.py").is_file():
        print(f"no leashed package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from leashed import ALGOS, KINDS, cli

    work = BENCH / "out" / f"digests-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    pairs = {}
    try:
        for algo in ALGOS:
            for kind in KINDS:
                argv = ["run", "--algo", algo, "--adversary", kind, "--T", str(T),
                        "--seed", str(SEED), "--out", str(work)]
                if algo in ("adagrad_ball", "leashed_dimfree"):
                    argv += ["--dim", str(VECTOR_DIM)]
                if algo == "fixed_diameter":
                    argv += ["--D", "1"]
                for name in ("trace.csv", "summary.json"):
                    (work / name).unlink(missing_ok=True)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                pairs[f"{algo}/{kind}"] = {
                    name: hashlib.sha256((work / name).read_bytes()).hexdigest()
                    for name in ("trace.csv", "summary.json")
                } if rc == 0 else {"exit": rc}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"T": T, "seed": SEED, "pairs": pairs}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
