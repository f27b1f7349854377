"""Run every README command on four small datasets, writing into OUT.

    python scripts/pipeline.py OUT

The datasets are a desk single-blob set, a desk nested set (trained on
its second structure, the cup), a 4-image riga-like set and a 4-image
hecktor-like set, so every preset runs; each has its own test set.  On each,
every arm is trained and evaluated, and every arm with uncertainty runs
`qc` and `ood` with `gauss_noise` and with `blur`.  The two desk sets
also run `compare`, so it scores one structure and two, and the desk
single-blob set runs `inspect`.  Every command runs as its own
process, with OUT as its working directory and relative paths, so two
trees written from two checkouts can be compared with `diff -r`: a
change that must keep outputs byte-identical leaves that diff empty.

Exits 1 at the first command that exits non-zero, naming it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ARMS = ("edue", "le", "de", "single-rater")
UNCERTAINTY_ARMS = ("edue", "le", "de")
OOD_RUNS = {"gauss_noise": "0.3", "blur": "2"}

# name: (config, train images, test images, structure index); qc needs
# at least 5 test images
SETS = {
    "desk": ({"preset": "desk", "epochs": 3}, 48, 16, 0),
    "desk-nested": ({"preset": "desk", "structure": "nested", "epochs": 3}, 48, 16, 1),
    "riga-like": ({"preset": "riga-like", "epochs": 2, "batch_size": 2}, 4, 5, 0),
    "hecktor-like": ({"preset": "hecktor-like", "epochs": 2, "batch_size": 2}, 4, 5, 0),
}


def edue(out: Path, *argv: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    print("$ edue " + " ".join(argv), file=sys.stderr, flush=True)
    code = subprocess.run([sys.executable, "-m", "edue.cli", *argv], cwd=out,
                          env=env).returncode
    if code != 0:
        print(f"pipeline: `edue {' '.join(argv)}` exited {code}", file=sys.stderr)
        raise SystemExit(1)


def run_set(out: Path, name: str) -> None:
    config, n_train, n_test, structure = SETS[name]
    (out / name).mkdir()
    cfg = f"{name}/config.json"
    (out / cfg).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    train, test = f"{name}/train", f"{name}/test"
    edue(out, "gen-data", "--config", cfg, "--n", str(n_train), "--out", train)
    edue(out, "gen-data", "--config", cfg, "--n", str(n_test), "--seed", "1",
         "--out", test)
    for arm in ARMS:
        model = f"{name}/{arm}"
        edue(out, "train", "--config", cfg, "--data", train, "--out", model,
             "--arm", arm, "--structure", str(structure))
        edue(out, "eval", "--model", model, "--data", test, "--out", f"{model}_eval.json")
        if arm not in UNCERTAINTY_ARMS:
            continue
        edue(out, "qc", "--model", model, "--data", test, "--out", f"{model}_qc.json")
        for kind, level in OOD_RUNS.items():
            edue(out, "ood", "--model", model, "--data", test, "--kind", kind,
                 "--level", level, "--out", f"{model}_ood_{kind}.json")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/pipeline.py OUT", file=sys.stderr)
        return 1
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        print(f"pipeline: {out} exists and is not empty", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    for name in SETS:
        run_set(out, name)
    for name in ("desk", "desk-nested"):
        edue(out, "compare", "--config", f"{name}/config.json", "--train-data",
             f"{name}/train", "--test-data", f"{name}/test", "--seeds", "1",
             "--out", f"{name}/compare.json")
    edue(out, "inspect", "desk/train/img_0000.edt")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
