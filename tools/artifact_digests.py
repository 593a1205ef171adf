"""Digests of everything the CLI sequence writes, to compare two source trees byte for byte.

    python3 tools/artifact_digests.py TREE OUT

Generates the `posts`, `graph` and `rerank` workloads at seeds 1 and 2 with
this checkout's `perfbench/workloads.py`, then runs the liquidrank CLI from
`TREE/src` on each, in a new directory OUT, with every path relative to OUT:
`ingest`; every `rank` run, once on `interactions.csv` and its column sidecar
and once on a copy of the CSV without it; `evaluate`; and `report` in txt and
in svg. It prints each command's exit code and the sha256 of its stdout and
stderr, then one `sha256 path` line per file the commands wrote. A manifest is
hashed without its `timings_ms` and `peak_rss_mb`, which differ run to run.
Run it on two trees into two directories and diff the outputs:

    python3 tools/artifact_digests.py . /tmp/new > new.txt
    python3 tools/artifact_digests.py ../parent /tmp/old > old.txt
    diff old.txt new.txt

Every command runs with PYTHONDONTWRITEBYTECODE=1, so that neither tree gains
a `__pycache__`: a tree with one starts each command faster.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ in perfbench/ either, imported below
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2)
MANIFEST_RUN_FIELDS = ("timings_ms", "peak_rss_mb")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digest(path: Path) -> str:
    if path.name != "manifest.json":
        return sha256(path.read_bytes())
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for key in MANIFEST_RUN_FIELDS:
        manifest.pop(key, None)
    return sha256(json.dumps(manifest, sort_keys=True).encode())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (tree / "src" / "liquidrank" / "cli.py").is_file():
        print(f"error: no liquidrank sources under {tree / 'src'}", file=sys.stderr)
        return 2
    out.mkdir(parents=True)  # a new directory: no file from an earlier run is hashed
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))

    def run(*args: object) -> None:
        args = [str(a) for a in args]
        proc = subprocess.run([sys.executable, "-m", "liquidrank.cli", *args], cwd=out, env=env, capture_output=True)
        print(f"exit {proc.returncode} stdout {sha256(proc.stdout)} stderr {sha256(proc.stderr)}  {' '.join(args)}")

    for name, generate in workloads.GENERATORS.items():
        for seed in SEEDS:
            root = Path(f"{name}{seed}")
            (out / root / "input").mkdir(parents=True)
            w = generate(seed, out / root / "input")
            data, csv_only = root / "out", root / "csv"
            run("ingest", "--input", w.input_path.relative_to(out), "--out-dir", data)
            (out / csv_only).mkdir()
            shutil.copyfile(out / data / "interactions.csv", out / csv_only / "interactions.csv")
            for rank_run in w.ranks:
                for base in (data, csv_only):
                    run("rank", "--input", base / "interactions.csv", "--out-dir", base / rank_run.name,
                        *rank_run.flags)
            evaluated = data / w.evaluated
            rankings = [evaluated / f"ranking_{method}.csv" for method in ("mentions", "liquid", "product")]
            judgments = w.judgments_path.relative_to(out)
            run("evaluate", *rankings, "--judgments", judgments, "--k", workloads.K, "--out-dir", evaluated)
            for chart_format in ("txt", "svg"):
                run("report", *rankings, "--k", workloads.K, "--format", chart_format, "--out-dir", evaluated)
            written = sorted(p for base in (data, csv_only) for p in (out / base).rglob("*") if p.is_file())
            for path in written:
                print(f"{artifact_digest(path)} {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
