"""Regenerate golden.json: the sha256 and hit counts of every pinned text output.

    PYTHONPATH=src python tests/make_golden.py

For each seed of :data:`SEEDS`, the pinned config (``configs/default.json``)
with that seed is generated, and each of :data:`COMMANDS` runs on it through
``cli.main``.  The file records the sha256 of every CSV, JSON and SVG each
command writes, and the hit counts behind its accuracies.
``tests/test_golden.py`` checks the program against it.  Rerun this script
only for a change that is meant to alter the outputs, and say so.

The benchmark containers (``dataset.lam``, ``model.lam``) are left out: their
bytes depend on the CPU's BLAS kernels, while the text outputs do not.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
PINNED_CONFIG_PATH = os.path.join(os.path.dirname(HERE), "configs", "default.json")

SEEDS = (5, 11, 2718)
COMMANDS = (
    ("run",),
    ("run", "--method", "alphaedit"),
    ("sweep", "--axis", "alpha"),
    ("sweep", "--axis", "rank"),
)
ACCURACIES = ("efficacy", "generalization", "specificity", "portability")


def _hits(accuracy, probes):
    """The integer hit count behind an accuracy over ``probes`` probes."""
    hits = float(accuracy) * probes
    count = round(hits)
    if abs(hits - count) > 1e-6:
        raise ValueError(f"accuracy {accuracy!r} is not a ratio of hits over {probes} probes")
    return count


def hit_counts(out_dir, n_facts, m_languages):
    """Hit counts of one command's outputs, in ACCURACIES order.

    A run's are per (method, language), each family over ``n_facts``
    probes; a sweep's are per (method, point), averaged over the languages,
    so over ``n_facts * m_languages`` probes.
    """
    counts = {}
    metrics_path = os.path.join(out_dir, "metrics.json")
    if os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as fh:
            for rep in json.load(fh)["reports"]:
                counts[rep["method"]] = {
                    lang: [_hits(row[a], n_facts) for a in ACCURACIES] for lang, row in rep["per_language"].items()
                }
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("sweep_") and name.endswith(".csv"):
            with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    counts.setdefault(row["method"], {})[row["point"]] = [
                        _hits(row[a], n_facts * m_languages) for a in ACCURACIES
                    ]
    return counts


def _digests(out_dir):
    """sha256 of every file in ``out_dir``, by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def seed_outputs(seed, work_dir):
    """``{command: {"files": {name: sha256}, "hits": ...}}`` of every command at ``seed``.

    Commands are keyed by their arguments joined with spaces.  The CLI's
    printed lines are discarded; a command that exits nonzero raises.
    """
    from lamedit import cli

    with open(PINNED_CONFIG_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["seed"] = seed
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    bench = os.path.join(work_dir, "bench")
    outputs = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        argvs = [["generate", config_path, "--out", bench]]
        for i, command in enumerate(COMMANDS):
            out_dir = os.path.join(work_dir, f"out{i}")
            argvs.append([command[0], config_path, "--dataset", bench, "--out", out_dir, *command[1:]])
        for argv in argvs:
            if cli.main(argv) != 0:
                raise RuntimeError(f"lamedit {' '.join(argv)} failed at seed {seed}")
    for i, command in enumerate(COMMANDS):
        out_dir = os.path.join(work_dir, f"out{i}")
        outputs[" ".join(command)] = {
            "files": _digests(out_dir),
            "hits": hit_counts(out_dir, doc["dataset"]["n_facts"], doc["dataset"]["m_languages"]),
        }
    return outputs


def main():
    golden = {"config": "configs/default.json", "seeds": {}}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as work_dir:
            golden["seeds"][str(seed)] = seed_outputs(seed, work_dir)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
