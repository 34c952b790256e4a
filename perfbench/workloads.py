"""The benchmark's workloads, their CLI ops, and the per-op correctness check.

A workload is a config derived from the pinned ``configs/default.json`` plus
the CLI commands one op runs against the benchmark directory that set-up
generated.  The workload seed replaces the config seed; seed 5 is the pinned
config as committed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass

PINNED_SEED = 5
PINNED_CONFIG = os.path.join("configs", "default.json")
ACCURACIES = ("efficacy", "generalization", "specificity", "portability")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict  # section -> {field: value} applied to the pinned config
    commands: tuple  # CLI argv tails; one op runs them all in order

    def config_doc(self, root, seed):
        with open(os.path.join(root, PINNED_CONFIG), "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        for section, fields in self.overrides.items():
            doc[section].update(fields)
        doc["seed"] = seed
        return doc

    def op_argvs(self, config_path, bench_dir, out_dir):
        return [
            [command[0], config_path, "--dataset", bench_dir, "--out", out_dir, *command[1:]]
            for command in self.commands
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pinned-run",
            why="pinned memit config, one op is `lamedit run`: preserved statistics, solves and mono's re-edits dominate",
            overrides={},
            commands=(("run",),),
        ),
        Workload(
            name="pinned-sweep",
            why="pinned config, one op is the alpha then the rank sweep: evaluation, forwards and tsvm merges dominate",
            overrides={},
            commands=(("sweep", "--axis", "alpha"), ("sweep", "--axis", "rank")),
        ),
        Workload(
            name="wide-alphaedit",
            why="d=128, h=256, 6 languages, alphaedit at rel_tol 1e-3: the only real null-space edits; O(h^3) kernels and the largest set-up",
            overrides={
                "dataset": {"d": 128, "h": 256, "m_languages": 6},
                "solver": {"method": "alphaedit", "rel_tol": 1e-3},
            },
            commands=(("run",),),
        ),
    )
}


# --- correctness ---


def output_digests(out_dir):
    """sha256 of every file an op wrote, by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _hits(accuracy, probes):
    """Integer hit count behind an accuracy measured over ``probes`` columns."""
    hits = float(accuracy) * probes
    count = round(hits)
    if abs(hits - count) > 1e-6:
        raise ValueError(f"accuracy {accuracy!r} is not a ratio of hits over {probes} probes")
    return count


def hit_counts(out_dir, doc):
    """Hit counts per output: per (method, language) for runs, per (method, point) for sweeps.

    Every accuracy is a share of ``n_facts`` probes per language, so the
    counts are integers; a sweep row averages the languages, so its counts
    are over ``n_facts * m_languages`` probes.
    """
    n_facts = doc["dataset"]["n_facts"]
    m_languages = doc["dataset"]["m_languages"]
    out = {}
    metrics_path = os.path.join(out_dir, "metrics.json")
    if os.path.exists(metrics_path):
        with open(metrics_path, "r", encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
        out["run"] = {
            rep["method"]: {
                lang: [_hits(row[a], n_facts) for a in ACCURACIES]
                for lang, row in rep["per_language"].items()
            }
            for rep in reports
        }
    for axis in ("alpha", "rank"):
        path = os.path.join(out_dir, f"sweep_{axis}.csv")
        if not os.path.exists(path):
            continue
        table = {}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                table.setdefault(row["method"], {})[row["point"]] = [
                    _hits(row[a], n_facts * m_languages) for a in ACCURACIES
                ]
        out[f"sweep_{axis}"] = table
    return out


def expected_files(workload):
    names = set()
    for command in workload.commands:
        if command[0] == "run":
            names |= {"metrics.csv", "metrics.json"}
        else:
            axis = command[command.index("--axis") + 1]
            names |= {f"sweep_{axis}.{ext}" for ext in ("csv", "json", "svg")}
    return names
