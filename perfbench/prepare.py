"""Generate one workload's inputs and their reference optima.

Usage: python3 perfbench/prepare.py --workload NAME --seed N --out DIR

Writes ``inst-NNN.vcsp`` / ``inst-NNN.ops`` through the library's
serializers, parses each instance back from its absolute path, solves the
parsed instance with the exact oracle, and writes ``manifest.json``.  The
random families draw their sizes and term structure from a stream that is
the same for every seed (per corpus slot), and their content from the seed.
A workload's known-defect probes (``probe-NNN.*``, listed apart from the
instances) are written the same way from a stream of their own, so adding or
removing a probe leaves the corpus unchanged.
Runs in its own process so that generation and the oracle do not count
towards the solving process's peak memory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A slot whose spec asks for a feasible or an infeasible instance redraws
# its content until the oracle agrees, and its shape every 20 attempts.
ATTEMPTS_PER_SHAPE = 20
MAX_ATTEMPTS = 200


def load_config():
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_specs(workload_cfg):
    """The workload's corpus entries in solving order."""
    specs = []
    for group in workload_cfg["corpus"]:
        for _ in range(group["repeat"]):
            specs.extend(group["cycle"])
    return specs


def prepare(workload, seed, out_dir):
    cfg = load_config()["workloads"][workload]
    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    entries = [write_entry(out_dir, f"inst-{idx:03d}", rng,
                           f"{workload}/shape/{idx}", spec)
               for idx, spec in enumerate(corpus_specs(cfg))]
    rng = random.Random(f"{workload}/{seed}/probe")
    probes = []
    for idx, spec in enumerate(cfg.get("probes", [])):
        entry = write_entry(out_dir, f"probe-{idx:03d}", rng,
                            f"{workload}/probe-shape/{idx}", spec)
        entry["expect"] = spec["expect"]
        probes.append(entry)
    manifest = {"workload": workload, "seed": seed, "instances": entries,
                "probes": probes}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def write_entry(out_dir, stem, rng, shape_key, spec):
    """Generate, write and re-parse one instance; return its manifest entry."""
    import gen
    import oracle
    from vcsp.io_formats import (parse_instance, serialize_instance,
                                 serialize_ops)

    inst_path = out_dir / f"{stem}.vcsp"
    ops_path = out_dir / f"{stem}.ops"
    for attempt in range(MAX_ATTEMPTS):
        shape = random.Random(
            f"{shape_key}/{attempt // ATTEMPTS_PER_SHAPE}")
        instance, ops, columns = gen.build(rng, shape, spec)
        if ("feasible" not in spec
                or spec["feasible"] == oracle.is_feasible(instance)):
            break
    else:
        raise RuntimeError(f"{stem}: no instance matching {spec}")
    inst_path.write_text(serialize_instance(instance), encoding="utf-8")
    ops_path.write_text(serialize_ops(ops), encoding="utf-8")
    parsed = parse_instance(os.path.abspath(inst_path))
    optimum, how = oracle.reference_optimum(parsed, columns)
    return {
        "instance": inst_path.name,
        "ops": ops_path.name,
        "family": spec["family"],
        "vars": parsed.domains.variable_count,
        "expected": "inf" if optimum == math.inf else str(optimum),
        "oracle": how,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    prepare(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
