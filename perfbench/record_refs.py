"""Record the reference labels of the published seeds.

    python3 perfbench/record_refs.py [--workload NAME ...]

Writes ``perfbench/refs/<workload>.json`` with, for each published
seed, a fingerprint of the generated inputs and the outputs the program
gives them (labels and a logits fingerprint, see
``workloads.Reference``): one op per distinct input for the
closed-loop workloads, and a direct ``GuardedPipeline.infer`` per
cloud for ``serve_guarded``.
Record again only when a change is meant to alter the program's
outputs; the benchmark checks every op against these labels whenever
it runs a published seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def references_for(workload: str, seed: int):
    """``(inputs, references)`` of one workload at one seed."""
    if workload == "serve_guarded":
        clouds = workloads.modelnet_clouds(seed, workloads.SERVE_POOL)
        return clouds, [workloads.direct_reference(clouds)[0]]
    spec = workloads.OFFLINE[workload]
    inputs = spec.make_inputs(seed)
    call = spec.build()[0]
    references = []
    for x in inputs:
        logits, labels = call(x)
        references.append(
            workloads.Reference.of(logits, labels, workloads.rows_of(x))
        )
    return np.stack(inputs), references


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", nargs="*",
        default=["seg_indoor", "cls_dgcnn", "serve_guarded", "scene_exact"],
    )
    args = parser.parse_args(argv)
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    for workload in args.workload:
        seeds = {}
        for seed in workloads.PUBLISHED_SEEDS:
            inputs, references = references_for(workload, seed)
            seeds[str(seed)] = {
                "inputs": workloads.inputs_fingerprint(inputs),
                "references": [ref.to_json() for ref in references],
            }
        path = os.path.join(workloads.REFS_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"workload": workload, "seeds": seeds}, out, indent=1)
            out.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
