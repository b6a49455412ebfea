"""qproj benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload infer-reg500 --seed 1 --seconds 45 --trace 0

Run from the root of a qproj checkout; the package is imported from its
src/ directory. BLAS is pinned to one thread. With --trace 0 the result
holds the end-to-end metrics; with --trace 1 the public functions of each
qproj module are wrapped (see spans.py), the spans are written to
bench/out/, and the result holds the per-layer metrics. The last line of
standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy is first imported

import argparse
import json
import resource

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def metric_values(specs, values):
    """{name: {"value", "unit"}} for each metric of a BENCHMARK.json list."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; every workload does its fixed "
                             "list of operations whatever this is")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qproj", "__init__.py")):
        print(f"error: no qproj package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads                 # imports qproj from SRC

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run_id = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT, run_id)

    run = workloads.Run()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(run_id).install()
        run.untraced = tracer.paused
    try:
        workloads.WORKLOADS[args.workload](run, args.seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = metric_values(spec["end_to_end"], run.metrics)
    if tracer is None:
        metrics = end_to_end
    else:
        metrics = metric_values(spec["per_layer"],
                                spans.layer_metrics(tracer.spans, run.inner_failures))
        tracer.write(os.path.join(OUT, f"spans-{run_id}.jsonl"),
                     {"run": run_id, "end_to_end_traced": end_to_end})
        print(json.dumps({"end_to_end_traced": end_to_end}))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
