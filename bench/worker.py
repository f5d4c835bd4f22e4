"""One measured process of a benchmark run.

Started fresh by ``run.py`` with the thread variables removed from its
environment.  It imports corrlogdet and loads the workload's config (the
set-up), then repeats whole rounds of the workload's CLI calls for the
requested time, then checks the outputs.  With ``--setup-only`` it stops
after the set-up, so ``run.py`` can sample set-up time several times.

Nothing of the benchmark is imported before the set-up is timed, so the
set-up is the program's alone.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, help="plan JSON written by run.py")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, help="how long to repeat rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="where to write the result JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    plan = json.loads(Path(args.plan).read_text())
    import corrlogdet.cli as cli

    if plan["config"]:
        from corrlogdet.simulate import ExperimentConfig

        ExperimentConfig.from_json_file(plan["config"])
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import resource
    import statistics

    from manifest import process_manifest
    from tracing import Tracer, layer_metrics

    env = process_manifest()
    tracer = Tracer() if args.trace else None
    # Round 0 is a warm-up: it is run and checked but not timed, because a
    # full-size run pays its first-call costs once over 1,000 replications.
    # A traced run then alternates untraced and traced rounds, so both
    # halves see the same machine and their difference is the tracing
    # overhead.
    min_rounds = 5 if tracer else 4
    rounds, spans = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) > 0 and len(rounds) % 2 == 0
        record = _run_round(cli, plan, tracer if traced else None)
        record["warmup"] = not rounds
        if traced:
            spans.append(tracer.take())
        rounds.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= min_rounds and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks as ck

    digests = [r.pop("digest") for r in rounds]
    if plan["kind"] == "simulate":
        config = json.loads(Path(plan["config"]).read_text())
        results = ck.check_simulation(config, Path(plan["csv"]).read_text(), digests)
        reps = config["reps"]
    else:
        unit_rc, _ = _call(cli, plan["unit_call"])
        unit_text = Path(plan["unit_call"][-1]).read_text() if unit_rc == 0 else ""
        results = ck.check_certify(plan, digests, Path(plan["csv"]).read_text(), unit_text)
        reps = 1

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
        "checks": [vars(c) for c in results],
        "env": env,
    }
    if tracer is not None:
        untraced = [r["wall_s"] for r in rounds if not (r["traced"] or r["warmup"])]
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        overhead = statistics.median(traced_walls) - statistics.median(untraced)
        blas_threads = max((b["threads"] or 0 for b in env["blas"]), default=0)
        output_bytes = rounds[-1]["output_bytes"] if plan["kind"] == "simulate" else None
        layers, not_observed = layer_metrics(spans, reps, output_bytes, blas_threads, overhead)
        out.update(layers=layers, not_observed=not_observed)
    Path(args.result).write_text(json.dumps(out, indent=1))
    return 0


def _call(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _run_round(cli, plan, tracer):
    """One round of the workload's calls: its wall and CPU time, its
    operations, and a digest of what it wrote."""
    gc.collect()
    codes, texts = [], []
    if tracer is not None:
        tracer.install()
    try:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for argv in plan["calls"]:
            rc, text = _call(cli, argv)
            codes.append(rc)
            texts.append(text)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()

    digest = hashlib.sha256()
    output_bytes = 0
    for path in plan["outputs"]:
        if Path(path).exists():
            data = Path(path).read_bytes()
            output_bytes += len(data)
            if path == plan["csv"]:
                digest.update(data)
    if plan["kind"] == "simulate":
        reps = json.loads(Path(plan["config"]).read_text())["reps"]
        attempted = reps
        if codes[0] == 0:
            flags = [line.rsplit(",", 1)[-1] for line in Path(plan["csv"]).read_text().splitlines()[1:]]
            failed = sum(flag == "1" for flag in flags)
        else:
            failed = reps
    else:
        # every verification check is one operation, the asymptotics run another
        attempted = failed = 0
        for argv, rc, text in zip(plan["calls"], codes, texts):
            if argv[0].startswith("verify-"):
                digest.update(text.encode())
                lines = [l for l in text.splitlines() if l.startswith(("[PASS]", "[FAIL]"))]
                attempted += max(len(lines), 1)
                failed += sum(l.startswith("[FAIL]") for l in lines) or int(rc != 0)
            else:
                attempted += 1
                failed += int(rc != 0)
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "traced": tracer is not None,
        "attempted": attempted,
        "failed": failed,
        "exit_codes": codes,
        "output_bytes": output_bytes,
        "digest": digest.hexdigest(),
    }
    return record


if __name__ == "__main__":
    sys.exit(main())
