"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify_m2k2 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Every repetition is a fresh interpreter (``child.py``), because
``construct_jack``, ``family_context`` and ``tau_context`` cache across calls
and an in-process repeat would time cache hits.  Repetitions run one after
another until the next one would end after ``--seconds``; at least one runs.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced repetitions alternate, and the last line
reports the per-layer metrics of the traced ones (medians over repetitions)
and the tracing overhead.  Earlier lines give the machine, every sample and
the per-layer table.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import layer_totals, read_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; a repetition still running at this point of
# the run is killed and counted as failed.
RUN_LIMIT_S = 170.0
SETUP_PROBES = 20

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "operators.uprime_column.calls": "count",
    "operators.uprime_column.s": "s",
    "jack.construct_jack.calls": "count",
    "jack.construct_jack.s": "s",
    "jack.construct_jack.self_s": "s",
    "jack.basis_size": "count",
    "jack.terms": "count",
    "jack.specialize.calls": "count",
    "jack.specialize.s": "s",
    "jack.verify_eigen_equations.calls": "count",
    "jack.verify_eigen_equations.s": "s",
    "operators.dunkl.calls": "count",
    "operators.dunkl.s": "s",
    "operators.jucys_murphy.calls": "count",
    "operators.jucys_murphy.s": "s",
    "operators.cherednik_prime.calls": "count",
    "operators.cherednik_prime.s": "s",
    "singular.isotype_of.calls": "count",
    "singular.isotype_of.s": "s",
    "singular.family_context.s": "s",
    "singular.singular_family.self_s": "s",
    "ratfunc.canonicalize.calls": "count",
    "ratfunc.arith.calls": "count",
    "ratfunc.arith.s": "s",
    "vectorpoly.tau_context.s": "s",
    "vectorpoly.tau_dim": "count",
    "vectorpoly.group_action.calls": "count",
    "vectorpoly.group_action.s": "s",
    "combinatorics.compositions_strictly_below.calls": "count",
    "combinatorics.compositions_strictly_below.s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Sample:
    """One child process: what it cost and whether its output was right."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    record: dict = field(default_factory=dict)
    error: str | None = None


def _drain(proc, deadline):
    """Read the child's stdout and stderr to the end; kill it at deadline."""
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(None if killed else left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), killed


def run_child(src, name, deadline, spans=None) -> Sample:
    """Spawn one repetition and reap it with its own rusage (``os.wait4``);
    ``RUSAGE_CHILDREN`` would give the largest peak of all children so far."""
    start = time.monotonic()
    cmd = [sys.executable, "-I", str(HERE / "child.py"), str(src), name, repr(start)]
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err, killed = _drain(proc, deadline)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(
        wall_s=time.monotonic() - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out,
    )
    lines = err.decode(errors="replace").strip().splitlines()
    if killed:
        sample.error = "killed at the run's time limit"
    elif proc.returncode != 0:
        sample.error = f"exit code {proc.returncode}: {' | '.join(lines[-3:])}"
    else:
        try:
            sample.record = json.loads(lines[-1])
        except (IndexError, ValueError):
            sample.error = "no record on stderr"
    return sample


def layer_metrics(sample: Sample, spans) -> dict[str, float]:
    """Every per-layer metric but the overhead, from one traced repetition."""
    totals = layer_totals(read_spans(spans))
    counters = sample.record.get("counters", {})
    out = {}
    for name in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if name in counters:
            out[name] = counters[name]
        elif prefix in totals and stat in ("calls", "s", "self_s"):
            out[name] = totals[prefix][stat]
        else:
            out[name] = 0
    out["cli.render_s"] = totals.get("cli.main", {}).get("self_s", 0.0)
    out["cli.output_bytes"] = len(sample.stdout)
    return out


def end_to_end(probes, plain) -> dict[str, float]:
    setup = [s.record["setup_s"] for s in probes + plain if "setup_s" in s.record]
    return {
        "wall_s": statistics.median(s.wall_s for s in plain),
        "cpu_s": statistics.median(s.cpu_s for s in plain),
        # without a record nothing was imported; the process lifetime bounds it
        "setup_s": statistics.median(setup or [p.wall_s for p in probes]),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
    }


def per_layer(plain, traced) -> dict[str, float]:
    """Medians over the traced repetitions that succeeded, and the overhead."""
    per_rep = [layer_metrics(s, spans) for s, spans in traced if s.error is None]
    per_rep = per_rep or [dict.fromkeys(PER_LAYER, 0)]
    out = {name: statistics.median(r[name] for r in per_rep) for name in PER_LAYER}
    traced_wall = statistics.median(s.wall_s for s, _ in traced)
    out["trace.overhead_frac"] = traced_wall / statistics.median(s.wall_s for s in plain) - 1
    return out


def tail(values):
    """The highest percentile with at least ten samples above it, as
    (percent, value), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


def cpu_ticks() -> list[int]:
    """The machine's aggregate CPU time counters (Linux ``/proc/stat``)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def machine(ticks_before) -> dict:
    """Facts that explain run-to-run spread; ``steal_frac`` is the share of
    the machine's CPU time taken by the hypervisor during the run."""
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }
    delta = [b - a for a, b in zip(ticks_before, cpu_ticks())]
    if len(delta) > 7 and sum(delta):
        facts["steal_frac"] = round(delta[7] / sum(delta), 4)
    return facts


def measure(workload, src, seconds: float, trace: bool, spans_dir: Path):
    """Set-up probes, repetitions (alternating untraced and traced under
    ``trace``) until the next one would end after ``seconds``, set-up probes.

    The machine's speed drifts over seconds, so the probes are split between
    the two ends of the run rather than taken in one burst.
    """
    deadline = time.monotonic() + RUN_LIMIT_S

    def probe_burst():
        return [run_child(src, "setup", deadline) for _ in range(SETUP_PROBES // 2)]

    # The first probe fills the bytecode cache and is not counted.
    run_child(src, "setup", deadline)
    probes = probe_burst()
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_child(src, workload.name, deadline))
        if trace:
            spans = spans_dir / f"{workload.name}.{len(traced)}.spans.tsv"
            traced.append((run_child(src, workload.name, deadline, spans), spans))
        elapsed = time.monotonic() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    probes += probe_burst()
    for sample in plain + [s for s, _ in traced]:
        if sample.error is None:
            sample.error = workload.check(sample.stdout)
    return probes, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nsjack" / "cli.py").is_file():
        print(f"no nsjack sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spans_dir = root / ".perfbench"
    if args.trace:
        spans_dir.mkdir(exist_ok=True)

    ticks = cpu_ticks()
    probes, plain, traced = measure(workload, src, args.seconds, bool(args.trace), spans_dir)
    samples = plain + [s for s, _ in traced]
    failed = [s for s in samples if s.error is not None]
    facts = machine(ticks)
    facts.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("machine " + json.dumps(facts))
    for kind, group in (("plain", plain), ("traced", [s for s, _ in traced])):
        for sample in group:
            print(
                f"sample {kind} wall_s={sample.wall_s:.4f} cpu_s={sample.cpu_s:.4f} "
                f"peak_rss_mb={sample.peak_rss_mb:.1f} "
                f"setup_s={sample.record.get('setup_s', float('nan')):.4f} "
                f"stdout_bytes={len(sample.stdout)} error={sample.error}"
            )

    walls = [s.wall_s for s in plain]
    wall_tail = tail(walls)
    tail_text = "none (fewer than 11 samples)" if wall_tail is None else (
        f"p{wall_tail[0]:.0f} {wall_tail[1]:.4f} s"
    )
    print(f"wall_s median {statistics.median(walls):.4f} s, tail {tail_text}, samples {len(walls)}")
    print(f"failed_frac {len(failed) / len(samples):.4f} ratio ({len(failed)} of {len(samples)})")
    if args.trace:
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        metrics, units = end_to_end(probes, plain), END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} {value:.10g} {units[name]}")
    for sample in failed:
        print(f"failure: {sample.error}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
