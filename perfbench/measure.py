"""One pass of one workload in a fresh interpreter.

    python3 perfbench/measure.py --workload g2 --seed 1 --mode pass

Modes: `setup` imports the library, builds the corpus and warms up;
`pass` then solves every system of the corpus once, in order, each call
starting after the previous one returned, and checks every result after
the timed pass; `trace` does the same with the layers traced and writes
the spans to `.perfbench_out/`.  The last line of standard output is one
JSON object with the measurements.

Each pass runs in its own interpreter because the library keeps caches
across calls (`arith._MINLEVEL_CACHE` among them): a second pass in the
same process would measure cache hits, not the solver.  For the same
reason the warm-up solves only systems that are not in the corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import SpeedSampler
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
ORACLE_BUDGET = 5_000_000


def import_library():
    """Import the package from this checkout's `src`, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import torsioncosets
    found = Path(torsioncosets.__file__).resolve().parent.parent
    if found != SRC.resolve():
        raise ImportError(f"torsioncosets imported from {found}, not {SRC}")
    from torsioncosets import cli, solver
    return cli, solver


class Workload:
    """The operation, warm-up and correctness check of one workload."""

    def __init__(self, name, cli, solver):
        import corpora
        self.name = name
        self.corpora = corpora
        self.cli = cli
        self.solver = solver

    def inputs(self, seed):
        """(systems, operation inputs): verify-n3 passes input text."""
        systems = self.corpora.corpus(self.name, seed)
        if self.name == "verify-n3":
            return systems, [self.corpora.to_input_text(s) for s in systems]
        return systems, systems

    def warm_up(self, systems):
        from torsioncosets.arith import CyclotomicNumber
        from torsioncosets.poly import LaurentPolynomial
        nvars = systems[0][0].nvars
        unit = [(0,) * nvars]
        for i in range(nvars):
            unit.append(tuple(int(i == j) for j in range(nvars)))
        coeffs = [1, CyclotomicNumber.zeta(4)] + [1] * nvars
        warm = [LaurentPolynomial(nvars, dict(zip(unit, coeffs)))]
        if warm in systems:
            raise RuntimeError("warm-up system is part of the corpus")
        if self.name == "verify-n3":
            text = self.corpora.to_input_text(warm)
            self._verify(text, max_order=4)
        else:
            self.op(warm)

    def op(self, item):
        """One user call, looked up at call time so tracing sees it."""
        if self.name == "verify-n3":
            return self._verify(item, self.corpora.VERIFY_MAX_ORDER)
        if len(item) == 1:
            return self.solver.hypersurface_cosets(item[0])
        return self.solver.variety_cosets(item)

    def _verify(self, text, max_order):
        argv = ["verify", "--format", "json", "--max-order", str(max_order),
                "--input", "-"]
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.run(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def check(self, system, result):
        """(failure reason or None, canonical coset keys)."""
        if isinstance(result, Exception):
            return f"raised {type(result).__name__}: {result}", []
        if self.name == "verify-n3":
            code, text = result
            if code != 0:
                return f"verify exit code {code}", []
            payload = json.loads(text)["solve"]
            cosets = [self.cli.coset_from_json(c, payload["n"])
                      for c in payload["cosets"]]
            keys = [c.canonical_key() for c in cosets]
            if not all(c["certified"] is True for c in payload["cosets"]):
                return "certificate not True", keys
            return None, keys
        from torsioncosets.oracle import cross_check
        keys = [c.canonical_key() for c in result.cosets]
        if not all(cert is True for cert in result.certificates):
            return "certificate not True", keys
        oracle = cross_check(result, system,
                             self.corpora.CHECK_ORDER[self.name],
                             budget=ORACLE_BUDGET)
        if not oracle.passed:
            return (f"cross_check: {len(oracle.missed_by_solver)} missed, "
                    f"{len(oracle.spurious_cosets)} spurious"), keys
        return None, keys


def run_pass(workload, items, tracer=None, sampler=None):
    """Closed loop over the corpus: (results, per-operation (start, end,
    busy seconds)); busy time excludes the speed sampler's handler.  An
    operation that raises is recorded and the loop goes on."""
    results, times = [], []
    clock = time.perf_counter
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.op = index
        handled = sampler.handler_s if sampler else 0.0
        start = clock()
        try:
            result = workload.op(item)
        except Exception as exc:  # counted as a failed operation
            result = exc
        end = clock()
        handled = (sampler.handler_s if sampler else 0.0) - handled
        times.append((start, end, end - start - handled))
        results.append(result)
    return results, times


def write_spans(tracer, workload, seed) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.sample(5)
    start = time.perf_counter()
    cli, solver = import_library()
    workload = Workload(args.workload, cli, solver)
    systems, items = workload.inputs(args.seed)
    workload.warm_up(systems)
    end = time.perf_counter()
    sampler.sample(5)
    out = {"setup_s": (end - start) * sampler.factor(start, end),
           "setup_wall_s": end - start}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "trace":
        tracer = Tracer()
        with tracer:
            results, times = run_pass(workload, items, tracer)
    else:
        tracer = None
        with sampler:
            sampler.sample(3)
            results, times = run_pass(workload, items, sampler=sampler)
            sampler.sample(3)
        latencies = [busy * sampler.factor(t0, t1) for t0, t1, busy in times]
        out.update(corpus_s=sum(latencies),
                   latencies_ms=[t * 1e3 for t in latencies])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    digest = hashlib.sha256()
    for index, (system, result) in enumerate(zip(systems, results)):
        reason, keys = workload.check(system, result)
        if reason is not None:
            failures.append(f"#{index}: {reason}")
        digest.update(repr(sorted(keys)).encode())
        digest.update(b"FAIL\n" if reason else b"\n")
    out.update(corpus_wall_s=sum(busy for _, _, busy in times),
               peak_rss_mb=peak_rss_mb,
               attempted=len(items),
               failures=failures,
               digest=digest.hexdigest()[:16])
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["root_self_s"] = tracer.root_self_s()
        out["spans"] = len(tracer.spans)
        out["spans_file"] = write_spans(tracer, args.workload, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
