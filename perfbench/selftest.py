"""Quick self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every metric of ``BENCHMARK.json``
with its unit (end-to-end and traced), that a corrupted served answer
is counted as a failure, and that a shed 429 counts toward the error
rate.  Tiny-size figures are not comparable with full runs.  Exit code
0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

FAILURES: list = []


def check(condition: bool, message: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}", flush=True)
    if not condition:
        FAILURES.append(message)


def metrics_are_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {
        "fig7-certify": ["certify_s"],
        "survey": ["survey_verdicts_per_s"],
        "serve-mixed": ["query_p50_ms", "query_p99_ms", "queries_per_s", "miss_p50_ms"],
    }
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            check(completed.returncode == 0 and result.get("correct") is True,
                  f"{workload} trace={trace} runs and its answers check out")
            check(got == want, f"{workload} trace={trace} emits every {section} metric with its unit")
            shown = " ".join(lines[:-1])
            for name in named[workload] + ["setup_s", "peak_rss_mb", "error_rate"]:
                check(f" {name} " in shown, f"{workload} prints {name} with its unit")


def corrupted_answer_fails() -> None:
    from repro.engine.cache import payload_checksum, result_to_payload
    from repro.serve.client import QueryResponse

    stream = workloads.QueryStream(5, workloads.TINY)
    instance = stream.popular[0]
    results = workloads.certify_direct(instance)
    payloads = {name: result_to_payload(r, instance) for name, r in results.items()}
    query = workloads.Query("miss", b"", instance, instance)

    def certify(_):
        return results

    clean = QueryResponse(data={"results": payloads}, hot=False)
    check(workloads.check_served(clean, query, certify) is None, "an intact answer passes")

    flipped = json.loads(json.dumps(payloads))
    name = sorted(flipped)[0]
    flipped[name]["oscillates"] = not flipped[name]["oscillates"]
    resealed = json.loads(json.dumps(payloads))
    resealed[name]["states_explored"] += 1
    resealed[name]["checksum"] = payload_checksum(resealed[name])
    for label, data in (("checksum-breaking", flipped), ("re-checksummed", resealed)):
        out = workloads.Outcome()
        rng = workloads.random.Random(0)
        responses = {0: (query, QueryResponse(data={"results": data}, hot=False))}
        workloads.check_served_sample(out, responses, rng, workloads.TINY, certify)
        check(out.failed == 1, f"a {label} corruption of a served answer counts as a failure")


class _Shedding(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = b'{"error": "compute queue is full"}'
        self.send_response(429)
        self.send_header("Retry-After", "1")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def shed_counts_as_error() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Shedding)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        stream = workloads.QueryStream(7, workloads.TINY)
        url = f"http://127.0.0.1:{server.server_address[1]}"
        loop = workloads.closed_loop(url, stream, seconds=0.0, min_queries=6)
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    out = workloads.Outcome()
    workloads.score_queries(out, loop["records"])
    check(out.attempted >= 6 and out.failed == out.attempted,
          f"shed 429s count toward error_rate ({out.failed}/{out.attempted})")


def main() -> int:
    corrupted_answer_fails()
    shed_counts_as_error()
    metrics_are_emitted()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
