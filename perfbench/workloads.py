"""The three benchmark workloads: fig7-certify, survey and serve-mixed.

Every workload builds its inputs from the run's seed, measures for a
fixed number of seconds, checks its answers outside the timed region,
and returns an :class:`Outcome`.  All of them use ``engine="packed"``
and a fresh cache directory of their own (or the cache off); the
repository's ``.repro-cache`` and ``$REPRO_CACHE_DIR`` are never used.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import math
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN = Path(__file__).resolve().parent / "run.py"
MODELS = 24

#: Queue bound of the Fig. 7 certification (the bound BENCH_matrix.json uses).
FIG7_QUEUE_BOUND = 2
#: Recorded verdicts of the unrelabelled Fig. 7 gadget under the packed
#: engine (BENCH_matrix.json "packed_cold"): no model oscillates and 17
#: of the 24 searches are complete.
FIG7_COMPLETE = 17
#: State budget of every survey and serve search.  Random 4-node
#: instances are heavy-tailed (one of the first 64 takes 5.2 s at the
#: default 200k budget, 42% of the population's time); a survey-sized
#: budget keeps every search shallow, which is what these two workloads
#: are meant to stress.
STEP_BOUND = 5000
#: Generator seeds of the survey population and of the served corpus.
#: Fixed: 64 random instances differ in total cost by 13-46% (IQR)
#: between populations, far more than any regression bound, so the run
#: seed varies labellings and order instead of the corpus.
SURVEY_BASE_SEED = 0
SERVE_POPULAR_BASE = 1000
SERVE_MISS_BASE = 100_000
#: One serve-mixed query in this many asks about a never-seen instance
#: (1%).  Misses fall at a fixed period with a seeded phase: Bernoulli
#: placement lets misses bunch up and stall both clients at once, which
#: moved throughput between runs more than the program did.  At 3%, a
#: computing miss and the other client's hits fought over the daemon's
#: interpreter lock and throughput flipped between runs (IQR 27%).
MISS_PERIOD = 100
#: Never-seen instances have 3 nodes (popular ones 4): at 4 nodes the
#: misses took about 70% of the daemon's time and every hit queued
#: behind them for the interpreter lock, so the workload measured the
#: engine instead of the tiers.
MISS_NODES = 3
#: Closed-loop clients (one per core of the reference 2-core box).
CLIENTS = 2
#: Daemon's response tier size (``repro serve --response-cache``).
RESPONSE_TIER = 256


@dataclass(frozen=True)
class Size:
    """How much work one run does; ``tiny`` is the self-test's size."""

    setup_repeats: int = 7
    min_reps: int = 3
    survey_count: int = 64
    serve_popular: int = 64
    relabellings: int = 8
    min_queries: int = 1000
    check_popular: int = 8
    check_misses: int = 4
    check_reference: int = 6


FULL = Size()
TINY = Size(
    setup_repeats=1,
    min_reps=1,
    survey_count=8,
    serve_popular=4,
    relabellings=2,
    min_queries=40,
    check_popular=2,
    check_misses=1,
    check_reference=2,
)


@dataclass
class Outcome:
    """What one workload pass measured."""

    attempted: int = 0
    failed: int = 0
    #: Wall time of each unit of work, in ms (certification, campaign
    #: or query).
    latencies_ms: list = field(default_factory=list)
    verdicts: int = 0
    timed_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: The workload's own named metrics: name -> (value, unit).
    named: dict = field(default_factory=dict)
    #: Per-layer metrics of a traced pass.
    layers: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: Units run one after another (certifications, campaigns); False
    #: for the concurrent closed loop.
    serial: bool = True

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)

    @property
    def latency_p50_ms(self) -> float:
        return statistics.median(self.latencies_ms)

    @property
    def verdicts_per_s(self) -> float:
        """Serial units: verdicts per unit over the median unit time, so
        one slow unit moves it no more than it moves the median.  The
        closed loop: completed verdicts over its wall time."""
        if self.serial:
            return self.verdicts / len(self.latencies_ms) / (self.latency_p50_ms / 1000.0)
        return self.verdicts / self.timed_s


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> "float | None":
    """Nearest-rank percentile, or ``None`` unless at least ten samples
    lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def relabel(instance, rng: random.Random, name: str = ""):
    """``instance`` with its non-destination nodes renamed ``n0..`` in a
    seeded order."""
    from repro.core.compose import rename_nodes

    nodes = sorted(node for node in instance.nodes if node != instance.dest)
    names = [f"n{index}" for index in range(len(nodes))]
    rng.shuffle(names)
    mapping = dict(zip(nodes, names))
    return rename_nodes(
        instance, renamer=lambda node: mapping.get(node, node), name=name or instance.name
    )


def first_use() -> None:
    """Pay the engine's lazy first-use costs (numpy/scipy detection,
    packed-module import) on a two-node gadget."""
    from repro.config import RunConfig
    from repro.core.instances import disagree
    from repro.engine.explorer import can_oscillate
    from repro.models.taxonomy import model

    can_oscillate(disagree(), model("R1O"), config=RunConfig(engine="packed", cache=False))


def timed_probes(argv: list, repeats: int) -> float:
    """Median wall time from spawning ``argv`` to its ``ready`` line."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            line = _readline(process, 120.0)
            elapsed = time.perf_counter() - start
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe said {line!r}")
            if process.wait(timeout=60) != 0:
                raise RuntimeError(f"set-up probe exited {process.returncode}")
        finally:
            _stop(process)
        times.append(elapsed)
    return statistics.median(times)


def _readline(process, timeout: float) -> str:
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError("child printed nothing before the timeout")
    return process.stdout.readline()


def _stop(process, sig=signal.SIGKILL) -> None:
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


def probe(workload: str, seed: int, work: Path) -> None:
    """Body of a set-up probe child: imports, first use, input generation
    (and for the survey, campaign create and coordinator boot), then
    ``ready`` on stdout."""
    from repro.analysis.experiments import matrix_certification  # noqa: F401

    first_use()
    if workload == "fig7-certify":
        fig7_instance(seed)
        print("ready", flush=True)
        return
    from repro.campaign import api

    directory = tempfile.mkdtemp(prefix="probe-", dir=work)
    try:
        api.create(survey_spec(seed, FULL), directory)
        with api.serve(directory, port=0) as coordinator:
            _http_get(coordinator.url, "/healthz")
            print("ready", flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _http_get(url: str, path: str) -> bytes:
    host, port = url.split("//", 1)[1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> HTTP {response.status}")
        return body
    finally:
        connection.close()


def _probe_argv(workload: str, seed: int, work: Path) -> list:
    return [
        sys.executable, str(RUN), "--setup-probe", workload,
        "--seed", str(seed), "--work", str(work),
    ]


def compare_results(got: dict, want: dict) -> list:
    """Model names whose results differ (``ExplorationResult`` equality:
    verdict, completeness, counts and witness)."""
    return sorted(name for name in want if got.get(name) != want[name])


# ----------------------------------------------------------------------
# fig7-certify
# ----------------------------------------------------------------------
def fig7_instance(seed: int):
    from repro.core.instances import fig7_gadget

    return relabel(fig7_gadget(), random.Random(f"fig7-{seed}"), name=f"FIG7-s{seed}")


def run_fig7(seed: int, seconds: float, work: Path, size: Size, traced=None) -> Outcome:
    """Repeated in-process 24-model certifications of one seeded
    relabelling of the Fig. 7 gadget (cache off, one worker)."""
    from repro.analysis.experiments import matrix_certification
    from repro.config import RunConfig

    out = Outcome()
    out.setup_s = timed_probes(_probe_argv("fig7-certify", seed, work), size.setup_repeats)
    config = RunConfig(engine="packed", workers=1, cache=False, queue_bound=FIG7_QUEUE_BOUND)
    first_use()
    signatures = []
    with traced if traced is not None else contextlib.nullcontext():
        while out.timed_s < seconds or len(out.latencies_ms) < size.min_reps:
            instance = fig7_instance(seed)  # a fresh object: no memoized tables
            before = _repeat_counts(traced)
            start = time.perf_counter()
            results = matrix_certification(instance=instance, config=config)
            elapsed = time.perf_counter() - start
            out.timed_s += elapsed
            out.latencies_ms.append(elapsed * 1000.0)
            out.attempted += 1
            out.verdicts += len(results)
            oscillating = sorted(name for name, r in results.items() if r.oscillates)
            complete = sum(r.complete for r in results.values())
            if len(results) != MODELS or oscillating or complete != FIG7_COMPLETE:
                out.fail(1, f"fig7 verdicts differ from the unrelabelled gadget: "
                            f"oscillating={oscillating} complete={complete}")
            signature = {
                "engine.states": tuple(results[n].states_explored for n in sorted(results)),
                "engine.complete": complete,
            }
            signature.update(_delta(before, _repeat_counts(traced)))
            signatures.append(signature)
    out.peak_rss_mb = self_rss_mb()
    _check_repeats(out, signatures)
    out.named = {
        "certify_s": (statistics.median(out.latencies_ms) / 1000.0, "s"),
    }
    return out


# ----------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------
def survey_spec(seed: int, size: Size):
    from repro.campaign.spec import CampaignSpec
    from repro.models.taxonomy import ALL_MODELS

    models = [m.name for m in ALL_MODELS]
    random.Random(f"survey-{seed}").shuffle(models)
    return CampaignSpec(
        name=f"survey-s{seed}",
        count=size.survey_count,
        models=tuple(models),
        base_seed=SURVEY_BASE_SEED,
        engine="packed",
        step_bound=STEP_BOUND,
    )


def run_survey(seed: int, seconds: float, work: Path, size: Size, traced=None) -> Outcome:
    """Repeated identical campaigns, each in fresh directories, through
    an in-process coordinator and one joiner over loopback HTTP."""
    from repro.campaign import api

    out = Outcome()
    out.setup_s = timed_probes(_probe_argv("survey", seed, work), size.setup_repeats)
    spec = survey_spec(seed, size)
    first_use()
    signatures = []
    last_directory = None
    with traced if traced is not None else contextlib.nullcontext():
        while out.timed_s < seconds or len(out.latencies_ms) < size.min_reps:
            directory = tempfile.mkdtemp(prefix="survey-", dir=work)
            cache_dir = tempfile.mkdtemp(prefix="survey-cache-", dir=work)
            before = _repeat_counts(traced)
            start = time.perf_counter()
            api.create(spec, directory)
            with api.serve(directory, port=0) as coordinator:
                summary = api.join(coordinator.url, workers=1, cache_dir=cache_dir)
                finished = coordinator.wait_complete(timeout=120)
            report = (Path(directory) / "report.json").read_bytes()
            elapsed = time.perf_counter() - start
            tasks = spec.count * MODELS
            out.timed_s += elapsed
            out.latencies_ms.append(elapsed * 1000.0)
            out.attempted += tasks
            out.verdicts += tasks
            if not finished or summary["failed_shards"] or json.loads(report).get("partial"):
                out.fail(tasks, f"campaign incomplete: {summary}")
            totals = json.loads(report)["tasks"]
            signature = {"report": hashlib.sha256(report).hexdigest(), "tasks": totals}
            signature.update(_delta(before, _repeat_counts(traced)))
            signatures.append(signature)
            if last_directory is not None:
                shutil.rmtree(last_directory, ignore_errors=True)
            shutil.rmtree(cache_dir, ignore_errors=True)
            last_directory = directory
    out.peak_rss_mb = self_rss_mb()
    _check_repeats(out, signatures)
    _check_survey_sample(out, spec, api.attach(last_directory).records(), seed, size)
    out.named = {"survey_verdicts_per_s": (out.verdicts_per_s, "1/s")}
    return out


def _check_survey_sample(out: Outcome, spec, records: list, seed: int, size: Size) -> None:
    """A seeded sample of campaign verdicts against the reference engine
    with the cache off.  Only shallow searches are sampled: the
    reference engine is two orders of magnitude slower than packed."""
    from repro.config import RunConfig
    from repro.engine.explorer import can_oscillate
    from repro.models.taxonomy import model

    shallow = [r for r in records if r["result"]["states_explored"] <= 400]
    rng = random.Random(f"survey-check-{seed}")
    sample = rng.sample(shallow, min(size.check_reference, len(shallow)))
    config = RunConfig(
        engine="reference", cache=False, queue_bound=spec.queue_bound, step_bound=spec.step_bound
    )
    for record in sample:
        instance = spec.instance_for_seed(record["seed"])
        want = can_oscillate(
            instance, model(record["model"]),
            reliable_twin_first=spec.reliable_twin_first, config=config,
        )
        got = record["result"]
        # The packed engine's orbit quotient may only strengthen
        # completeness (monotone contract), and a conclusive reference
        # verdict must be the packed one.
        conclusive = want.oscillates or want.complete
        if (conclusive and got["oscillates"] != want.oscillates) or (
            want.complete and not got["complete"]
        ):
            out.fail(1, f"survey verdict {record['instance']}/{record['model']} "
                        f"differs from the reference engine: {got} vs {want}")


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
@dataclass
class Query:
    kind: str  # "popular" or "miss"; a popular query answered from L0 is recorded as "hot"
    body: bytes
    instance: object
    #: The labelling whose computation filled the cache entry.
    filler: object


class QueryStream:
    """Seeded closed-loop traffic: Zipf-popular pre-filled instances,
    each in one of several seeded relabellings, plus a share of
    never-seen instances generated on demand."""

    def __init__(self, seed: int, size: Size) -> None:
        from repro.core.canonical import canonical_hash
        from repro.core.generators import random_instance

        self._random_instance = random_instance
        self._canonical_hash = canonical_hash
        self.popular = [
            random_instance(SERVE_POPULAR_BASE + index) for index in range(size.serve_popular)
        ]
        rng = random.Random(f"serve-{seed}")
        self.variants = []  # per popular instance: [(instance, body)]
        for base in self.popular:
            labellings = [relabel(base, rng) for _ in range(size.relabellings)]
            self.variants.append([(inst, query_body(inst)) for inst in labellings])
        # Zipf (s = 1) over the fixed corpus order: response sizes differ
        # between instances, so a seeded popularity order would move
        # query latency by the size of whichever instance ranks first.
        weights = [1.0 / (rank + 1) for rank in range(len(self.popular))]
        self._cumulative = list(itertools.accumulate(weights))
        self._seen = {canonical_hash(base) for base in self.popular}
        self._miss_seed = SERVE_MISS_BASE
        self._rng = random.Random(f"serve-stream-{seed}")
        self._miss_phase = self._rng.randrange(MISS_PERIOD)
        self._lock = threading.Lock()
        self.issued = 0

    def next(self) -> "tuple[int, Query]":
        with self._lock:
            index = self.issued
            self.issued += 1
            if index % MISS_PERIOD == self._miss_phase:
                instance = self._fresh_instance()
                return index, Query("miss", query_body(instance), instance, instance)
            pick = self._rng.random() * self._cumulative[-1]
            which = next(i for i, c in enumerate(self._cumulative) if c >= pick)
            instance, body = self._rng.choice(self.variants[which])
            return index, Query("popular", body, instance, self.popular[which])

    def _fresh_instance(self):
        """The next generated instance no earlier query has touched,
        in a seeded labelling."""
        while True:
            base = self._random_instance(self._miss_seed, n_nodes=MISS_NODES)
            self._miss_seed += 1
            digest = self._canonical_hash(base)
            if digest not in self._seen:
                self._seen.add(digest)
                return relabel(base, self._rng)


def query_body(instance) -> bytes:
    from repro.serve.client import build_query_body

    return build_query_body(
        instance, queue_bound=3, max_states=STEP_BOUND, reliable_twin_first=True,
        engine="packed",
    )


def serve_config(cache_dir=None):
    from repro.config import RunConfig

    return RunConfig(
        engine="packed", workers=1, queue_bound=3, step_bound=STEP_BOUND,
        cache=False if cache_dir is None else None, cache_dir=cache_dir,
    )


class Daemon:
    """A ``repro serve --engine packed`` process over ``cache_dir``."""

    def __init__(self, cache_dir: str, log: Path) -> None:
        self._log = open(log, "ab")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--engine", "packed",
                "--port", "0", "--cache-dir", cache_dir,
                "--response-cache", str(RESPONSE_TIER),
            ],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        try:
            line = _readline(self.process, 120.0)
            if "listening on" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.url = line.rsplit(" ", 1)[1].strip()
            while True:
                try:
                    _http_get(self.url, "/healthz")
                    break
                except OSError:
                    if self.process.poll() is not None:
                        raise RuntimeError("daemon exited before /healthz answered")
                    time.sleep(0.002)
        except BaseException:
            self.close()
            raise
        self.boot_s = time.perf_counter() - start

    def statz(self) -> dict:
        return json.loads(_http_get(self.url, "/statz"))

    def histogram_sums(self) -> dict:
        from repro.obs.metrics import parse_prometheus

        samples = parse_prometheus(_http_get(self.url, "/metrics").decode("utf-8"))
        sums = {}
        for (metric, labels), value in samples.items():
            if metric.startswith("repro_serve_") and metric.endswith("_seconds_sum"):
                sums[metric[len("repro_"):-len("_seconds_sum")]] = value
            if metric == "repro_serve_request_seconds_window" and labels == (("quantile", "0.5"),):
                sums["request_p50"] = value
        return sums

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        """SIGTERM (graceful drain), then wait."""
        _stop(self.process, signal.SIGTERM)
        self._log.close()


def closed_loop(url: str, stream: QueryStream, seconds: float, min_queries: int,
                keep: "set | None" = None) -> dict:
    """``CLIENTS`` keep-alive clients, each sending its next query only
    after the previous reply.  Returns per-query records."""
    from repro.serve.client import ServeClient, ServerError

    records = []  # (index, kind: hot/popular/miss, latency_s, status)
    responses = {}  # index -> (query, QueryResponse) for checked queries
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client() -> None:
        with ServeClient(url, timeout=60.0) as connection:
            while time.perf_counter() < deadline or stream.issued < min_queries:
                index, query = stream.next()
                start = time.perf_counter()
                try:
                    response = connection.query_raw(query.body, trace=False)
                    status = "ok"
                except ServerError as error:
                    response, status = None, f"http-{error.status}"
                except Exception as error:  # noqa: BLE001 - a failed query, counted
                    response, status = None, f"client-{type(error).__name__}"
                latency = time.perf_counter() - start
                with lock:
                    kind = "hot" if response is not None and response.hot else query.kind
                    records.append((index, kind, latency, status))
                    if response is not None and (
                        query.kind == "miss" or (keep and index in keep)
                    ):
                        responses[index] = (query, response)

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"records": records, "responses": responses, "wall_s": time.perf_counter() - start}


def prefill(stream: QueryStream, cache_dir: str) -> None:
    """Fill the disk cache with every popular instance's 24 verdicts, in
    its base labelling, before the daemon boots."""
    from repro.analysis.experiments import matrix_certification

    config = serve_config(cache_dir)
    for instance in stream.popular:
        matrix_certification(instance=instance, config=config)


def run_serve(seed: int, seconds: float, work: Path, size: Size, traced=None) -> Outcome:
    """A closed loop of keep-alive clients against a fresh daemon whose
    disk cache was pre-filled (memory tiers empty at boot)."""
    out = Outcome(serial=False)
    stream = QueryStream(seed, size)
    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=work)
    prefill(stream, cache_dir)
    boots = []
    for _ in range(size.setup_repeats - 1):
        daemon = Daemon(cache_dir, work / "daemon.log")
        boots.append(daemon.boot_s)
        daemon.close()
    daemon = Daemon(cache_dir, work / "daemon.log")
    boots.append(daemon.boot_s)
    out.setup_s = statistics.median(boots)
    rng = random.Random(f"serve-check-{seed}")
    keep = set(rng.sample(range(size.min_queries), size.check_popular))
    try:
        statz_before = daemon.statz()["serve"]
        sums_before = daemon.histogram_sums()
        loop = closed_loop(daemon.url, stream, seconds, size.min_queries, keep)
        statz_after = daemon.statz()
        sums_after = daemon.histogram_sums()
        out.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.close()
    records = loop["records"]
    out.timed_s = loop["wall_s"]
    completed = score_queries(out, records)
    served = {
        name: statz_after["serve"][name] - statz_before[name] for name in statz_before
    }
    misses_sent = sum(1 for r in records if r[1] == "miss")
    # Exact count: every never-seen instance is computed once, all 24
    # models, and nothing else is.
    if served["computed"] != MODELS * misses_sent:
        out.fail(1, f"serve.computed drifted: {served['computed']} != {MODELS} x {misses_sent}")
    drift = check_served_sample(out, loop["responses"], rng, size)
    miss_ms = [latency * 1000.0 for _, kind, latency, _ in records if kind == "miss"]
    for kind in ("hot", "popular", "miss"):
        sample = [latency * 1000.0 for _, k, latency, _ in records if k == kind]
        if sample:
            print(f"serve-mixed  {kind}: n={len(sample)} p50={statistics.median(sample):.3f} ms "
                  f"mean={statistics.fmean(sample):.3f} ms", file=sys.stderr)
    out.named = {
        "query_p50_ms": (statistics.median(out.latencies_ms), "ms"),
        "query_p99_ms": (percentile(out.latencies_ms, 0.99), "ms"),
        "queries_per_s": (len(completed) / out.timed_s, "1/s"),
        "miss_p50_ms": (statistics.median(miss_ms) if miss_ms else None, "ms"),
    }
    if traced is not None:
        out.layers = serve_layers(served, sums_before, sums_after, statz_after, out, drift)
    return out


def score_queries(out: Outcome, records: list) -> list:
    """Account closed-loop records; failed and shed (429/503/504)
    queries count as attempted and failed, and their round trips stay
    in the latency sample.  Returns the completed records."""
    out.attempted += len(records)
    out.latencies_ms += [latency * 1000.0 for _, _, latency, _ in records]
    completed = [r for r in records if r[3] == "ok"]
    out.verdicts += MODELS * len(completed)
    bad = [r for r in records if r[3] != "ok"]
    if bad:
        out.fail(len(bad), f"{len(bad)} failed or shed queries, e.g. {bad[0][3]}")
    return completed


def certify_direct(instance) -> dict:
    """A direct 24-model certification with the serve bounds, cache off."""
    from repro.analysis.experiments import matrix_certification

    return matrix_certification(instance=instance, config=serve_config())


def check_served_sample(out: Outcome, responses: dict, rng: random.Random, size: Size,
                        certify=certify_direct) -> int:
    """Decode a seeded sample of served answers and compare them with a
    direct certification, cache off.

    A served answer must be bit-identical to a direct certification of
    the labelling that filled its cache entry, and must not contradict
    a direct certification of the labelling it was asked in.  Search
    counts, and whether a search hit the state budget, may differ
    between labellings of one instance; such answers are counted and
    returned, not failed (see README.md, "Labelling drift")."""
    popular = sorted(i for i, (q, _) in responses.items() if q.kind == "popular")
    misses = sorted(i for i, (q, _) in responses.items() if q.kind == "miss")
    sample = popular[: size.check_popular] + rng.sample(misses, min(size.check_misses, len(misses)))
    direct = {}

    def certify_once(instance):
        if id(instance) not in direct:
            direct[id(instance)] = certify(instance)
        return direct[id(instance)]

    drift = 0
    for index in sample:
        query, response = responses[index]
        failure = check_served(response, query, certify_once)
        if failure is None:
            continue
        if failure == "drift":
            drift += 1
        else:
            out.fail(1, f"served answer {index} ({query.kind}): {failure}")
    return drift


def check_served(response, query: Query, certify) -> "str | None":
    """``None`` if the answer is right, ``"drift"`` if only labelling-
    dependent counts differ, else a description of the wrong answer."""
    try:
        as_filled = response.results(query.filler)
        as_asked = response.results(query.instance)
    except (KeyError, TypeError, ValueError) as error:
        return f"undecodable: {error!r}"
    if len(as_filled) != MODELS:
        return f"{len(as_filled)} models answered"
    wrong = compare_results(as_filled, certify(query.filler))
    if wrong:
        return f"differs from a direct certification on {wrong}"
    if query.instance is query.filler:
        return None
    own = certify(query.instance)
    refuted = [name for name in own if contradicts(as_asked[name], own[name])]
    if refuted:
        return f"verdicts contradict its own labelling on {refuted}"
    return "drift" if compare_results(as_asked, own) else None


def contradicts(a, b) -> bool:
    """One result proves an oscillation that the other proves impossible.

    A witness holds for every labelling, and so does a complete search
    that found none; a search cut short by the state budget proves
    nothing.  Which labelling's search hits the budget differs, so only
    a contradiction between two proofs is a wrong answer."""
    safe_a = a.complete and not a.oscillates
    safe_b = b.complete and not b.oscillates
    return (a.oscillates and safe_b) or (b.oscillates and safe_a)


def serve_layers(served: dict, before: dict, after: dict, statz: dict, out: Outcome,
                 drift: int) -> dict:
    layers = {f"serve.{name}": value for name, value in served.items()
              if name in ("hot_hits", "mem_hits", "disk_hits", "computed", "joined",
                          "batches", "shed", "errors")}
    for phase in ("request", "lookup", "wait", "compute"):
        key = f"serve_{phase}"
        layers[f"serve.{phase}_s"] = after.get(key, 0.0) - before.get(key, 0.0)
    requests = served.get("requests", 0)
    layers["serve.hot_ratio"] = served.get("hot_hits", 0) / requests if requests else 0.0
    server_p50 = after.get("request_p50")
    query_p50 = statistics.median(out.latencies_ms)
    layers["serve.transport_p50_ms"] = (
        query_p50 - server_p50 * 1000.0 if server_p50 is not None else 0.0
    )
    cache = statz["cache"]
    layers["cache.mem_hits"] = served.get("mem_hits", 0)
    layers["cache.disk_hits"] = served.get("disk_hits", 0)
    layers["cache.writes"] = cache["writes"]
    layers["cache.misses"] = cache["misses"]
    lookups = cache["hits"] + cache["misses"]
    layers["cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    layers["serve.label_drift"] = drift
    return layers


# ----------------------------------------------------------------------
# Exact-repeat counts
# ----------------------------------------------------------------------
def _repeat_counts(traced) -> dict:
    """Counts that must repeat exactly for identical work (traced only)."""
    if traced is None:
        return {}
    return {
        "reduction.table_builds": traced.telemetry_counter("reduction.table_builds"),
        "engine.states": traced.tracer.counts["engine.states"],
        "engine.complete": traced.tracer.counts["engine.complete"],
    }


def _delta(before: dict, after: dict) -> dict:
    return {f"traced.{name}": after[name] - before[name] for name in before}


def _check_repeats(out: Outcome, signatures: list) -> None:
    """Identical work must give identical counts; a drift fails the run."""
    for index, signature in enumerate(signatures[1:], start=1):
        if signature != signatures[0]:
            changed = sorted(k for k in signature if signature[k] != signatures[0].get(k))
            out.fail(1, f"repetition {index} counts drifted from the first: {changed}")


WORKLOADS = {
    "fig7-certify": run_fig7,
    "survey": run_survey,
    "serve-mixed": run_serve,
}
