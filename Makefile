# Standard entry points; CI runs `make check`, `make bench-smoke`,
# `make perfbench-test`, `make smoke-faults`, `make smoke-adversary`, `make smoke-campaign`,
# `make smoke-send`, `make smoke-serve`, and `make fuzz`.
GO ?= go

# Per-target budget for the CI fuzz smoke (`make fuzz`); raise it
# locally for real exploration, e.g. `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 10s

.PHONY: build test race vet lint lint-baseline check docs reproduce smoke-faults smoke-adversary smoke-campaign smoke-send smoke-serve fuzz bench bench-check bench-smoke perfbench-test leaktest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the whole module; the concurrency-heavy packages (worker
# pool, lock-free metrics, retry/fault layers, loopback servers) all
# have goroutine-crossing tests.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (docs/LINT.md): dropped errors,
# context propagation, metric-name drift against docs/OBSERVABILITY.md,
# dead values, raw sleeps in retry paths, plus the concurrency pack —
# blocking ops under held mutexes (lockhold), lock leaks (unlockpath),
# unstoppable goroutines (goroleak) and WaitGroup misuse (wgpair).
# Fails on any finding not in the committed baseline
# (.mtastslint-baseline.json, kept empty).
lint:
	$(GO) run ./cmd/mtastslint

# Regenerate the baseline from current findings. The goal state is an
# empty baseline: prefer fixing or //lint:ignore-ing findings instead.
lint-baseline:
	$(GO) run ./cmd/mtastslint -write-baseline

check: build vet lint docs test race leaktest bench-smoke perfbench-test smoke-adversary smoke-serve

# Goroutine-leak harness (internal/leakcheck): the concurrency-heavy
# packages declare a TestMain that fails the binary if any test leaves
# a goroutine running. -count 1 defeats the test cache so the check is
# live even right after `make race`.
leaktest:
	$(GO) test -race -count 1 ./internal/leakcheck ./internal/scanner ./internal/policycache ./internal/campaign ./internal/sf ./internal/obs ./internal/mta ./internal/smtpclient ./internal/experiments ./internal/scansvc

# Docs-vs-code gates that run fast enough to gate every check: CLI
# flags against README/docs (internal/docscheck), plus the linted
# catalogs (metric names, error codes) indirectly via `make lint` and
# the full test suite.
docs:
	$(GO) test ./internal/docscheck/ -count 1

reproduce:
	$(GO) run ./cmd/reproduce

# Seeded fault-injection smoke: scans healthy loopback deployments
# through ~10% DNS loss + SERVFAIL/REFUSED blips + connection resets and
# fails on any misclassification or same-seed nondeterminism
# (docs/ROBUSTNESS.md).
smoke-faults:
	$(GO) run ./cmd/reproduce -experiment robustness -fault-seed 7

# Seeded adversary smoke: mounts every registered attack on live
# loopback worlds and drives the full sender-behavior × policy-mode
# matrix through the real delivery stack, twice. Fails on any model
# mismatch, enforce-mode downgrade, unreported testing-mode violation,
# or same-seed divergence (docs/ADVERSARY.md).
smoke-adversary:
	$(GO) run ./cmd/reproduce -experiment sendertest -seed 7

# Campaign crash drill over a real on-disk store: run two weeks but
# stop mid-week-0 (exit 3 is the drill succeeding), resume to
# completion, then require status/diff to see the full campaign and the
# week-1 export to be byte-identical to a fresh uninterrupted run
# (docs/CAMPAIGN.md). Built first because `go run` would mask exit 3.
smoke-campaign:
	$(GO) build -o /tmp/mtasts-campaign-smoke ./cmd/mtasts-campaign
	rm -rf /tmp/mtasts-campaign-smoke-store /tmp/mtasts-campaign-smoke-ref
	/tmp/mtasts-campaign-smoke run -dir /tmp/mtasts-campaign-smoke-store -weeks 2 -scale 0.02 -shard-size 64 -stop-after-shards 3; \
		test $$? -eq 3 || { echo "smoke-campaign: expected exit 3 from the crash drill"; exit 1; }
	/tmp/mtasts-campaign-smoke resume -dir /tmp/mtasts-campaign-smoke-store -weeks 2 -scale 0.02 -shard-size 64
	/tmp/mtasts-campaign-smoke status -dir /tmp/mtasts-campaign-smoke-store | grep -q "2 weeks done" || { echo "smoke-campaign: status does not report 2 completed weeks"; exit 1; }
	/tmp/mtasts-campaign-smoke diff -dir /tmp/mtasts-campaign-smoke-store -old 0 -new 1 > /dev/null
	/tmp/mtasts-campaign-smoke run -dir /tmp/mtasts-campaign-smoke-ref -weeks 2 -scale 0.02 -shard-size 64
	/tmp/mtasts-campaign-smoke export -dir /tmp/mtasts-campaign-smoke-store -week 1 > /tmp/mtasts-campaign-smoke-store.jsonl
	/tmp/mtasts-campaign-smoke export -dir /tmp/mtasts-campaign-smoke-ref -week 1 > /tmp/mtasts-campaign-smoke-ref.jsonl
	cmp /tmp/mtasts-campaign-smoke-store.jsonl /tmp/mtasts-campaign-smoke-ref.jsonl
	@echo "smoke-campaign: crash-resume snapshot byte-identical"

# Sender crash-restart drill over the durable policy cache: a cold
# mtasts-send process fetches and delivers, the policy host is killed,
# and a second process must deliver warm — enforcing the on-disk policy
# with zero policy fetches (docs/SENDER.md). Builds the real binary.
smoke-send:
	$(GO) test ./cmd/mtasts-send -run '^TestSmokeSend$$' -count 1 -sendsmoke -v

# Service crash drill with the real mtasts-serve binary: submit a job
# over HTTP, scrape Prometheus /metrics off the live process, kill the
# service mid-job (-drill-stop-after-shards), restart on the same store,
# watch the job resume to done, ingest a TLSRPT report and fetch the
# joined results — then require the resumed job's result bytes to equal
# a fresh uninterrupted run's (docs/SERVICE.md).
smoke-serve:
	$(GO) test ./cmd/mtasts-serve -run '^TestSmokeServe$$' -count 1 -servesmoke -v

# Coverage-guided fuzzing smoke over the wire-format parsers (`go test
# -fuzz` accepts one target per invocation). The committed seed corpora
# under */testdata/fuzz/ also run as part of the plain test suite.
fuzz:
	$(GO) test ./internal/dnsmsg -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dnsmsg -run '^$$' -fuzz '^FuzzUnpack$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mtasts -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mtasts -run '^$$' -fuzz '^FuzzParseRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tlsrpt -run '^$$' -fuzz '^FuzzIngestReport$$' -fuzztime $(FUZZTIME)

# Scheduler benchmarks (flat pool vs staged pipeline) plus the
# BENCH_scan.json comparison the tentpole's >=2x acceptance bar reads
# (docs/PIPELINE.md), and the sender policy-cache delivery benchmarks
# emitting BENCH_cache.json (docs/SENDER.md).
bench:
	$(GO) test ./internal/scanner -run '^$$' -bench 'BenchmarkRunner(Flat|Pipelined)' -benchtime 1x -count 1
	$(GO) test ./internal/scanner -run '^TestBenchScanJSON$$' -count 1 -benchscan-out $(CURDIR)/BENCH_scan.json
	$(GO) test ./internal/policycache -run '^$$' -bench 'BenchmarkPolicyCacheDeliveries' -benchmem -count 1
	$(GO) test ./internal/policycache -run '^TestBenchCacheJSON$$' -count 1 -benchcache-out $(CURDIR)/BENCH_cache.json

# Every benchmark in the module, run once (-benchtime 1x, ~15s). The
# root-level and per-package benchmarks never run otherwise, so this is
# what keeps them from rotting: a benchmark that panics or calls
# b.Fatal fails the build.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The end-to-end benchmark (_perfbench, its own module over this one,
# see BENCHMARK.json) has self-tests of its workload templates and
# metrics. Running them here makes a store or API change that breaks
# the benchmark fail CI rather than the benchmark run (~12s).
perfbench-test:
	cd _perfbench && GOWORK=off GOFLAGS= $(GO) test ./...

# Bench regression bar: regenerate the benchmark JSONs into /tmp (the
# committed BENCH_*.json stay untouched) and fail if any row's
# throughput drops more than 20% below the committed baseline
# (cmd/benchguard). CI runs this on every push.
bench-check:
	$(GO) test ./internal/scanner -run '^TestBenchScanJSON$$' -count 1 -benchscan-out /tmp/mtasts-bench-scan.json
	$(GO) test ./internal/policycache -run '^TestBenchCacheJSON$$' -count 1 -benchcache-out /tmp/mtasts-bench-cache.json
	$(GO) run ./cmd/benchguard -baseline BENCH_scan.json -current /tmp/mtasts-bench-scan.json
	$(GO) run ./cmd/benchguard -baseline BENCH_cache.json -current /tmp/mtasts-bench-cache.json
