GO ?= go

.PHONY: build test verify verify-short bench bench-compare bench-json bench-scaling bench-spec bench-eco bench-portfolio serve serve-smoke serve-bench metrics-smoke fmt qa qa-metrics fuzz

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

# Stricter local gate: build + vet + full suite under the race detector.
verify:
	sh scripts/verify.sh

# Quick race pass (skips the dense benchmarks and randomized sweeps).
verify-short:
	sh scripts/verify.sh -short

bench:
	$(GO) run ./cmd/rdlbench -all -quick

# Repository benchmark (BENCHMARK.json), this checkout against another in
# alternated pairs, e.g. against the parent commit:
#   git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
#   make bench-compare BASE=../parent
# Each pair runs every workload once per side (30 s each); see
# perfbench/README.md for the verdicts it prints.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<checkout>"; exit 2; }
	python3 perfbench/compare.py --base $(BASE) --change . --seeds 1-10

# Machine-readable perf baseline for the full Table-I sweep; compare the
# committed BENCH_seed.json / BENCH_pr2.json per EXPERIMENTS.md.
BENCH_JSON ?= BENCH_pr2.json
bench-json:
	$(GO) run ./cmd/rdlbench -table1 -json $(BENCH_JSON)

# Worker-scaling sweep: every circuit at workers 1/2/4/8, with a
# determinism check per cell (fingerprint + metrics vs the workers=1
# run). Wall times only mean speedup on a multi-core machine; the
# determinism column must read "yes" everywhere regardless.
SCALING_JSON ?= BENCH_pr5.json
bench-scaling:
	$(GO) run ./cmd/rdlbench -scaling -scaling-workers 1,2,4,8 -json $(SCALING_JSON)

# Incremental ECO sweep: cold route each circuit once, then reroute
# single-net edits through the recorded search memo; each row carries a
# byte-identity check against a cold route of the edited design
# (identical must read "true" everywhere — see EXPERIMENTS.md).
# Speculative-scaling sweep: the worker-scaling table with the
# speculative stage-4 scheduler engaged (first cell stays the
# plain-sequential identity baseline). Each cell carries the same
# fingerprint + metrics identity check; "yes" everywhere is the
# byte-identity story, wall times are the speedup story.
SPEC_JSON ?= BENCH_pr9.json
bench-spec:
	$(GO) run ./cmd/rdlbench -scaling -speculative -scaling-workers 1,2,4,8 -json $(SPEC_JSON)

ECO_JSON ?= BENCH_pr8.json
bench-eco:
	$(GO) run ./cmd/rdlbench -eco -json $(ECO_JSON)

# Ordering-portfolio sweep: each circuit routed with the default
# single-policy flow and with the first 6 ordering-registry policies
# raced through stage 4, plus a winner-equals-solo byte-identity check
# per circuit ("Det" must read "yes" everywhere — see EXPERIMENTS.md).
PORTFOLIO_JSON ?= BENCH_pr10.json
bench-portfolio:
	$(GO) run ./cmd/rdlbench -portfolio -portfolio-k 6 -json $(PORTFOLIO_JSON)

# Boot the HTTP routing service on :8080 (SIGINT/SIGTERM drain gracefully).
serve:
	$(GO) run ./cmd/rdlserver -addr :8080 -workers 4 -queue 8

# CI smoke: boot on a random port, route dense1 over HTTP, assert DRC-clean.
serve-smoke:
	$(GO) run ./cmd/rdlserver -smoke

# Serving throughput (jobs/min) at 1/2/4 workers on dense1..dense3; the
# numbers feed the EXPERIMENTS.md serving-throughput note.
serve-bench:
	$(GO) run ./cmd/rdlserver -throughput 1,2,4 -circuits dense1,dense2,dense3 -jobs 4

# Metrics smoke: boot a server, route dense1, validate the /metrics
# exposition with the in-repo parser and dump it for eyeballing.
metrics-smoke:
	$(GO) run ./cmd/rdlserver -smoke -print-metrics

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)

# Randomized DRC-oracle harness: 200 seeded designs through both routers
# with the full oracle suite (see the QA harness section of EXPERIMENTS.md).
qa:
	$(GO) test ./internal/qa -count=1 -v

# Observability determinism gate: routing with the metrics bridge
# attached must be byte-identical to routing with no tracer.
qa-metrics:
	$(GO) test ./internal/qa -count=1 -v -run TestMetricsBridgeDeterminism

# 10s smoke of every native fuzz target; lengthen one with e.g.
#   go test ./internal/geom -fuzz FuzzOct8Ops -fuzztime 60s
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzDecodeDesign$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzDecodeOptions$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec -run '^$$' -fuzz '^FuzzDecodeDesignDelta$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/geom -run '^$$' -fuzz '^FuzzOct8Ops$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lp -run '^$$' -fuzz '^FuzzSimplex$$' -fuzztime $(FUZZTIME)
