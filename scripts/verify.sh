#!/bin/sh
# Full verification: build everything, vet, then the whole test suite
# under the race detector (the obs sinks advertise concurrency safety;
# -race holds them to it). Tier-1 CI is `go build ./... && go test ./...`;
# this script is the stricter local gate. Pass extra go-test flags through,
# e.g. `scripts/verify.sh -short`.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...
echo "== go vet ./... =="
go vet ./...
echo "== regression gate (lattice/router/geom) =="
# Fast fail on the targeted regression tests before the full sweep: the
# rip-up lattice threading, the int32 state-space bound, edge claims
# against the reference distance test, goal-side refutation against the
# reference A*, the Oct8.Center containment property, the T-junction
# connectivity union and the cancellation fingerprint gate.
go test -race -run \
  'TestRipUpLatticeMatchesLayout|TestNewRejectsStateSpaceBeyondInt32|TestStateSpaceNoOverflow|TestFingerprintCommitOrderIndependent|TestEdgeClaimsMatchReference|TestRouteMatchesReference|TestCenterContainedProperty|TestCenterDegenerate|TestConnectedTJunction|TestCancelLeavesNoCorruption' \
  ./internal/lattice/ ./internal/router/ ./internal/geom/ ./internal/layout/
echo "== lattice microbenchmarks: one iteration each =="
# Keeps BenchmarkNew (pad claims), BenchmarkCommit (wire and via claims)
# and BenchmarkRoute (a refuted and a successful search) compiling and
# running; time them with -benchmem and the default -benchtime when
# comparing two checkouts.
go test -run '^$' -bench . -benchtime 1x ./internal/lattice
echo "== golden quality gate: dense1..5 =="
# Routed nets, wirelength, lattice fingerprint, tile count, stage split
# and total A* effort of every Table-I circuit against
# internal/router/testdata/golden. Tier-1 checks dense1..3; dense4..5
# (about a minute without the race detector) only run here.
go test -count=1 -run 'TestGoldenDense' ./internal/router/ -golden-full
echo "== serving gate: codec + metrics + serve semantics (-race) =="
# Queue saturation → 429, per-job deadlines, graceful drain, concurrent
# determinism, bounded job retention (evicted jobs answer 404 and free
# their idempotency keys), the 413 request-body limit, codec round-trips,
# and the metrics registry's concurrent increment/scrape contract — the
# serving subsystem's contract.
go test -race ./internal/codec/ ./internal/metrics/ ./internal/serve/
echo "== rdlserver smoke: route dense1 over HTTP, DRC-check, scrape /metrics =="
# The smoke self-test also scrapes /metrics, parses the exposition with
# the in-repo parser (failing on malformed or empty output, or missing
# families), fetches the job's flight record, and checks the flight list
# (configured capacity, all four jobs newest-first) and an idle /healthz.
go run ./cmd/rdlserver -smoke
echo "== file pipeline: rdlgen -> rdlroute (both flows) -> rdlverify =="
# Every file the CLIs exchange is an rdl-*/v1 document: rdlgen writes the
# design, rdlroute -o saves each flow's result, and rdlverify decodes both
# through the validating codec and re-runs the design-rule checker. Each
# command must exit 0.
pipe=$(mktemp -d)
trap 'rm -rf "$pipe"' EXIT
go build -o "$pipe/" ./cmd/rdlgen ./cmd/rdlroute ./cmd/rdlverify
(
  cd "$pipe"
  ./rdlgen -name dense1 -o d.json
  ./rdlroute -design d.json -o ours.json -check
  ./rdlroute -design d.json -flow linext -o linext.json -check
  ./rdlverify -design d.json -routes ours.json
  ./rdlverify -design d.json -routes linext.json
)
echo "== determinism matrix: workers 1/2/8 at GOMAXPROCS=2 (-race) =="
# The parallel-stage contract: lattice fingerprint, metrics and encoded
# rdl-result/v1 bytes identical at every worker count. GOMAXPROCS=2
# forces real goroutine interleaving even on one core; -race holds the
# index-ownership discipline to account. The dense set is capped under
# the detector (see denseMatrixNames); the full-size matrix runs in the
# race-free qa sweep below via the same tests.
GOMAXPROCS=2 go test -race -count=1 -run \
  'TestWorkerDeterminism|TestRegressionParallelBatchBoundary|TestCancelMidParallelStage|TestConcurrentEmit' \
  ./internal/qa/ ./internal/router/ ./internal/obs/ ./internal/par/
echo "== portfolio gate: ordering race == solo winner at GOMAXPROCS=2 (-race) =="
# The ordering-portfolio contract: racing K policies is byte-identical to
# a solo run of the winning policy at every worker count, every policy
# orders the queue as a worker-invariant permutation keyed on net
# geometry and ID, and the pinned seeds keep exercising a genuine
# routability win (seed 5) and a wirelength-only tie-break (seed 11).
# Race-capped subset; the dense portfolio matrix runs race-free in the
# qa sweep below.
GOMAXPROCS=2 go test -race -count=1 -run \
  'TestPortfolioDeterminismRandom|TestRegressionPortfolio|TestPortfolioMonotonicitySolo|TestPolicies|TestCongestedTieBreakPinned|TestCancelMidPortfolio' \
  ./internal/qa/ ./internal/router/
echo "== eco gate: random deltas apply and route clean (-race) =="
# The delta contract: for seeded random designs and random deltas, the
# edited design eco.Apply produces validates and routes with every
# result oracle passing at workers 1 and 2, with identical fingerprints
# and rdl-result/v1 bytes. Race-capped sweep; the full-size sweep runs
# race-free in the qa harness below.
go test -race -count=1 -run 'TestECODeltaSweep' ./internal/qa/
echo "== qa harness: randomized DRC-oracle sweep =="
# 200 seeded random designs through both routers, full oracle suite
# (DRC, connectivity, codec round-trip, cancellation, differential and
# metamorphic gates). Race-free here so the sweep runs at full size; the
# final -race pass below reruns a capped sweep under the detector.
go test ./internal/qa -count=1 "$@"
echo "== fuzz smoke: 10s per native fuzz target =="
go test ./internal/codec -run '^$' -fuzz '^FuzzDecodeDesign$' -fuzztime 10s
go test ./internal/codec -run '^$' -fuzz '^FuzzDecodeOptions$' -fuzztime 10s
go test ./internal/codec -run '^$' -fuzz '^FuzzDecodeDesignDelta$' -fuzztime 10s
go test ./internal/geom -run '^$' -fuzz '^FuzzOct8Ops$' -fuzztime 10s
go test ./internal/lp -run '^$' -fuzz '^FuzzSimplex$' -fuzztime 10s
echo "== go test -race $* ./... =="
go test -race "$@" ./...
echo "== verify OK =="
