# Tier-1 verification plus the resilience gates.
#
#   make check          fmt-check + build + vet + full test suite +
#                       bench-module + race hammers + chaos + crash +
#                       fuzz + bench-compare (the tier-1 gate: CI's test
#                       job with the race hammers in place of the
#                       whole-module -race, plus bench-compare)
#   make ci             exactly what .github/workflows/ci.yml runs per
#                       matrix leg: fmt-check + build + vet + tests +
#                       bench-module + -race + chaos + crash + a 2s
#                       smoke run of every fuzz target
#   make fmt-check      fail if any file needs gofmt
#   make bench-module   vet + build benchmark/, a module of its own that
#                       imports internal/... — root ./... does not
#                       reach it, so an internal API change can break
#                       it unnoticed
#   make race           vet + race-detector run over the whole module
#   make race-hammer    race-detector over the concurrency-hammer
#                       packages only (uncertain, roadnet, index,
#                       uquery — DistStore's executor tasks over the
#                       grid — obs, plus the pooled-scratch hammers in
#                       core (outlier flags, concurrent pipelines) and
#                       trajectory (dedup pools), the
#                       buffer-ownership hammers in server/session/stream
#                       — every server route that takes the one pooled
#                       request scratch (body, parsed points, events,
#                       rows, JSON), /v1/clean streaming through the
#                       runner's pooled point buffers, and history
#                       queries reading records into the store's pooled
#                       buffer beside ingest, among them — server's
#                       request-deadline hammer over kept-alive
#                       connections, and the two deadline tests that cut
#                       a /v1/clean in its collecting round, 20 times
#                       each: a cut run must leave its scratch unpooled)
#   make chaos          the chaos-injection harness under -race (runner,
#                       fault injectors, hardened server, session and
#                       stream engines + streaming-session scenarios)
#   make crash          crash-recovery gate under -race: the WAL
#                       truncation/bit-flip/crash-image sweeps, the
#                       fault-injected durability wiring, the
#                       kill-mid-chunk byte-identity scenarios, and
#                       sidqstore verify's exit status
#   make fuzz           the native fuzz targets over the on-disk decoders
#                       (store segment scanner and manifest, session
#                       chunk and snapshot records), the id,t,x,y wire
#                       codec (scanner and row appender against
#                       encoding/csv, and its float fast paths against
#                       strconv) and the reduce codecs' decoders
#                       (delta-varint, Rice, network trip), the
#                       Kalman/RTS kernels against
#                       their dense reference, the snapper's candidate
#                       search against its sort reference, the
#                       selection median against sort+quantile and the
#                       server's query reader against url.ParseQuery,
#                       each from its seeds for FUZZTIME; plain
#                       `go test` already replays the seeds, this
#                       explores past them
#   make bench          compile-and-run the benchmark suite briefly
#   make bench-json     run the benchmarks for real (best-of-BENCHCOUNT
#                       per row) and write a dated BENCH_<date>.json
#                       baseline (ns/op, B/op, allocs/op)
#   make bench-compare  rerun the gated E1/E2 experiment benchmarks
#                       plus the matcher's rows (SnapDists over the
#                       serving benchmark's city, cold cache and warm,
#                       KNearest over the same city, and
#                       OnlineMapMatch) and the clean path's
#                       KalmanSmooth and Pipeline rows, write the fresh
#                       rows to bench-fresh.json (NOT BENCH_*.json —
#                       that glob is the committed
#                       baseline set), and diff against the latest
#                       committed BENCH_*.json; fails on a >20% ns/op
#                       or allocs/op regression (BENCHCOMPARE_ARGS
#                       passes extra flags, e.g. -advisory in CI)
#   make load-check     the SLO gate: spawn sidqserve, replay the
#                       deterministic CI load profile with sidqload,
#                       snapshot pprof at peak, and diff the fresh SLO
#                       document against the committed SLO_*.json
#                       baseline with slocompare; fails on a blocking
#                       latency/error/shed/drain regression
#   make load-json      run the CI load profile and write a dated
#                       SLO_<date>.json baseline (commit it to move
#                       the gate)

GO ?= go
BENCHTIME ?= 2x
BENCHCOUNT ?= 3
BENCHCOMPARE_ARGS ?=
SLOCOMPARE_ARGS ?=
FUZZTIME ?= 5s

.PHONY: check ci fmt-check vet test bench-module race race-hammer chaos crash fuzz bench bench-json bench-compare load-check load-json

check: fmt-check vet test bench-module race-hammer chaos crash fuzz bench-compare

ci: fmt-check vet test bench-module race chaos crash
	$(MAKE) fuzz FUZZTIME=2s

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) build ./... && $(GO) test ./...

bench-module:
	cd benchmark && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) build -o /dev/null .

race:
	$(GO) vet ./...
	$(GO) test -race ./...

# The packages whose tests hammer shared state from many goroutines —
# the ones -race exists for. Cheap enough to ride in every `make check`.
race-hammer:
	$(GO) test -race -count=1 ./internal/uncertain ./internal/roadnet ./internal/index ./internal/uquery ./internal/obs
	$(GO) test -race -count=1 -run 'Hammer' ./internal/core ./internal/trajectory ./internal/server ./internal/session ./internal/stream
	$(GO) test -race -count=20 -run '^TestCleanDeadline(InCollectingRound|KeepsParsedPoints)$$' ./internal/server

chaos:
	$(GO) test -race -count=1 ./internal/chaos ./internal/core ./internal/server ./internal/session ./internal/stream

# Crash recovery must hold under the race detector too: the group
# commit, the replay path, and the snapshot writer all touch shared
# session state.
crash:
	$(GO) test -race -count=1 ./internal/store ./cmd/sidqstore
	$(GO) test -race -count=1 -run 'TestDurable|TestHistory|TestChaosStore' ./internal/session ./internal/chaos

# go test -fuzz takes one target in one package per run. A crasher is
# written under that package's testdata/fuzz/ and fails every later
# `go test` until it is fixed — commit it with the fix.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzScanSegment$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzLoadManifest$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeChunk2$$' -fuzztime $(FUZZTIME) ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime $(FUZZTIME) ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzScanCSV$$' -fuzztime $(FUZZTIME) ./internal/trajectory
	$(GO) test -run '^$$' -fuzz '^FuzzAppendCSVRow$$' -fuzztime $(FUZZTIME) ./internal/trajectory
	$(GO) test -run '^$$' -fuzz '^FuzzWireFloat$$' -fuzztime $(FUZZTIME) ./internal/trajectory
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaVarintDecode$$' -fuzztime $(FUZZTIME) ./internal/reduce
	$(GO) test -run '^$$' -fuzz '^FuzzRiceDecode$$' -fuzztime $(FUZZTIME) ./internal/reduce
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNetworkTrip$$' -fuzztime $(FUZZTIME) ./internal/reduce
	$(GO) test -run '^$$' -fuzz '^FuzzKalmanSmoothMatchesDense$$' -fuzztime $(FUZZTIME) ./internal/refine
	$(GO) test -run '^$$' -fuzz '^FuzzKNearestMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/roadnet
	$(GO) test -run '^$$' -fuzz '^FuzzMedianMatchesSort$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzQueryValue$$' -fuzztime $(FUZZTIME) ./internal/server

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Best-of-N baseline: -count $(BENCHCOUNT) repeats each benchmark and
# benchjson -fold keeps the minimum per metric, so the committed
# baseline records the machine's floor, not one noisy sample.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./... \
		| $(GO) run ./cmd/benchjson -fold > BENCH_$$(date +%F).json
	@echo wrote BENCH_$$(date +%F).json

# Best-of-N: benchcompare folds the -count repeats to their minimum,
# so scheduler noise can't fail the gate (a real regression moves the
# floor, noise only moves the ceiling). The matcher's rows and the
# clean path's two (KalmanSmooth, Pipeline) are 0.05-11 ms
# an op: two iterations of those time the box's mood, not the code, so
# they run for 1s each — the benchtime their baseline rows were taken at
# (see the note in the BENCH_*.json header), so it is not a variable.
bench-compare:
	( $(GO) test -run '^$$' -bench 'BenchmarkE[12]_' -benchmem -benchtime $(BENCHTIME) -count 3 . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkSnapDists/city|BenchmarkOnlineMapMatch|^BenchmarkKNearest$$|^BenchmarkKalmanSmooth$$|^BenchmarkPipeline$$' -benchmem -benchtime 1s -count 3 . ) \
		| $(GO) run ./cmd/benchjson \
		| tee bench-fresh.json \
		| $(GO) run ./cmd/benchcompare $(BENCHCOMPARE_ARGS)

# The SLO gate. sidqload spawns the freshly-built sidqserve on a free
# port with a temp durable data dir, replays the fixed-seed CI profile
# for 30s, verifies graceful SIGTERM drain, and writes slo-fresh.json
# (NOT SLO_*.json — that glob is the committed baseline set);
# slocompare then diffs it against the latest committed SLO_*.json.
# SIDQ_TEST_DELAY=50ms make load-check demonstrates the gate catching
# an injected latency regression.
load-check:
	$(GO) build -o bin/sidqserve ./cmd/sidqserve
	$(GO) run ./cmd/sidqload -spawn bin/sidqserve -profile ci \
		-pprof-dir pprof-load -out slo-fresh.json
	$(GO) run ./cmd/slocompare -fresh slo-fresh.json $(SLOCOMPARE_ARGS)

# Regenerate the committed baseline (same profile as load-check).
load-json:
	$(GO) build -o bin/sidqserve ./cmd/sidqserve
	$(GO) run ./cmd/sidqload -spawn bin/sidqserve -profile ci \
		-out SLO_$$(date +%F).json
	@echo wrote SLO_$$(date +%F).json
