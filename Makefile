# Tier-1 verification: everything CI runs on every change. `make` or
# `make tier1` must pass before merging.

GO ?= go

.PHONY: tier1 build vet vet-full fmt-check perfbench-check test race scvet lint witness fuzz-burst smoke-serve smoke-grid smoke-drain smoke-history smoke-tier smoke-mc chaos chaos-grid soak flake-hunt clean

tier1: build vet-full perfbench-check race witness smoke-serve smoke-grid smoke-drain smoke-history smoke-tier smoke-mc chaos fuzz-burst

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-full: the whole static-verification surface in one target — the
# toolchain's vet, gofmt, the repo's own scvet suite (SV001–SV007)
# self-applied, and Γ-membership linting of every registered protocol.
vet-full: vet fmt-check scvet lint

# fmt-check: fails, listing the files, when any Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt: unformatted files:"; echo "$$out"; exit 1; fi

# perfbench-check: the benchmark is a nested module, so `go build ./...`
# never compiles it; vet and test it so an API change that breaks the
# benchmark fails tier1.
perfbench-check:
	GOWORK=off $(GO) -C perfbench vet ./...
	GOWORK=off $(GO) -C perfbench test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# scvet: the repo's own soundness analyzers (map order in encodings,
# clone completeness, lock discipline, wire-flag hygiene, verdict
# transparency, atomic/plain mixing) applied to the repo itself. Fails
# with a rule-tagged summary line on any finding.
scvet:
	$(GO) run ./cmd/scvet ./...

# lint: Γ-membership linting of every registered protocol.
lint:
	$(GO) run ./cmd/sccheck lint -all

# witness: the golden counterexample explanations for the built-in non-SC
# protocols, plus the minimizer's 1-minimality/certification contract.
# Regenerate goldens with: go test ./internal/witness -run Golden -update
witness:
	$(GO) test -run='TestGoldenExplanations|TestMinimizedWitnessProperties' -count=1 ./internal/witness

# fuzz-burst: a short CI-budget run of each fuzz target; regressions in
# the corpus replay in normal `go test`, this additionally explores.
FUZZTIME ?= 5s

fuzz-burst:
	$(GO) test -run='^$$' -fuzz=FuzzCheckerAgainstOffline -fuzztime=$(FUZZTIME) ./internal/checker
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshal -fuzztime=$(FUZZTIME) ./internal/descriptor
	$(GO) test -run='^$$' -fuzz=FuzzTrackerAndDecode -fuzztime=$(FUZZTIME) ./internal/descriptor
	$(GO) test -run='^$$' -fuzz=FuzzDecoder -fuzztime=$(FUZZTIME) ./internal/descriptor
	$(GO) test -run='^$$' -fuzz=FuzzFrameParser -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzServerConn -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzResumeFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzRetryClient -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzTierVerdictFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzExploreFrame -fuzztime=$(FUZZTIME) ./internal/scserve
	$(GO) test -run='^$$' -fuzz=FuzzMinimizer -fuzztime=$(FUZZTIME) ./internal/witness
	$(GO) test -run='^$$' -fuzz=FuzzHistoryJSONL -fuzztime=$(FUZZTIME) ./internal/history
	$(GO) test -run='^$$' -fuzz=FuzzHistoryEDN -fuzztime=$(FUZZTIME) ./internal/history

# smoke-serve: race-enabled client↔server smoke of the scserve session
# service — 64 concurrent sessions with exact verdict positions, plus the
# graceful-shutdown drain guarantees.
smoke-serve:
	$(GO) test -race -run='TestServerConcurrentSessions|TestGracefulShutdown' -count=1 ./internal/scserve

# smoke-grid: race-enabled smoke of the scgrid dispatch fabric — three
# backends, a campaign of mixed sessions, one backend hard-killed
# mid-campaign. Every delivered verdict must equal the local checker's.
# Deterministic and <5s.
smoke-grid:
	$(GO) test -race -run='TestGridSmokeKillBackend' -count=1 ./internal/scgrid

# smoke-drain: race-enabled smoke of zero-downtime live operations — a
# registry campaign through a three-backend grid with one backend drained
# mid-campaign over clean links. Drain may redirect sessions but must
# never cost a verdict or surface as an error. Deterministic and <5s.
smoke-drain:
	$(GO) test -race -run='TestGridSmokeDrainBackend' -count=1 ./internal/sctest

# smoke-history: race-enabled smoke of the operation-history pipeline —
# a deterministic campaign of generated replicated-KV histories where
# every anomaly-free history must be accepted and every injected anomaly
# (stale read, read-your-writes, partition ⊥, phantom read) must be
# rejected with its expected constraint code, adjudicated in-process AND
# through a three-backend scgrid fabric; plus the history exit-code
# contract (0/1/2) across local, -server, and -grid modes.
smoke-history:
	$(GO) test -race -run='TestHistorySmokeCampaign|TestHistoryRemoteChecker' -count=1 ./internal/sctest
	$(GO) test -race -run='TestHistoryExitCodes' -count=1 ./cmd/sccheck

# smoke-tier: race-enabled smoke of the tiered-verdict surface — a tiered
# protocol campaign and a tiered history campaign through a three-backend
# scgrid fabric, every wire tier cross-checked against the identical local
# adjudication (one disagreement fails), storebuffer rejections required
# to land on the TSO tier and every injected anomaly on its kind's
# declared tier.
smoke-tier:
	$(GO) test -race -run='TestTierSmokeGrid' -count=1 ./internal/sctest

# smoke-mc: race-enabled smoke of the scmc distributed model-checking
# fabric — a 2-backend grid verification whose state count must equal the
# single-node checker's, a grid run on a buggy protocol that must report
# the violation, and a backend killed mid-exploration that must degrade
# to incomplete, never verified. Deterministic and <5s.
smoke-mc:
	$(GO) test -race -run='TestSmokeGrid$$|TestGridDetectsViolation|TestGridBackendDeathIsIncomplete' -count=1 ./internal/scmc

# chaos: the fault-tolerance acceptance test — the full protocol registry
# adjudicated through a fault-injected link (fragmented writes, short
# reads, latency spikes, forced connection cuts every ~20 KiB). Every
# verdict delivered through the chaos must equal the local checker's;
# faults may only degrade to errors, never to wrong answers. Deterministic
# and ~10s.
chaos:
	$(GO) test -run='TestChaosSoakRegistry' -count=1 ./internal/sctest

# chaos-grid: the multi-backend version of chaos — the registry campaign
# sharded across three fault-injected backends, one hard-killed and later
# restarted mid-campaign (asserting resumes, ejections, AND failovers
# occurred, with zero wrong verdicts), plus the rolling-restart soak that
# walks a drain → kill-while-draining → cold-restart cycle across the
# whole pool and demands an undrained full rejoin.
chaos-grid:
	$(GO) test -run='TestGridChaosSoakRegistry|TestGridRollingRestartSoak' -count=1 ./internal/sctest

# soak: the long randomized version of chaos (SOAK sets the duration).
SOAK ?= 2m

soak:
	SCSERVE_SOAK=$(SOAK) $(GO) test -run='TestChaosSoakRegistry' -count=1 -v -timeout=0 ./internal/sctest

# flake-hunt: the timing-sensitive suites, 50 runs each; not part of
# tier1. These tests race real goroutines, sockets and timers against
# each other — admission slots freed as verdicts are flushed, drain marks
# observed by probes, connections cut mid-frame, backends killed and
# restarted on the same port — so an ordering bug shows up as a rare
# failure rather than a steady one. Tier1 must stay green under it.
flake-hunt:
	$(GO) test -run='TestMultiTenantStorm|Drain' -count=50 ./internal/scserve ./internal/scgrid
	$(GO) test -race -run='TestServerConcurrentSessions|TestGracefulShutdown' -count=50 ./internal/scserve
	$(GO) test -race -run='TestGridSmokeKillBackend' -count=50 ./internal/scgrid
	$(GO) test -race -run='TestGridSmokeDrainBackend|TestHistorySmokeCampaign|TestHistoryRemoteChecker|TestTierSmokeGrid' -count=50 ./internal/sctest
	$(GO) test -race -run='TestHistoryExitCodes' -count=50 ./cmd/sccheck
	$(GO) test -race -run='TestSmokeGrid$$|TestGridDetectsViolation|TestGridBackendDeathIsIncomplete' -count=50 ./internal/scmc
	$(GO) test -run='TestChaosSoakRegistry' -count=50 ./internal/sctest

clean:
	$(GO) clean ./...
