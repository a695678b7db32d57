GO ?= go

.PHONY: build vet test race bench bench-diff bench-check campaign-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Runs the hot-path benchmarks and writes BENCH_obs.json,
# BENCH_resilience.json, BENCH_recovery.json, and BENCH_net.json — the
# last one carries the hedged vs unhedged tail-latency baseline (see
# scripts/bench.sh; BENCHTIME=100x makes a quick local pass).
bench:
	./scripts/bench.sh

# Runs the benchmarks into .bench-new/ and gates the transport results
# against the committed BENCH_net.json — what the CI bench job applies.
# The tolerance is loose enough for a shared runner (a metric fails at
# more than 2x its baseline) and tight enough that losing the wire
# path's >= 3x does.
bench-diff:
	mkdir -p .bench-new
	./scripts/bench.sh .bench-new/BENCH_obs.json .bench-new/BENCH_resilience.json \
		.bench-new/BENCH_recovery.json .bench-new/BENCH_net.json
	$(GO) run ./cmd/campaign bench-diff -tolerance 1.0 BENCH_net.json .bench-new/BENCH_net.json

# bench/ is a module of its own (it imports the root facade through a
# replace directive), so build/vet/test above never see it. This vets
# and tests it against the working tree, so a facade or obs change that
# breaks the benchmark fails here and not first in the benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Replays the committed campaign baseline, re-runs the deterministic
# smoke sweep, and diffs the two — the same gate the campaign-regression
# CI job applies. Fails (nonzero exit) on replay divergence or a metric
# regression beyond the noise bounds.
campaign-smoke:
	$(GO) run ./cmd/campaign replay -store baselines/campaigns -quiet \
		$$(cat baselines/campaigns/BASELINE)
	$(GO) run ./cmd/campaign run -store .ci-campaigns -quiet \
		-spec scripts/campaign_smoke.json -out campaign_smoke_run.json
	$(GO) run ./cmd/campaign diff -store baselines/campaigns \
		$$(cat baselines/campaigns/BASELINE) campaign_smoke_run.json
