# FaultHound reproduction — convenience targets. Everything is
# stdlib-only Go; no external dependencies.

GO ?= go

.PHONY: all build test vet lint race bench report gates campaign serve smoke-server smoke-cluster smoke-wgen smoke-optimize trace-demo experiments extensions quick clean

all: lint test build

build:
	$(GO) build ./...

# bench/ is its own module (faulthound/bench) importing internal/...;
# the root ./... pattern neither builds nor tests it.
test:
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

vet:
	$(GO) vet ./...
	gofmt -l .

# Static analysis: vet and gofmt always; staticcheck when installed
# (CI installs it — see .github/workflows/ci.yml — so the full set
# gates every merge even if a local checkout lacks the binary).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipped (CI runs it)"; \
	fi

race:
	$(GO) test -race ./internal/prog/ ./internal/workload/ ./internal/wgen/ ./internal/system/ \
		./internal/pipeline/ ./internal/mem/ ./internal/campaign/ ./internal/fault/ \
		./internal/obs/... ./internal/server/... ./internal/cluster/ \
		./internal/contract/ ./internal/report/ ./internal/search/
	$(GO) test -race -run TestFig9And10Quick ./internal/harness/

# Regenerate the reference bundle's detector-quality report sidecar
# (docs/CONTRACTS.md). The bundle's own artifacts are never touched;
# `git diff` afterwards must be clean or the report has drifted.
report:
	$(GO) run ./cmd/fhreport bundle results/campaigns/reference-1k

# The CI release gates, runnable locally: contract validation over
# every committed artifact; the committed journal must yield the
# committed quality report; the drift gate — reference-1k re-simulated
# from its bare manifest must reproduce results.csv, summary.json and
# the quality report byte for byte, and diff clean against the
# committed bundle; the one-worker order — the same re-simulation at
# -workers 1 must reproduce the committed journal.jsonl too, which pins
# that one worker runs the plan cell by cell, and it audits every early
# exit against full-window simulation (-audit 1): its acceleration line
# must show one audit per early exit and no violation, so the gate
# proves the audit ran rather than trusting a clean exit; a validator
# self-test —
# a summary with a renamed required field must fail validation
# (docs/CONTRACTS.md); and the paper gate — every committed table,
# results_mp.txt included, regenerated at the experiments' scale, must
# match byte for byte.
gates:
	$(GO) run ./cmd/fhreport validate results/campaigns/reference-1k \
		internal/server/testdata/spechash_golden.json \
		internal/server/testdata/wspec_golden.json \
		internal/search/testdata/golden \
		internal/search/testdata/golden/pareto.csv
	$(GO) run ./cmd/fhreport bundle -out /tmp/fh-gate-regen results/campaigns/reference-1k
	cmp /tmp/fh-gate-regen/quality.json results/campaigns/reference-1k/report/quality.json
	cmp /tmp/fh-gate-regen/quality.md results/campaigns/reference-1k/report/quality.md
	rm -rf /tmp/fh-gate-repro && mkdir -p /tmp/fh-gate-repro
	cp results/campaigns/reference-1k/manifest.json /tmp/fh-gate-repro/
	$(GO) run ./cmd/fhcampaign -resume /tmp/fh-gate-repro -workers 2 >/tmp/fh-gate-repro.log 2>&1 || \
		{ cat /tmp/fh-gate-repro.log; exit 1; }
	cmp /tmp/fh-gate-repro/results.csv results/campaigns/reference-1k/results.csv
	cmp /tmp/fh-gate-repro/summary.json results/campaigns/reference-1k/summary.json
	$(GO) run ./cmd/fhreport bundle /tmp/fh-gate-repro
	cmp /tmp/fh-gate-repro/report/quality.json results/campaigns/reference-1k/report/quality.json
	cmp /tmp/fh-gate-repro/report/quality.md results/campaigns/reference-1k/report/quality.md
	$(GO) run ./cmd/fhreport diff results/campaigns/reference-1k /tmp/fh-gate-repro
	rm -rf /tmp/fh-gate-w1 && mkdir -p /tmp/fh-gate-w1
	cp results/campaigns/reference-1k/manifest.json /tmp/fh-gate-w1/
	$(GO) run ./cmd/fhcampaign -resume /tmp/fh-gate-w1 -workers 1 -audit 1 >/tmp/fh-gate-w1.log 2>&1 || \
		{ cat /tmp/fh-gate-w1.log; exit 1; }
	cmp /tmp/fh-gate-w1/journal.jsonl results/campaigns/reference-1k/journal.jsonl
	cmp /tmp/fh-gate-w1/results.csv results/campaigns/reference-1k/results.csv
	cmp /tmp/fh-gate-w1/summary.json results/campaigns/reference-1k/summary.json
	@line=$$(grep '^acceleration:' /tmp/fh-gate-w1.log); echo "gates: $$line"; \
	exits=$$(echo "$$line" | sed -n 's/.* early_exits=\([0-9]*\) .*/\1/p'); \
	audits=$$(echo "$$line" | sed -n 's/.* audits=\([0-9]*\) .*/\1/p'); \
	if [ -z "$$exits" ] || [ "$$exits" -eq 0 ] || [ "$$audits" != "$$exits" ] || \
		! echo "$$line" | grep -q ' audit_violations=0$$'; then \
		echo "gates: the one-worker run did not audit every early exit cleanly"; exit 1; \
	fi
	rm -rf /tmp/fh-gate-break && mkdir -p /tmp/fh-gate-break
	cp results/campaigns/reference-1k/manifest.json results/campaigns/reference-1k/results.csv /tmp/fh-gate-break/
	sed 's/"run_id"/"runid"/' results/campaigns/reference-1k/summary.json > /tmp/fh-gate-break/summary.json
	@if $(GO) run ./cmd/fhreport validate /tmp/fh-gate-break >/dev/null 2>&1; then \
		echo "gates: injected schema break passed validation"; exit 1; \
	fi
	@echo "gates: injected schema break rejected"
	rm -rf /tmp/fh-gate-paper && mkdir -p /tmp/fh-gate-paper
	$(GO) run ./cmd/faulthound $(PAPER_FLAGS) -csv /tmp/fh-gate-paper -json /tmp/fh-gate-paper >/tmp/fh-gate-paper/results_all.txt
	$(GO) run ./cmd/faulthound $(EXT_FLAGS) -csv /tmp/fh-gate-paper >/tmp/fh-gate-paper/results_ext.txt
	$(GO) run ./cmd/faulthound $(MP_SCALING_FLAGS) >/tmp/fh-gate-paper/results_mp.txt
	$(GO) run ./cmd/faulthound $(MP_COVERAGE_FLAGS) >>/tmp/fh-gate-paper/results_mp.txt
	cmp /tmp/fh-gate-paper/results_all.txt results_all.txt
	cmp /tmp/fh-gate-paper/results_ext.txt results_ext.txt
	cmp /tmp/fh-gate-paper/results_mp.txt results_mp.txt
	for f in results/*.csv results/*.json; do cmp /tmp/fh-gate-paper/$${f#results/} $$f || exit 1; done

# Parallel, resumable fault-injection campaign with an artifact bundle.
campaign:
	$(GO) run ./cmd/fhcampaign -bench all -schemes faulthound -injections 600

# Campaign-serving daemon (docs/SERVER.md). Submit with
# `fhcampaign -addr localhost:8418` or plain curl.
serve:
	$(GO) run ./cmd/fhserved -addr :8418 -data results/server -v

# Scripted daemon round trip: start fhserved on a scratch root, submit
# a small campaign over HTTP, verify the bundle, drain cleanly.
smoke-server:
	./scripts/smoke_server.sh

# Cluster fabric round trip (docs/CLUSTER.md): coordinator + two
# workers, a sharded campaign, one worker SIGKILLed mid-run, and a
# byte-identical-merge check against a single-node golden.
smoke-cluster:
	./scripts/smoke_cluster.sh

# Generated-workload round trip (docs/GENERATED-WORKLOADS.md): record
# a gen stream, replay it, require identical stream hashes, and check
# a sweep campaign is bit-identical across -workers settings.
smoke-wgen:
	./scripts/smoke_wgen.sh

# Pareto-search round trip (docs/OPTIMIZE.md): a seeded local
# fhcampaign -optimize byte-identical across -workers settings,
# contract-validated artifacts, and the same search as a daemon job
# (fhcampaign -optimize -addr) whose pareto.csv matches the local run
# and whose repeat is a cache hit.
smoke-optimize:
	./scripts/smoke_optimize.sh

# Perfetto trace of a short simulation — load results/trace-demo.json
# in ui.perfetto.dev (docs/OBSERVABILITY.md).
trace-demo:
	mkdir -p results
	$(GO) run ./cmd/fhsim -bench bzip2 -scheme faulthound -trace results/trace-demo.json -trace-cycles 3000

# One iteration of every Go microbenchmark in the module: the
# paper-figure benches and the ablations at the root, and the
# profiling entry points in internal/ (pipeline, fault, tcam, ...). CI
# runs it so none of them breaks unnoticed; the ablations' printed
# rates double as a detector check.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...

# The scale of the committed tables (EXPERIMENTS.md). experiments,
# extensions and the paper gate all read these, so they cannot drift.
PAPER_FLAGS = -experiment all -commits 60000 -injections 600
EXT_FLAGS = -experiment extensions -commits 30000 -injections 400
MP_SCALING_FLAGS = -experiment mp-scaling -commits 30000
MP_COVERAGE_FLAGS = -experiment mp-coverage -commits 30000 -injections 400

# Full-scale regeneration of every table and figure (about 45 s on a
# 2-core machine). Output goes to the file first and is printed after,
# so a failed run fails the target instead of hiding behind a pipe.
experiments:
	$(GO) run ./cmd/faulthound $(PAPER_FLAGS) -csv results -json results >results_all.txt
	@cat results_all.txt

extensions:
	$(GO) run ./cmd/faulthound $(EXT_FLAGS) -csv results >results_ext.txt
	$(GO) run ./cmd/faulthound $(MP_SCALING_FLAGS) >results_mp.txt
	$(GO) run ./cmd/faulthound $(MP_COVERAGE_FLAGS) >>results_mp.txt
	@cat results_ext.txt results_mp.txt

# Smoke-scale versions of the experiments (a couple of minutes).
quick:
	$(GO) run ./cmd/faulthound -experiment all -quick

# Generated, untracked output only. results/ and results_*.txt are
# committed (make experiments and make extensions regenerate them, and
# make gates re-simulates results/campaigns/reference-1k).
clean:
	rm -rf .bench_build test_output.txt bench_output.txt results/trace-demo.json results/server
