# Developer entry points; CI runs `make check`.

GO ?= go

.PHONY: build vet fmt-check test race check lint apicheck orphans examples conform conform-smoke bench bench-tables benchcheck bench-baseline clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build vet fmt-check lint race apicheck orphans

# Repository-specific static analysis (internal/lint via cmd/simlint):
# determinism (no wall clock / global rand / goroutines / order-sensitive
# map ranges in sim packages), poolsafety (packet/event ownership
# lifecycle), hotpathalloc (no closure timers, boxing, or unpreallocated
# appends in per-packet paths), exhaustive (switches over closed enums
# cover every member or terminate in default), ctxflow (library code
# threads the caller's context; no context.Background outside main/tests),
# unitsafety (no raw conversions in or out of sim.Time outside the sim
# package's audited helpers), errwrap (%w wrapping, errors.Is for
# sentinels, *Error-classified facade returns). Run a subset with
# `go run ./cmd/simlint -run <analyzer,...> ./...`. Suppressions:
# //simlint:ignore <analyzer> <reason>; unused or reason-less suppressions
# are themselves findings.
lint:
	$(GO) run ./cmd/simlint ./...

# API-surface lock: regenerate api.txt (the exported declarations of the
# root package, via cmd/apilock) and fail on drift from the committed
# version, so public-API changes are deliberate and reviewed.
apicheck:
	$(GO) run ./cmd/apilock -o api.txt
	@if ! git diff --quiet -- api.txt; then \
		echo "api.txt drifted — the public API changed; review and commit the regenerated file:"; \
		git --no-pager diff -- api.txt; exit 1; \
	fi

# Orphan-package gate: every package under internal/ must be imported by
# another package of the module (test imports count), so dead code cannot
# linger as a package nothing uses. Lines from the first `go list` are the
# imports of each package minus self-imports; PKG lines name the packages.
orphans:
	@{ $(GO) list -f '{{$$p := .ImportPath}}{{range .Imports}}{{if ne . $$p}}{{println .}}{{end}}{{end}}{{range .TestImports}}{{if ne . $$p}}{{println .}}{{end}}{{end}}{{range .XTestImports}}{{if ne . $$p}}{{println .}}{{end}}{{end}}' ./... && \
	  $(GO) list -f 'PKG {{.ImportPath}}' ./internal/...; } | \
	awk '/^PKG /{pkg[$$2] = 1; n++; next} {imported[$$0] = 1} \
	  END {if (!n) {print "orphans: go list named no packages"; exit 1} \
	    for (p in pkg) if (!(p in imported)) {print "orphan package, imported by nothing: " p; bad = 1}; exit bad}'

# Build every example and smoke-run each at reduced scale, plus the Figs. 7/8
# window-series CSV export.
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart -seconds 5 > /dev/null
	$(GO) run ./examples/scenario_a -seconds 5 > /dev/null
	$(GO) run ./examples/wireless_handover > /dev/null
	$(GO) run ./examples/datacenter -seconds 1 > /dev/null
	$(GO) run ./cmd/mptcpsim -run fig7,fig8 -format csv -duration 5 -seeds 1 > /dev/null

# Scenario fuzzer + cross-model conformance suite: 200 generated scenarios
# under the full invariant set, then packet-vs-fluid/fixed-point goodput
# agreement on 3- and 4-path topologies. Exits non-zero on any failure.
conform:
	$(GO) run ./cmd/mptcpsim conform

conform-smoke:
	$(GO) run ./cmd/mptcpsim conform -smoke

# Kernel micro-benchmarks (event queue, pipe transit, queue service idle and
# under a standing backlog) with
# allocation stats, recorded machine-readably in BENCH_kernel.json.
KERNEL_BENCH = ^Benchmark(EventChurn|PipeTransit|DropTailService|DropTailBacklog|REDService|SimulateTwoPath)$$

bench:
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem . | tee bench_kernel.txt
	$(GO) run ./cmd/benchjson < bench_kernel.txt > BENCH_kernel.json
	@echo wrote BENCH_kernel.json

# Regenerate the paper's tables (quick scale) while timing each experiment.
bench-tables:
	$(GO) test -bench=. -benchtime 1x . | tee bench_output.txt

# Performance-regression gate: rerun the kernel benchmarks and diff against
# the committed baseline (testdata/bench_baseline.json). Fails on >15%
# ns/op drift or any allocs/op growth (cmd/benchdiff). Benchmarks are
# noisy on shared machines, so CI runs this as a non-blocking signal.
# Drift tolerance (percent) for the ns/op gate; allocs/op growth is always
# fatal. CI raises this (shared runners are noisy) — the gate still blocks.
BENCH_TOLERANCE ?= 15

benchcheck: bench
	$(GO) run ./cmd/benchdiff -tolerance $(BENCH_TOLERANCE) testdata/bench_baseline.json BENCH_kernel.json

# Refresh the regression baseline after a deliberate performance change;
# review and commit the updated file.
bench-baseline: bench
	cp BENCH_kernel.json testdata/bench_baseline.json
	@echo updated testdata/bench_baseline.json

clean:
	rm -f mptcpsim bench_output.txt bench_kernel.txt coverage.*
