GO ?= go

# The staticcheck release CI pins. Bump deliberately: a floating
# @latest made CI results depend on the day's release.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: check vet vet-custom vet-perfbench staticcheck build test lint audit bench bench-smoke clean

# check is the tier-1 gate CI runs: vet (standard and custom passes,
# plus the benchmark module), staticcheck, build, full test suite.
check: vet vet-custom vet-perfbench staticcheck build test

vet:
	$(GO) vet ./...

# vet-custom runs the module's own invariant passes (cmd/autogemm-vet):
# plan immutability, unsafe confinement, context-first signatures,
# goroutine confinement to the scheduler.
vet-custom:
	$(GO) run ./cmd/autogemm-vet

# vet-perfbench type-checks the benchmark module (_perfbench, its own
# go.mod replacing autogemm with this tree), which the root ./... does
# not reach: a change to an API the benchmark calls fails here instead
# of failing the benchmark run.
vet-perfbench:
	cd _perfbench && $(GO) vet ./...

# staticcheck runs when the binary is available; local environments
# without it skip with a notice. CI sets STATICCHECK_REQUIRED=1 so a
# missing binary fails the gate there instead of silently skipping.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$STATICCHECK_REQUIRED" ]; then \
		echo "staticcheck required but not installed (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

# The explicit -timeout turns a reintroduced scheduler hang into a fast
# failure instead of a stalled CI job.
test:
	$(GO) test -timeout 10m ./...

# lint sweeps every generatable kernel variant through the dataflow
# analyzer (internal/asm/analysis) and fails on any finding, then checks
# the analyzer still catches each injected defect class.
lint:
	$(GO) run ./cmd/autogemm-lint
	@for k in clobber use-before-def pressure rotation; do \
		if $(GO) run ./cmd/autogemm-lint -inject $$k >/dev/null; then \
			echo "analyzer missed injected $$k"; exit 1; \
		else echo "injected $$k: detected"; fi; \
	done

# audit deep-audits plans (internal/plan/audit) baked for every modeled
# chip — coverage, bounds composition, structure, and generation of
# every named kernel — then checks the auditor still rejects each
# injected plan corruption. Point it at a registry with
# `autogemm-lint -audit -plans <dir>` to vet baked plans instead.
audit:
	$(GO) run ./cmd/autogemm-lint -audit
	@for k in oob overlap gap fingerprint format kernelkey; do \
		if $(GO) run ./cmd/autogemm-lint -audit-inject $$k >/dev/null; then \
			echo "auditor missed injected $$k"; exit 1; \
		else echo "injected $$k: detected"; fi; \
	done

# bench measures the execution engine on the ResNet-50 shapes —
# interpreted vs compiled backend, plus batch throughput across
# scheduler worker counts — and writes BENCH_$(BENCH_TAG).json.
BENCH_TAG ?= local
BENCH_WORKERS ?= 1,2,4
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sim/compile/
	$(GO) run ./cmd/autogemm-bench -json -tag $(BENCH_TAG) -workers $(BENCH_WORKERS)

# bench-smoke is the fast CI variant: two layers, short measurements,
# with the fault drill (panic/error/cancel injection plus the tiered
# planner's failed-upgrade containment) run against the engine first.
# -assert-first-hit holds the tiered cold-serve budget: the run fails
# if any of the 20 ResNet-50 shapes takes over 500µs to first plan.
# The second step replays a real A64FX schedule in virtual time and
# asserts the paper's CMG figure: monotone in-group scaling and the
# efficiency collapse once workers span CMGs. The third replays a
# mixed-class ResNet-50 workload and asserts the QoS win: weighted
# claiming beats FIFO on latency-class p99 queue wait without
# degrading makespan more than 5%. The fourth saturates the real HTTP
# serving front door with concurrent mixed-class clients and asserts
# the serving bar: zero result corruption, the depth-bounded class
# actually shedding, and a live weight-only retune preserving the
# admission depth (the ConfigureClass regression, end to end).
bench-smoke:
	AUTOGEMM_FAULT=all $(GO) run ./cmd/autogemm-bench -json -tag smoke -layers L16,L20 -mintime 50ms -assert-first-hit 500
	@rm -f BENCH_smoke.json
	$(GO) run ./cmd/autogemm-bench -sim-scaling -sim-chips A64FX -assert-cmg-collapse >/dev/null
	$(GO) run ./cmd/autogemm-bench -sim-qos -assert-qos >/dev/null
	$(GO) run ./cmd/autogemm-bench -serve-load -serve-clients 24 -serve-workers 2 -serve-duration 1500ms -assert-serve >/dev/null

clean:
	$(GO) clean ./...
