# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-fetch loc cover figures paperscale fuzz fmt-check vulncheck verify clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Known-vulnerability scan. Best effort: govulncheck is an external tool
# and needs network access for its database, so its absence (or an
# offline environment) warns instead of failing the gate.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "warning: govulncheck failed (offline vulndb?); continuing"; \
	else \
		echo "warning: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# gofmt gate.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# The CI gate: gofmt and vet plus the full suite under the race detector
# (the planner's concurrent plan and frame caches, and lock-free shared
# plans, are exercised by dedicated -race stress tests).
verify: fmt-check vulncheck
	go vet ./...
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# The repo's benchmark (BENCHMARK.json): six fetch workloads, end-to-end
# metrics plus the per-layer budget. `go run ./bench --help` lists the
# sweep and A/A flags.
bench-fetch:
	go run ./bench

# Non-test Go lines per package, committed so a PR's "net negative" claim
# is a diff of results/loc.txt rather than a sentence.
loc:
	@mkdir -p results
	@find . -name '*.go' ! -name '*_test.go' | sort | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", t }' \
		> results/loc.txt
	@cat results/loc.txt

# Full-suite statement coverage with a regression floor: the per-package
# summary and the total land in results/coverage.txt, and the target
# fails if total statement coverage drops below COVER_FLOOR percent.
# Override the floor with `make cover COVER_FLOOR=85`.
COVER_FLOOR ?= 78

cover:
	@mkdir -p results
	go test -coverprofile=coverage.out ./... > results/coverage.txt
	@go tool cover -func=coverage.out | tail -n 1 >> results/coverage.txt
	@cat results/coverage.txt
	@go tool cover -func=coverage.out | tail -n 1 | \
		awk -v floor=$(COVER_FLOOR) '{ sub(/%/, "", $$3); \
		if ($$3 + 0 < floor) { printf "FAIL: coverage %.1f%% below floor %s%%\n", $$3, floor; exit 1 } \
		printf "coverage %.1f%% meets floor %s%%\n", $$3, floor }'

# Regenerate every table and figure at the default reduced scale.
figures:
	go run ./cmd/mrtfigures -exp all

# Selected Figure 4 cells at the paper's full 200x50 workload.
paperscale:
	MOBWEB_PAPERSCALE=1 go test ./internal/sim -run TestPaperScaleSpotChecks -v

fuzz:
	go test -fuzz=FuzzKernels -fuzztime=30s ./internal/gf256
	go test -fuzz=FuzzParseHTML -fuzztime=30s ./internal/markup
	go test -fuzz=FuzzParseXML -fuzztime=30s ./internal/markup
	go test -fuzz=FuzzUnmarshal -fuzztime=30s ./internal/packet
	go test -fuzz=FuzzLayoutBinary -fuzztime=30s ./internal/core
	go test -fuzz=FuzzRequestDecode -fuzztime=30s ./internal/transport
	go test -fuzz=FuzzResponseLayout -fuzztime=30s ./internal/transport
	go test -fuzz=FuzzFountainRoundtrip -fuzztime=60s ./internal/fountain # both codecs' row generators through erasure.Decoder
	go test -fuzz=FuzzStoreRecover -fuzztime=30s ./internal/store

clean:
	go clean ./...
