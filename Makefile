GO ?= go

.PHONY: check build vet lint lint-fix-audit test race chaos litmus bench fuzz collectives

# Tier-1 verify: build + vet + tests + race detector.
check:
	./scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism & shard-safety lint suite (see cmd/tgvet and DESIGN.md
# "Static determinism checking").
lint:
	$(GO) run ./cmd/tgvet ./...

# Suppression audit: every //tgvet:allow escape hatch in the tree with
# its mandatory reason, one line each — review this when paying down
# sanctioned debt or vetting a new annotation.
lint-fix-audit:
	$(GO) run ./cmd/tgvet -audit ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Deterministic chaos soak (see cmd/tgchaos; SEEDS seeds from START).
SEEDS ?= 200
START ?= 0
chaos:
	$(GO) run ./cmd/tgchaos -seeds $(SEEDS) -start $(START)

# Litmus-test sweep: the full protocol x shards x faults x variant
# matrix (memory-model conformance; `make check` runs the quick subset).
litmus:
	$(GO) run ./cmd/tglitmus

# In-network collective smoke (DESIGN.md §16): the collective and
# switch-side unit/fuzz-seed tests, then E15 — the 64-node in-fabric vs
# host-side barrier comparison and the hot-counter fetch&add
# equivalence check (`make check` runs the same smoke).
collectives:
	$(GO) test ./internal/collective ./internal/switchfab -count 1
	$(GO) run ./cmd/tgbench -exp E15

# Full evaluation: the paper experiments, then the PDES node×shard
# scaling sweep (writes BENCH_pdes.json; see EXPERIMENTS.md).
bench:
	$(GO) run ./cmd/tgbench
	$(GO) run ./cmd/tgbench -pdes -out BENCH_pdes.json

# Short fuzz pass over the wire-format, trace-file and address-space
# targets; FuzzSpill (TGE1 reader) and FuzzDecode (packet decoder) take
# untrusted bytes. The two sim targets hunt for operation streams where
# the engine's queue and its container/heap reference pop differently.
# FuzzAllowAnnot feeds arbitrary //tgvet:allow comments to tgvet.
fuzz:
	$(GO) test ./internal/sim -fuzz FuzzMsgQueue -fuzztime 10s
	$(GO) test ./internal/sim -fuzz FuzzEventQueueDifferential -fuzztime 10s
	$(GO) test ./internal/trace -fuzz FuzzSpill -fuzztime 10s
	$(GO) test ./internal/packet -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/packet -fuzz FuzzEncodeDecode -fuzztime 10s
	$(GO) test ./internal/addrspace -fuzz FuzzAddrRoundTrips -fuzztime 10s
	$(GO) test ./internal/linearize -fuzz FuzzLinearize -fuzztime 15s
	$(GO) test ./internal/consistency -fuzz FuzzCoherent -fuzztime 15s
	$(GO) test ./internal/switchfab -fuzz FuzzMergeSplit -fuzztime 10s
	$(GO) test ./internal/topology -fuzz FuzzRoute -fuzztime 15s
	$(GO) test ./internal/analysis -fuzz FuzzAllowAnnot -fuzztime 10s
