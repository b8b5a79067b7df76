#!/bin/sh
# Tier-1 verification gate: build, vet, gofmt, tests (report comparisons across
# engines and -parallel live in TestReportMatrix), race-enabled tests,
# fuzz smokes, perf gates and the serve/recovery/durable CLI round trips.
# Run from the repository root: ./scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
test -z "$(gofmt -l .)"

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== CNF fuzz smoke (normalize/join/exchange laws)"
go test ./internal/policy -run '^$' -fuzz FuzzCNFNormalize -fuzztime 5s -race

echo "== VM equivalence fuzz smoke (vm = tree walker on generated apps)"
go test ./internal/harness -run '^$' -fuzz FuzzVMEquivalence -fuzztime 5s

echo "== interp fuzz smoke (no panic within fuel, -race)"
go test ./internal/interp -run '^$' -fuzz FuzzInterpNoPanicWithinFuel -fuzztime 5s -race

echo "== resolver equivalence fuzz smoke (slot env = map walk on an unresolved parse)"
go test ./internal/resolve -run '^$' -fuzz FuzzResolveEquivalence -fuzztime 5s -race

echo "== lexer differential fuzz smoke (table-driven lexer = reference lexer)"
go test ./internal/lexer -run '^$' -fuzz FuzzTokenizeMatchesReference -fuzztime 5s

echo "== label-walk differential fuzz smoke (container-only cycle set = reference walk)"
go test ./internal/dift -run '^$' -fuzz FuzzDataLabelsMatchesReference -fuzztime 5s

echo "== telemetry-disabled overhead gate (BenchmarkDIFTOps)"
TURNSTILE_BENCH_GATE=1 go test ./internal/dift -run TestDisabledOverheadGate -v

echo "== slot-env perf gate (interpreter microbenchmarks)"
TURNSTILE_BENCH_GATE=1 go test ./internal/harness -run TestSlotEnvFasterGate -v

echo "== VM perf gate (bytecode VM vs slot-env walker; see BENCH_vm.json)"
TURNSTILE_BENCH_GATE=1 go test ./internal/harness -run TestVMFasterGate -v

echo "== serve soak smoke (2 tenants + hostile neighbour, fixed seed, differing -parallel)"
go run ./cmd/turnstile-bench -serve -servetenants 2 -servemessages 30 -serveseed 7 \
  -parallel 4 > /tmp/turnstile-serve-a.txt
go run ./cmd/turnstile-bench -serve -servetenants 2 -servemessages 30 -serveseed 7 \
  -parallel 1 > /tmp/turnstile-serve-b.txt
cmp /tmp/turnstile-serve-a.txt /tmp/turnstile-serve-b.txt
rm -f /tmp/turnstile-serve-a.txt /tmp/turnstile-serve-b.txt

echo "== crash-recovery battery smoke (kill at 3 WAL boundaries, byte-identical resume)"
go run ./cmd/turnstile-bench -recovery -servetenants 2 -servemessages 8 -serveseed 23 \
  -recoverymax 3 > /tmp/turnstile-recovery.txt
grep -q "verdict: PASS" /tmp/turnstile-recovery.txt
grep -q "post_restart_sinks=0" /tmp/turnstile-recovery.txt
rm -f /tmp/turnstile-recovery.txt

echo "== durable serve round trip (FileStore: resume identical, dlq survives restart)"
STATE=$(mktemp -d /tmp/turnstile-state.XXXXXX)
go run ./cmd/turnstile serve -tenants 2 -messages 10 -seed 7 -hostile \
  -state "$STATE" > /tmp/turnstile-durable-a.txt
go run ./cmd/turnstile serve -state "$STATE" -resume \
  > /tmp/turnstile-durable-b.txt 2>/dev/null
cmp /tmp/turnstile-durable-a.txt /tmp/turnstile-durable-b.txt
go run ./cmd/turnstile dlq -state "$STATE" | grep "reason=shutdown" > /dev/null
go run ./cmd/turnstile dlq -state "$STATE" -replay | grep "re-driven" > /dev/null
go run ./cmd/turnstile dlq -state "$STATE" | grep "replayed=" > /dev/null
go run ./cmd/turnstile serve -state "$STATE" -resume \
  > /tmp/turnstile-durable-c.txt 2>/dev/null
cmp /tmp/turnstile-durable-a.txt /tmp/turnstile-durable-c.txt
rm -rf "$STATE" /tmp/turnstile-durable-a.txt /tmp/turnstile-durable-b.txt /tmp/turnstile-durable-c.txt

echo "verify: OK"
