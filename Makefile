# Local fallback for the CI gate: `make check` runs exactly what a PR
# must pass. Formatting is checked only when ocamlformat is installed
# (the CI format job is advisory too).

.PHONY: all build test fmt lint analyze verify profile-json attribute check bench bench-smoke clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

lint:
	dune exec bin/soar_cli.exe -- lint programs/blocks.ops5 programs/selection.soar programs/analyze.ops5 --strict

# Static network analysis: errors (unsatisfiable conditions, dead
# nodes) fail the gate; warnings (cost model, redundancy) are reported
# but do not — suppress an acknowledged finding with an
# `; analyze: allow <rule> [<subject>]` pragma.
analyze:
	dune exec bin/soar_cli.exe -- analyze programs/blocks.ops5 programs/selection.soar programs/analyze.ops5
	dune exec bin/soar_cli.exe -- analyze --workload all

verify:
	dune exec bin/soar_cli.exe -- check --workload all
	dune exec bin/soar_cli.exe -- races --engine sim

# The profile's JSON export (the psme-telemetry/1 schema) must parse.
profile-json:
	bash -o pipefail -c 'dune exec bin/soar_cli.exe -- profile eight-puzzle --json | python3 -m json.tool > /dev/null'

# Speedup-loss attribution gate: the four ledger components must sum
# to the measured ideal-vs-achieved gap on every cycle (the command
# exits 1 on any invariant violation).
attribute:
	dune exec bin/soar_cli.exe -- attribute --workload strips --procs 11 > /dev/null
	dune exec bin/soar_cli.exe -- attribute --workload cypress --procs 11 > /dev/null
	dune exec bin/soar_cli.exe -- attribute --workload eight-puzzle --procs 11 > /dev/null

check: build test fmt lint analyze verify profile-json attribute bench-smoke bench

# Layer micro-benchmarks (Bechamel, ns/run; prints numbers, gates nothing)
bench:
	dune exec bench/main.exe

# Benchmark smoke: a short traced pass of every soarbench workload. The
# output checks (chunk sets, derivations, alert counts, parallel-vs-serial
# conflict set) must hold: the last JSON line needs correct = true and
# failed = 0.
bench-smoke:
	python3 soarbench/run.py --workload all --seed 1 --seconds 2 --trace 1 | python3 -c \
	  'import json, sys; lines = sys.stdin.read().splitlines(); print("\n".join(lines)); \
	   r = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}; \
	   ok = r.get("correct") is True and r.get("failed") == 0; \
	   print("bench-smoke:", "ok" if ok else "FAILED"); sys.exit(0 if ok else 1)'

clean:
	dune clean
