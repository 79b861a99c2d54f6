# AnDrone reproduction — developer targets.

PYTHON ?= python

.PHONY: install test bench examples results trace chaos soak \
	city abuse explore docs-check lint lint-deep check gate baselines \
	profile clean

TRACE_FILE ?= trace.jsonl
CHAOS_TRACE ?= chaos-trace.jsonl
CHAOS_SEED ?= 42
SOAK_TRACE ?= soak-trace.jsonl
CITY_TRACE ?= city-trace.jsonl
CITY_SEED ?= 42
ABUSE_TRACE ?= abuse-trace.jsonl
ABUSE_SEED ?= 2025
EXPLORE_SCHEDULES ?= 25
EXPLORE_SEED ?= 42
EXPLORE_OUT ?= explore-artifacts

install:
	$(PYTHON) -m pip install -e .

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	for script in examples/*.py; do echo "== $$script"; PYTHONPATH=src $(PYTHON) $$script; done

results: ## regenerate the paper tables/figures into benchmarks/results/
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

chaos: ## fly the seeded chaos mission with telemetry on, then check the trace
	PYTHONPATH=src ANDRONE_TRACE=$(CHAOS_TRACE) CHAOS_SEED=$(CHAOS_SEED) \
		$(PYTHON) examples/chaos_flight.py
	PYTHONPATH=src $(PYTHON) -m repro.obs.check $(CHAOS_TRACE) \
		--require fault. --require vdc. --require vfc. \
		--require container.

trace: ## fly the quickstart with telemetry on, then smoke-check the trace
	PYTHONPATH=src ANDRONE_TRACE=$(TRACE_FILE) $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) -m repro.obs.check $(TRACE_FILE) \
		--require binder. --require mavproxy. --require vdc. \
		--require container.

soak: ## soak a small fleet (2 drones x 4 tenants, chaos on), then check the trace
	PYTHONPATH=src ANDRONE_TRACE=$(SOAK_TRACE) $(PYTHON) examples/fleet_soak.py
	PYTHONPATH=src $(PYTHON) -m repro.obs.check $(SOAK_TRACE) \
		--require loadgen. --require binder. --require vdc. \
		--require vfc. --require fault.

city: ## run the seeded city-scale control plane (twice: proves determinism), then check the trace
	PYTHONPATH=src ANDRONE_TRACE=$(CITY_TRACE) CITY_SEED=$(CITY_SEED) \
		$(PYTHON) examples/city_control_plane.py
	PYTHONPATH=src $(PYTHON) -m repro.obs.check $(CITY_TRACE) \
		--require cp. --require portal.

abuse: ## run the full DoS storm against the security fabric, then check the trace
	PYTHONPATH=src ANDRONE_TRACE=$(ABUSE_TRACE) ABUSE_SEED=$(ABUSE_SEED) \
		$(PYTHON) examples/abuse_storm.py
	PYTHONPATH=src $(PYTHON) -m repro.obs.check $(ABUSE_TRACE) \
		--require sec. --require abuse. --require loadgen. \
		--require vdc.

explore: ## hunt schedule races: N seeded same-tick schedules per registered scenario
	PYTHONPATH=src $(PYTHON) -m repro.sched explore \
		--schedules $(EXPLORE_SCHEDULES) --seed $(EXPLORE_SEED) \
		--out $(EXPLORE_OUT)

profile: ## cProfile the hot paths into profiles/ (pstats + folded stacks)
	PYTHONPATH=src $(PYTHON) tools/profile_hotpaths.py --out profiles

docs-check: ## validate every intra-repo markdown link and anchor
	$(PYTHON) tools/check_doc_links.py

lint: ## ruff (blocking) + mypy (advisory) + domain rules; pip install -e ".[lint]" first
	ruff check src tests benchmarks examples
	mypy src || echo "mypy: advisory for now (config in pyproject.toml)"
	PYTHONPATH=src $(PYTHON) -m repro.lint

lint-deep: ## whole-program pass: call graph, taint, exception flow, type-state
	PYTHONPATH=src $(PYTHON) -m repro.lint \
		--select flow-taint,flow-exceptions,flow-typestate \
		--output repro-lint-flow.json --sarif repro-lint-flow.sarif

check: test soak ## what CI gates on: quick tests, a clean soak, smoke-scale bench
	PYTHONPATH=src SCALE_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_scale.py --benchmark-only

gate: ## fail when fresh benchmark results regress vs benchmarks/baselines/
	$(PYTHON) benchmarks/regression_gate.py

baselines: ## refresh the checked-in perf baselines from a fresh smoke sweep
	PYTHONPATH=src SCALE_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_scale.py --benchmark-only
	PYTHONPATH=src CITY_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_city.py --benchmark-only
	PYTHONPATH=src ABUSE_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_abuse.py --benchmark-only
	cp benchmarks/results/scale.jsonl \
		benchmarks/results/scale_hotpaths.jsonl \
		benchmarks/results/city.jsonl \
		benchmarks/results/abuse.jsonl benchmarks/baselines/

clean:
	rm -rf .pytest_cache .ruff_cache .mypy_cache .hypothesis \
		benchmarks/results .benchmarks src/repro.egg-info \
		profiles trace.jsonl chaos-trace.jsonl soak-trace.jsonl \
		city-trace.jsonl \
		repro-lint.json repro-lint-flow.json repro-lint-flow.sarif \
		.lint-flow-cache.json explore-artifacts
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
