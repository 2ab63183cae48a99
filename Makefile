# Convenience targets for the PHAST reproduction.

PYTHON ?= python

.PHONY: install test bench bench-long figures chaos clean loc

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-long:
	REPRO_BENCH_OPS=100000 $(PYTHON) -m pytest benchmarks/ --benchmark-only

figures: bench
	@echo "figure tables written to benchmarks/results/"

chaos:
	$(PYTHON) -m repro chaos --subset 2 --predictors store-sets,phast \
		--num-ops 2000 --rate 0.2 --seed 51 --store .chaos-store

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks .chaos-store
	find . -name __pycache__ -type d -exec rm -rf {} +

loc:
	@for tree in src tests benchmarks examples; do \
		printf '%-11s %s\n' $$tree \
			"$$(find $$tree -name '*.py' -exec cat {} + | wc -l)"; \
	done
	@printf '%-11s %s\n' total \
		"$$(find src tests benchmarks examples -name '*.py' -exec cat {} + | wc -l)"
