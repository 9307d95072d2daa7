.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

# Everything to run before merging: scripts/check.sh
# (full build, the whole test suite, then the end-to-end benchmark,
# service and determinism smokes).
check:
	sh scripts/check.sh

bench:
	dune exec e2ebench/main.exe -- --smoke

clean:
	dune clean
