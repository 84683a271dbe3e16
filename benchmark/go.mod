module xmorph/benchmark

go 1.22

require xmorph v0.0.0

replace xmorph => ../
