//go:build noasm

package main

// noasm reports whether the benchmark was built with -tags noasm, which
// also disables the program's assembly kernels.
const noasm = true
