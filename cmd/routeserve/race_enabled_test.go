//go:build race

package main

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation allocates and invalidates allocs-per-op assertions.
const raceEnabled = true
