//go:build race

package experiments

// raceEnabled is set when the race detector is on, which makes a tiny-scale
// run about ten times slower; tests skip serial reruns that add no
// concurrency for it to check.
const raceEnabled = true
