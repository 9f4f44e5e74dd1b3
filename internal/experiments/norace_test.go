//go:build !race

package experiments

// raceEnabled is set when the race detector is on (see race_test.go).
const raceEnabled = false
