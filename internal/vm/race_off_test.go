//go:build !race

package vm

// raceDetector reports whether the test binary was built with -race.
const raceDetector = false
