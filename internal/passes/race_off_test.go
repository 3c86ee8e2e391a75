//go:build !race

package passes_test

// raceDetector reports whether the test binary was built with -race.
const raceDetector = false
