//go:build !race

package main

// raceDetector reports whether the binary was built with -race.
const raceDetector = false
