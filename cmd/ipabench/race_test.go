//go:build race

package main

// raceDetector reports that the tests run under the race detector, which
// makes the engine an order of magnitude slower.
const raceDetector = true
