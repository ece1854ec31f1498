//go:build !race

package ipaclient_test

const raceDetector = false
