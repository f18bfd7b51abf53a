//go:build race

package boosting

// raceDetector reports whether the tests run under the race detector,
// which slows the interpreter and the register allocator tenfold.
const raceDetector = true
