//go:build race

package rng_test

// raceEnabled cuts TestGeometricMatchesClosedForm's draw count under the
// race detector, which slows its single-goroutine arithmetic tenfold and
// can find nothing in it.
const raceEnabled = true
