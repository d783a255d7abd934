//go:build !race

package rng_test

const raceEnabled = false
