package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as tksim itself: with
// TKSIM_RUN_MAIN set, the test binary runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TKSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTksim runs tksim with args and returns its combined output.
func runTksim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TKSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestTinySampledRun is a regression test: read-ahead capped at the run's
// budget (WarmupRefs+MeasureRefs) starved the sampling schedule, which
// consumes its own policy warm-up, and this command failed with "sample:
// stream ended before the first detailed window".
func TestTinySampledRun(t *testing.T) {
	out, err := runTksim(t, "-bench", "eon", "-warmup", "1", "-refs", "1", "-seed", "8", "-sample")
	if err != nil {
		t.Fatalf("tksim failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "sampled      1 windows") {
		t.Fatalf("tksim output lacks the sampled window:\n%s", out)
	}
}
