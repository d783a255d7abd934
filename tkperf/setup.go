package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets its program up; setup_s is the
// median.
const setupReps = 21

// setupRuns is how many set-ups a run times: setupReps, or 2 at smoke
// scale.
func (c config) setupRuns() int {
	if c.smoke {
		return 2
	}
	return setupReps
}

// bin is the path of one of the program's binaries built from the
// checkout.
func (c config) bin(name string) string { return filepath.Join(c.binDir, name) }

// timeSetup measures the set-up of a command-line workload: it execs
// each command in turn, to its exit, cfg.setupRuns() times over, and
// returns the median time of one round in seconds. The commands run the
// program on one warm-up and one measured reference, so a round is the
// program's start-up plus the construction of every simulation the
// workload runs, and almost no simulation.
func timeSetup(cfg config, tr *tracer, parent int, cmds [][]string) (float64, error) {
	var rounds []float64
	for i := 0; i < cfg.setupRuns(); i++ {
		span := tr.begin(parent, "bench", "setup")
		t0 := time.Now()
		for _, argv := range cmds {
			var stderr bytes.Buffer
			cmd := exec.Command(argv[0], argv[1:]...)
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				tr.end(span)
				return 0, fmt.Errorf("set-up %s: %v\n%s", strings.Join(argv, " "), err, stderr.Bytes())
			}
		}
		rounds = append(rounds, time.Since(t0).Seconds())
		tr.end(span)
	}
	return median(rounds), nil
}

// tinyRun are the flags that shrink a tkexp or tksim run to one warm-up
// and one measured reference at the benchmark's seed.
func tinyRun(seed uint64) []string {
	return []string{"-warmup", "1", "-refs", "1", "-seed", strconv.FormatUint(seed, 10)}
}
