package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestUnitsMatchBenchmarkJSON holds the driver's metric tables and
// BENCHMARK.json in step.
func TestUnitsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, list := range []struct {
		kind   string
		spec   []struct{ Name, Unit string }
		driver map[string]string
	}{
		{"end_to_end", spec.EndToEnd, endToEnd},
		{"per_layer", spec.PerLayer, perLayer},
	} {
		listed := map[string]bool{}
		for _, m := range list.spec {
			listed[m.Name] = true
			if list.driver[m.Name] != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, driver unit %q", list.kind, m.Name, m.Unit, list.driver[m.Name])
			}
		}
		for name := range list.driver {
			if !listed[name] {
				t.Errorf("driver metric %s is not in BENCHMARK.json's %s", name, list.kind)
			}
		}
	}
}
