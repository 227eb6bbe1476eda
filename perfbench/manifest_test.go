package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesOutput: BENCHMARK.json at the repository root names
// exactly the workloads and metrics this program runs and prints, with the
// same units.
func TestManifestMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("manifest workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("manifest lists %v, program runs %d workloads", names, len(workloads))
	}

	e2e := endToEndMetrics(1, 1, 1, 1, 1)
	if len(m.EndToEnd) != len(e2e) {
		t.Errorf("manifest has %d end-to-end metrics, program prints %d", len(m.EndToEnd), len(e2e))
	}
	for _, x := range m.EndToEnd {
		if got, ok := e2e[x.Name]; !ok || got.Unit != x.Unit {
			t.Errorf("end-to-end %s (%s): program prints %+v", x.Name, x.Unit, got)
		}
	}

	if len(m.PerLayer) != len(perLayerMetrics) {
		t.Errorf("manifest has %d per-layer metrics, program prints %d", len(m.PerLayer), len(perLayerMetrics))
	}
	for i, x := range m.PerLayer {
		if i < len(perLayerMetrics) && (perLayerMetrics[i].name != x.Name || perLayerMetrics[i].unit != x.Unit) {
			t.Errorf("per-layer row %d: manifest %s (%s), program %s (%s)", i, x.Name, x.Unit,
				perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}
