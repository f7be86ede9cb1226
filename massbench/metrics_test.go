package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables the program
// prints in step with the benchmark description at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 255, 1 << 40} {
		got, ok := parsePayload(makePayload(seq))
		if !ok || got != seq {
			t.Errorf("payload %d parsed as %d, %v", seq, got, ok)
		}
	}
	p := makePayload(7)
	p[40]++
	if _, ok := parsePayload(p); ok {
		t.Error("damaged payload accepted")
	}
	if _, ok := parsePayload(p[:10]); ok {
		t.Error("short payload accepted")
	}
}
