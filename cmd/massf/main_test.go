package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"massf"
)

// writeTestNet saves a small generated network as DML and returns its path.
// 12 hosts clears the command's ≥9-host floor (7 app hosts + clients +
// servers).
func writeTestNet(t *testing.T) string {
	t.Helper()
	net, err := massf.GenerateFlat(massf.FlatOptions{Routers: 30, Hosts: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.dml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := massf.SaveNetwork(f, net); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// stripWallTime removes the only line of the report that legitimately
// differs between identical runs (host wall-clock time, process memory).
func stripWallTime(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "wall time") ||
			strings.HasPrefix(line, "setup time") ||
			strings.HasPrefix(line, "memory") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

var seedLine = regexp.MustCompile(`(?m)^seed\s+(\d+)$`)

// TestDerivedSeedIsReproducible is the regression for the time-derived
// -seed 0 path: the clock is injected, the effective seed is printed, and
// re-running with that printed seed as an explicit -seed reproduces the
// whole report byte for byte. Before the clock was injectable, `-seed 0`
// runs were unreproducible by construction.
func TestDerivedSeedIsReproducible(t *testing.T) {
	netPath := writeTestNet(t)
	base := []string{"-net", netPath, "-engines", "4", "-approach", "TOP2", "-seconds", "2", "-app", "none"}

	const derived = int64(987654321012345)
	var first bytes.Buffer
	err := run(append([]string{}, base...), &first, func() int64 { return derived })
	if err != nil {
		t.Fatal(err)
	}
	m := seedLine.FindStringSubmatch(first.String())
	if m == nil {
		t.Fatalf("report does not print the effective seed:\n%s", first.String())
	}
	if m[1] != fmt.Sprint(derived) {
		t.Fatalf("printed seed %s, want the injected clock value %d", m[1], derived)
	}

	// Re-run with the printed seed passed explicitly; the clock must not
	// be consulted at all.
	var second bytes.Buffer
	err = run(append(append([]string{}, base...), "-seed", m[1]), &second,
		func() int64 { t.Fatal("explicit -seed consulted the clock"); return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripWallTime(second.String()), stripWallTime(first.String()); got != want {
		t.Errorf("report not reproduced byte for byte from the printed seed:\n--- derived run ---\n%s\n--- seeded rerun ---\n%s", want, got)
	}
}

// TestNetObservabilityFlags drives the command with the observability
// plane on: the text report gains the net digest, -trace writes one
// loadable Chrome trace holding the engine tracks (with their setup
// spans) and the sampled path lanes, and -json emits the whole result —
// including the netmon views — as one JSON document.
func TestNetObservabilityFlags(t *testing.T) {
	netPath := writeTestNet(t)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	base := []string{"-net", netPath, "-engines", "4", "-approach", "TOP2",
		"-seconds", "2", "-app", "none", "-seed", "7"}

	var text bytes.Buffer
	err := run(append(append([]string{}, base...),
		"-netstats", "-netsample", "4", "-trace", tracePath), &text,
		func() int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"net drops", "net flows", "net FCT", "net link[0]", "net paths", "trace "} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			PID  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	slices := map[int]map[string]int{} // pid → slice name → count
	for _, ev := range trace.TraceEvents {
		if slices[ev.PID] == nil {
			slices[ev.PID] = map[string]int{}
		}
		slices[ev.PID][ev.Name]++
	}
	if eng := slices[1]; eng["setup"] != 4 || eng["compute"] == 0 {
		t.Fatalf("trace lacks the engine tracks with their setup spans: %v", eng)
	}
	if lanes := slices[2]; lanes["deliver"] == 0 {
		t.Fatalf("trace lacks the sampled path lanes beside the engine tracks: %v", lanes)
	}

	var jsonBuf bytes.Buffer
	err = run(append(append([]string{}, base...), "-json", "-netsample", "4"), &jsonBuf,
		func() int64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Approach string `json:"approach"`
		Seed     int64  `json:"seed"`
		Result   struct {
			FlowsCompleted uint64 `json:"FlowsCompleted"`
			LinkDrops      []any  `json:"LinkDrops"`
		} `json:"result"`
		NetMon struct {
			Summary struct {
				SampleEvery int `json:"sample_every"`
				Spans       int `json:"spans"`
			} `json:"summary"`
			Links struct {
				Links []any `json:"links"`
			} `json:"links"`
			Flows struct {
				Recorded int `json:"recorded"`
			} `json:"flows"`
		} `json:"netmon"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, jsonBuf.String())
	}
	if doc.Approach != "TOP2" || doc.Seed != 7 {
		t.Fatalf("json header wrong: %+v", doc)
	}
	if doc.Result.FlowsCompleted == 0 || len(doc.Result.LinkDrops) == 0 {
		t.Fatalf("json result missing flow/drop detail: %+v", doc.Result)
	}
	if doc.NetMon.Summary.SampleEvery != 4 || doc.NetMon.Summary.Spans == 0 ||
		len(doc.NetMon.Links.Links) == 0 || doc.NetMon.Flows.Recorded == 0 {
		t.Fatalf("json netmon views empty: %+v", doc.NetMon)
	}
	if strings.Contains(jsonBuf.String(), "approach             ") {
		t.Fatal("-json run also printed the text report")
	}
}

// TestRunRejectsBadFlags: errors surface as returned errors, not exits.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out, func() int64 { return 1 }); err == nil {
		t.Error("missing -net accepted")
	}
	netPath := writeTestNet(t)
	if err := run([]string{"-net", netPath, "-approach", "NOPE"}, &out, func() int64 { return 1 }); err == nil {
		t.Error("unknown approach accepted")
	}
}
