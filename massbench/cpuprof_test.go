package main

import (
	"math"
	"testing"
)

// tracesText is `go tool pprof -traces` output in its real layout.
const tracesText = `File: massbench
Type: cpu
Time: Oct 17, 2026 at 6:00am (UTC)
Duration: 1.50s, Total samples = 100ms (6.67%)
-----------+-------------------------------------------------------
      40ms   massf/internal/des.(*Kernel).pop
             massf/internal/des.(*Kernel).Run
             massf/internal/pdes.(*Sim).runEngine
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             runtime.newobject
             massf/internal/netsim.(*Sim).transmit
             massf/internal/des.(*Kernel).Run
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   massf/internal/routing/interdomain.(*Router).NextHop
             massf/internal/netsim.(*Sim).nextLink
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.notesleep
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             runtime.gcAssistAlloc
             massf/internal/netsim.(*Sim).arrive
-----------+-------------------------------------------------------
`

func TestParseTracesChargesInnermostLayer(t *testing.T) {
	got, err := parseTraces(tracesText)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"des": 0.4, "netsim": 0.2, "gc": 0.2, "routing": 0.1,
		"pdes": 0, "cluster": 0, "fluid": 0,
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-9 {
			t.Errorf("cpu.%s = %g, want %g", l, got[l], w)
		}
	}
	if len(got) != len(cpuLayers) {
		t.Errorf("got layers %v, want exactly %v", got, cpuLayers)
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	if _, err := parseTraces("-----------+---\n  lots   main.f\n"); err == nil {
		t.Error("bad sample value accepted")
	}
	got, err := parseTraces("File: x\n")
	if err != nil || got["des"] != 0 {
		t.Errorf("empty profile: %v, %v", got, err)
	}
}
