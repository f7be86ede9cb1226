package main

import (
	"testing"
	"time"

	"massf/internal/des"
	"massf/internal/netsim"
)

func sampleResult() netsim.Result {
	var r netsim.Result
	r.TotalEvents = 1000
	r.NodeEvents = []uint64{400, 600}
	r.LinkBits = []uint64{8000, 0, 16}
	r.LinkDrops = []uint64{0, 1, 0}
	r.Dropped = 1
	r.FlowsStarted, r.FlowsCompleted = 5, 4
	r.LastCompletion = 3 * des.Second
	r.FluidDone = []des.Time{0, des.Second}
	r.Windows = 10
	r.EngineEvents = []uint64{500, 500}
	return r
}

func TestDigestCoversModelFields(t *testing.T) {
	base := Digest(ptr(sampleResult()))
	if base != Digest(ptr(sampleResult())) {
		t.Fatal("digest of equal results differs")
	}
	mutations := map[string]func(*netsim.Result){
		"TotalEvents":    func(r *netsim.Result) { r.TotalEvents++ },
		"NodeEvents":     func(r *netsim.Result) { r.NodeEvents[1]++ },
		"LinkBits":       func(r *netsim.Result) { r.LinkBits[2]++ },
		"LinkDrops":      func(r *netsim.Result) { r.LinkDrops[0]++ },
		"FlowsCompleted": func(r *netsim.Result) { r.FlowsCompleted++ },
		"LastCompletion": func(r *netsim.Result) { r.LastCompletion++ },
		"FluidDone":      func(r *netsim.Result) { r.FluidDone[0] = 1 },
		"FluidLinkBits":  func(r *netsim.Result) { r.FluidLinkBits = []uint64{0} },
		// Moving a value between adjacent slices must not collide.
		"boundary": func(r *netsim.Result) {
			r.NodeEvents = append(r.NodeEvents, r.LinkBits[0])
			r.LinkBits = r.LinkBits[1:]
		},
	}
	for name, mut := range mutations {
		r := sampleResult()
		mut(&r)
		if Digest(&r) == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
}

func TestDigestIgnoresExecutionFields(t *testing.T) {
	base := Digest(ptr(sampleResult()))
	r := sampleResult()
	r.Windows, r.Engines = 99, 8
	r.EngineEvents = []uint64{1, 999}
	r.RemoteEvents = 77
	r.ModeledTimeNS, r.WallTime = 123, time.Second
	r.MaxPending = []int{3, 4}
	if Digest(&r) != base {
		t.Error("execution fields changed the digest")
	}
}

func ptr(r netsim.Result) *netsim.Result { return &r }
