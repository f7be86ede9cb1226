package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"massf/internal/des"
	"massf/internal/netsim"
)

// Digest hashes the model fields of a netsim.Result — the outputs that
// must not depend on how the network was partitioned: totals, per-node
// events, per-link bits and drops, flows, last completion, fault losses
// and the fluid plane's fields. Execution fields (windows, per-engine
// counts, modeled and wall time) are left out.
func Digest(r *netsim.Result) string {
	h := sha256.New()
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	us := func(vs []uint64) {
		u(uint64(len(vs)))
		for _, v := range vs {
			u(v)
		}
	}
	ts := func(vs []des.Time) {
		u(uint64(len(vs)))
		for _, v := range vs {
			u(uint64(v))
		}
	}
	u(r.TotalEvents)
	us(r.NodeEvents)
	us(r.LinkBits)
	us(r.LinkDrops)
	u(r.Dropped)
	u(r.Retransmissions)
	u(r.DeliveredBits)
	u(uint64(r.FlowsStarted))
	u(uint64(r.FlowsCompleted))
	u(uint64(r.LastCompletion))
	us(r.FaultDrops)
	u(uint64(r.FluidStarted))
	u(uint64(r.FluidCompleted))
	u(r.FluidDeliveredBits)
	u(uint64(r.FluidLastCompletion))
	ts(r.FluidDone)
	us(r.FluidLinkBits)
	return hex.EncodeToString(h.Sum(nil))
}
