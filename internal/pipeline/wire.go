package pipeline

import (
	"encoding/gob"
	"io"
)

// The fleet wire protocol is encoding/gob over TCP: a bare hello /
// welcome handshake (so a mismatched binary always decodes it and reads
// the reject), then every message inside a gob interface envelope. The
// envelope carries the registered name below, so these names are the
// wire format; the golden-bytes test in wire_test.go pins them together
// with every field. Renaming or re-typing anything here changes those
// bytes and fails the test before it can strand mismatched master and
// worker binaries at runtime — such a change must bump ProtocolVersion.
func init() {
	gob.RegisterName("hydra/pipeline.assignBatchMsg", assignBatchMsg{})
	gob.RegisterName("hydra/pipeline.resultFrameMsg", resultFrameMsg{})
	gob.RegisterName("hydra/pipeline.shardStartMsg", shardStartMsg{})
	gob.RegisterName("hydra/pipeline.shardReadyMsg", shardReadyMsg{})
	gob.RegisterName("hydra/pipeline.shardPlanMsg", shardPlanMsg{})
	gob.RegisterName("hydra/pipeline.shardPointMsg", shardPointMsg{})
	gob.RegisterName("hydra/pipeline.shardSweepMsg", shardSweepMsg{})
	gob.RegisterName("hydra/pipeline.shardDeltaMsg", shardDeltaMsg{})
	gob.RegisterName("hydra/pipeline.shardBlockMsg", shardBlockMsg{})
	gob.RegisterName("hydra/pipeline.shardEndMsg", shardEndMsg{})

	// Pin gob's global type-id allocation by encoding every protocol
	// message once in a fixed order. The ids a fresh encoder emits are
	// allocated process-globally on first use, so without this the exact
	// descriptor bytes would depend on which code path encoded first —
	// breaking the golden-bytes test's ability to detect real drift.
	// (Interoperability never depends on the ids: gob streams are
	// self-describing.)
	enc := gob.NewEncoder(io.Discard)
	for _, m := range []any{
		helloMsg{Models: []modelAd{{}}},
		welcomeMsg{},
		assignBatchMsg{Header: &runHeaderMsg{}, Forget: []int64{0},
			Indices: []int{0}, Points: []complex128{0}},
		resultFrameMsg{Frames: []pointFrame{{Data: []complex128{0}}}},
		shardStartMsg{Header: &runHeaderMsg{}},
		shardReadyMsg{HaloCols: []int{0}},
		shardPlanMsg{Boundary: []int{0}},
		shardPointMsg{},
		shardSweepMsg{Halo: []complex128{0}},
		shardDeltaMsg{Boundary: []complex128{0}},
		shardBlockMsg{Data: []complex128{0}},
		shardEndMsg{},
	} {
		if err := enc.Encode(m); err != nil {
			panic("pipeline: priming wire types: " + err.Error())
		}
	}
}
