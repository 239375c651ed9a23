package pipeline

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hydra/internal/passage"
)

// scriptConn is a reader-backed net.Conn: reads replay a fixed byte
// script, writes are discarded. It stands in for a peer that sends
// exactly the script and nothing else.
type scriptConn struct{ r io.Reader }

func (c scriptConn) Read(p []byte) (int, error)     { return c.r.Read(p) }
func (scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (scriptConn) Close() error                     { return nil }
func (scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (scriptConn) SetDeadline(time.Time) error      { return nil }
func (scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (scriptConn) SetWriteDeadline(time.Time) error { return nil }

func script(parts ...[]byte) scriptConn {
	return scriptConn{bytes.NewReader(bytes.Join(parts, nil))}
}

// envelope encodes a post-handshake stream.
func envelope(t testing.TB, msgs ...any) []byte { return encodeWire(t, false, msgs...) }

// collectScript runs the master's frame reassembly over a scripted
// worker stream answering run 3's assignment of points 12 and 13 of a
// 12-state model.
func collectScript(stream []byte) (fleetResult, []int, error) {
	f := &Fleet{opts: FleetOptions{}.withDefaults()}
	conn := script(stream)
	c := &fleetConn{name: "fuzz", conn: conn}
	kod := &fleetCodec{enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	run := &fleetRun{id: 3, header: runHeaderMsg{ModelStates: 12}}
	return f.collectFrames(c, kod, run, []int{12, 13})
}

// TestCollectFramesRejectsMalformedFrames pins the reassembly contract:
// a frame no well-behaved worker sends is an error that drops the
// connection, never a silently skipped chunk and never an allocation
// sized by the wire.
func TestCollectFramesRejectsMalformedFrames(t *testing.T) {
	data := []complex128{1, 2}
	cases := []struct {
		name   string
		frames []pointFrame
		want   string
	}{
		{"negative offset", []pointFrame{{Index: 12, Offset: -2, Total: 4, Data: data}}, "chunk"},
		{"overlapping offset", []pointFrame{
			{Index: 12, Offset: 0, Total: 4, Data: data},
			{Index: 12, Offset: 1, Total: 4, Data: data}}, "chunk"},
		{"chunk past total", []pointFrame{{Index: 12, Offset: 0, Total: 1, Data: data}}, "chunk"},
		{"total changes mid-vector", []pointFrame{
			{Index: 12, Offset: 0, Total: 4, Data: data},
			{Index: 12, Offset: 2, Total: 5, Data: data}}, "chunk"},
		{"total beyond the model", []pointFrame{{Index: 12, Total: 1 << 40}}, "12-state model"},
		{"negative total", []pointFrame{{Index: 12, Total: -1}}, "12-state model"},
		{"unassigned index", []pointFrame{{Index: 99, Total: 2, Data: data}}, "not waiting for"},
		{"negative index", []pointFrame{{Index: -1, Total: 2, Data: data}}, "not waiting for"},
		{"answered twice", []pointFrame{
			{Index: 12, Total: 2, Data: data},
			{Index: 12, Total: 2, Data: data}}, "not waiting for"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, missing, err := collectScript(envelope(t, resultFrameMsg{RunID: 3, Last: true, Frames: c.frames}))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.want)
			}
			if len(missing) == 0 {
				t.Error("a malformed stream left nothing to requeue")
			}
		})
	}
}

// FuzzFleetWireDecode feeds arbitrary bytes to the protocol's two
// decoders — the worker's enveloped decode + dispatch loop (a real
// model, so batch evaluation and shard membership run for real) and the
// master's frame reassembly. Neither may panic, and the master may
// never hand back a vector it did not ask for or one longer than the
// model.
func FuzzFleetWireDecode(f *testing.F) {
	for _, g := range wireGoldens {
		b, err := hex.DecodeString(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	header := &runHeaderMsg{Name: "fuzz", ModelFP: "fp", ModelStates: 12, Quantity: PassageDensity, Targets: []int{3, 8}}
	// A whole shard session and a batch, so mutations start from streams
	// that reach every handler.
	f.Add(envelope(f,
		assignBatchMsg{RunID: 1, Header: header, Indices: []int{0, 1}, Points: []complex128{1.1 + 0.4i, 1.1 + 0.6i}},
		shardStartMsg{RunID: 2, Header: header, Parts: 2, Part: 0},
		shardPlanMsg{RunID: 2, Boundary: []int{0, 1}},
		shardPointMsg{RunID: 2, Index: 0, S: 1.1 + 0.4i},
		shardSweepMsg{RunID: 2, Seq: 1, Halo: make([]complex128, 6)},
		shardPointMsg{RunID: 2, Index: 1, S: 1.1 + 0.6i},
		shardSweepMsg{RunID: 2, Seq: 1, Halo: make([]complex128, 6)},
		shardSweepMsg{RunID: 2, Seq: 2, Halo: make([]complex128, 6), Finish: true},
		shardEndMsg{RunID: 2},
		assignBatchMsg{RunID: 1, Indices: []int{2}, Points: nil},
	))
	f.Add(envelope(f,
		resultFrameMsg{RunID: 3, Frames: []pointFrame{{Index: 12, Offset: 0, Total: 4, Data: []complex128{1, 2}}}},
		resultFrameMsg{RunID: 3, Last: true, Frames: []pointFrame{
			{Index: 12, Offset: 2, Total: 4, Data: []complex128{3, 4}}, {Index: 13, Err: "diverged"}}},
	))
	f.Add(envelope(f, resultFrameMsg{RunID: 3, Last: true, Frames: []pointFrame{{Index: 12, Offset: -1, Total: 1 << 40}}}))

	m := shardTestModel(f)
	// A low sweep cap keeps hostile s-points cheap; the handlers under
	// test do not depend on it.
	opts := passage.Options{MaxR: 64}
	welcome := encodeWire(f, true, welcomeMsg{Version: ProtocolVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Errors are the expected outcome; only a panic fails.
		_ = FleetWorkConn(script(welcome, data), []WorkerModel{shardWorkerModel(m, "fp", opts)}, WorkerOptions{Name: "fuzz"})

		out, _, _ := collectScript(data)
		for _, p := range out.points {
			if p.Index != 12 && p.Index != 13 {
				t.Errorf("reassembly returned unassigned point %d", p.Index)
			}
			if len(p.Vec) > 12 {
				t.Errorf("reassembly returned %d values for a 12-state model", len(p.Vec))
			}
		}
	})
}
