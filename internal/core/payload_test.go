package core

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// TestInjectOversizedPayload pins the MaxPayload guard at the injection
// boundary: an unframeable payload is rejected with packet.ErrTooLarge
// before a message ID is consumed, and the exact-limit payload passes.
func TestInjectOversizedPayload(t *testing.T) {
	n := mustNet(t, baseCfg(topology.NewGrid(2, 2), 1))
	id, err := n.Inject(0, 1, 0, make([]byte, packet.MaxPayload+1))
	if !errors.Is(err, packet.ErrTooLarge) {
		t.Fatalf("oversized Inject: err = %v, want packet.ErrTooLarge", err)
	}
	if id != 0 {
		t.Fatalf("oversized Inject returned MsgID %d, want 0", id)
	}
	// The failed injection must not have burned an ID.
	id, err = n.Inject(0, 1, 0, make([]byte, packet.MaxPayload))
	if err != nil {
		t.Fatalf("exact-limit Inject: %v", err)
	}
	if id != 1 {
		t.Fatalf("first successful Inject got MsgID %d, want 1", id)
	}
}

// oversizeSender tries an unframeable Send at round 0 and records the
// outcome, then sends a normal message.
type oversizeSender struct {
	done     bool
	bigID    packet.MsgID
	bigErr   error
	smallID  packet.MsgID
	smallErr error
	broadErr error
}

func (s *oversizeSender) Init(*Ctx) {}
func (s *oversizeSender) Round(ctx *Ctx) {
	if s.done {
		return
	}
	s.done = true
	s.bigID, s.bigErr = ctx.Send(1, 0, make([]byte, packet.MaxPayload+1))
	_, s.broadErr = ctx.Send(packet.Broadcast, 0, make([]byte, packet.MaxPayload+1))
	s.smallID, s.smallErr = ctx.Send(1, 0, []byte("fits"))
}

// TestSendOversizedPayload pins the same guard on the Process-facing API:
// Ctx.Send, to one tile or to packet.Broadcast, rejects unframeable
// payloads with packet.ErrTooLarge, consumes no ID, and leaves the fabric
// working.
func TestSendOversizedPayload(t *testing.T) {
	n := mustNet(t, baseCfg(topology.NewGrid(2, 2), 1))
	proc := &oversizeSender{}
	n.Attach(0, proc)
	n.Step()
	if !errors.Is(proc.bigErr, packet.ErrTooLarge) {
		t.Fatalf("oversized Send: err = %v, want packet.ErrTooLarge", proc.bigErr)
	}
	if proc.bigID != 0 {
		t.Fatalf("oversized Send returned MsgID %d, want 0", proc.bigID)
	}
	if !errors.Is(proc.broadErr, packet.ErrTooLarge) {
		t.Fatalf("oversized broadcast Send: err = %v, want packet.ErrTooLarge", proc.broadErr)
	}
	if proc.smallErr != nil {
		t.Fatalf("small Send after rejection: %v", proc.smallErr)
	}
	if proc.smallID != 1 {
		t.Fatalf("small Send got MsgID %d, want 1 (rejected sends must not burn IDs)", proc.smallID)
	}
	n.Drain(20)
	// After the drain only the originator and the addressee stay aware
	// (transit copies expire, clearing their present flags).
	if n.Aware(proc.smallID) != 2 {
		t.Fatalf("small message known at %d tiles, want 2", n.Aware(proc.smallID))
	}
	if n.Counters().Deliveries != 1 {
		t.Fatalf("Deliveries = %d, want 1", n.Counters().Deliveries)
	}
}

// TestFramePoolBounded pins framePoolCap: put drops frames once the pool
// is full, and get pops (discarding too-small frames) without growing it.
func TestFramePoolBounded(t *testing.T) {
	var fp framePool
	for i := 0; i < framePoolCap+50; i++ {
		fp.put(make([]byte, 32))
	}
	if len(fp.frames) != framePoolCap {
		t.Fatalf("pool retained %d frames, want cap %d", len(fp.frames), framePoolCap)
	}
	if f := fp.get(16); len(f) != 16 {
		t.Fatalf("get(16) returned len %d", len(f))
	}
	if len(fp.frames) != framePoolCap-1 {
		t.Fatalf("get did not pop exactly one frame: %d left", len(fp.frames))
	}
	// Every remaining pooled frame is too small for this request: get
	// discards them all and allocates fresh.
	if f := fp.get(64); len(f) != 64 {
		t.Fatalf("get(64) returned len %d", len(f))
	}
	if len(fp.frames) != 0 {
		t.Fatalf("too-small frames not discarded: %d left", len(fp.frames))
	}
}

// TestNetworkFramePoolCapEndToEnd drives a literal-upset burst whose peak
// in-flight frame count far exceeds framePoolCap and checks the engine's
// pool did not retain the peak.
func TestNetworkFramePoolCapEndToEnd(t *testing.T) {
	cfg := Config{
		Topo: topology.NewGrid(6, 6), P: 1, TTL: 4, MaxRounds: 1000, Seed: 9,
		Fault: fault.Model{LiteralUpsets: true},
	}
	n := mustNet(t, cfg)
	for i := 0; i < 300; i++ {
		mustInject(t, n, packet.TileID(i%36), packet.Broadcast, 0, nil)
	}
	n.Drain(100)
	if got := len(n.frames.frames); got > framePoolCap {
		t.Fatalf("the frame pool holds %d frames, cap is %d", got, framePoolCap)
	}
}
