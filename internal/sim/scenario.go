package sim

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// Scenario is the paper's basic experiment: one message gossiped from Src
// to Dst under the Chapter 2 fault model. cmd/nocsim, the nocsimd job
// runner, smc.Model, the Fig. 3-3 walkthrough and its 8×8 metrics study,
// and the one-message extension studies (robustness, grid spread,
// bimodal delivery, TTL) all run it through Run; the values they differ
// in are fields.
type Scenario struct {
	// Config is the fabric, protocol knobs, fault model and seed. Its
	// hooks stay (the recorder chains after them).
	Config core.Config
	// Src and Dst are the injecting tile and the destination tile (or
	// packet.Broadcast).
	Src, Dst packet.TileID
	// Kind is the injected message's kind.
	Kind packet.Kind
	// Payload is the payload size in bytes.
	Payload int
	// Rounds is the round budget and the recorder's preallocation; unlike
	// Config.MaxRounds it is not part of the config digest.
	Rounds int
	// Tech prices the recorder's energy series.
	Tech energy.Technology
	// StopAtDelivery ends the run at the first delivery to Dst, which
	// the run watches at every round barrier (Dst's awareness of the
	// message) only then.
	StopAtDelivery bool
}

// Hooks are what one Run adds to a Scenario. The zero value runs it bare.
type Hooks struct {
	// Record attaches a metrics.Recorder watching the message.
	Record bool
	// Net, if set, is the network a fresh run is built on: Run Resets it
	// to the scenario's config instead of calling core.New, reusing its
	// storage, and Trial.Net is Net. A parked run ignores it.
	Net *core.Network
	// Parked, if set, is a trial of this scenario that an earlier Run
	// left at a round barrier (LoopYielded): Run continues it, network,
	// recorder and delivery watch as they stood, instead of building a
	// fresh one, and returns it. Record and Net are ignored.
	Parked *Trial
	// Start, if set, sees the trial once it is built or taken up.
	Start func(t *Trial)
	// Barrier, if set, is the Loop's control check.
	Barrier func(n *core.Network) BarrierOp
	// OnRound, if set, runs after every round; an error ends the run and
	// is returned by Run.
	OnRound func(t *Trial) error
}

// Trial is one run of a Scenario.
type Trial struct {
	// Net is the network, at the barrier where the run stopped.
	Net *core.Network
	// Rec is the recorder, nil without Hooks.Record.
	Rec *metrics.Recorder
	// Msg is the message under study.
	Msg packet.MsgID
	// Delivered is the first delivery round at Dst, or -1; watched only
	// with StopAtDelivery, and set before Hooks.OnRound sees the round.
	Delivered int
	// Status is why the run stopped.
	Status LoopStatus
}

// Run builds the network (or Resets h.Net) and the recorder and injects
// the message, or takes up h.Parked, and drives it with a Loop. A fresh
// network that is quiescent before its first round (a dead source) stops
// there with LoopQuiescent, where the Loop alone would run one round.
func (s Scenario) Run(h Hooks) (*Trial, error) {
	t := h.Parked
	if t == nil {
		t = &Trial{Delivered: -1}
	}
	// Dst is aware of the message exactly when it has taken delivery:
	// a copy reaching it is delivered and buffered together, and nothing
	// else marks it aware — except at the source, which knows its own
	// message and is never delivered it.
	watch := func() {
		if s.StopAtDelivery && t.Delivered < 0 && s.Src != s.Dst && t.Net.AwareAt(t.Msg, s.Dst) {
			t.Delivered = t.Net.Round()
		}
	}
	var err error
	if h.Parked != nil {
		// The watch reads the barrier it starts at too, so a trial parked
		// without it reports a delivery it already holds at that round.
		watch()
	} else {
		cfg := s.Config
		if h.Record {
			t.Rec = metrics.NewRecorder(metrics.Config{Rounds: s.Rounds, Tech: s.Tech})
			t.Rec.Install(&cfg)
		}
		if h.Net != nil {
			t.Net, err = h.Net, h.Net.Reset(cfg)
		} else {
			t.Net, err = core.New(cfg)
		}
		if err != nil {
			return nil, err
		}
		if t.Msg, err = t.Net.Inject(s.Src, s.Dst, s.Kind, make([]byte, s.Payload)); err != nil {
			return nil, err
		}
		if t.Rec != nil {
			t.Rec.Watch(t.Msg)
			t.Rec.Sync(t.Net) // round 0 holds the injection before any round ends
		}
	}
	if h.Start != nil {
		h.Start(t)
	}
	if t.Net.Round() == 0 && t.Net.Quiescent() {
		t.Status = LoopQuiescent
		return t, nil
	}
	loop := Loop{
		Net: t.Net, MaxRounds: s.Rounds, Barrier: h.Barrier,
		Done: func(*core.Network) bool { return t.Delivered >= 0 || err != nil },
	}
	loop.OnRound = func(*core.Network) {
		watch()
		if h.OnRound != nil {
			err = h.OnRound(t)
		}
	}
	t.Status = loop.Run()
	return t, err
}
