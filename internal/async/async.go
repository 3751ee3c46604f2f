// Package async is a goroutine-per-tile implementation of stochastic
// communication: each tile of the NoC is a goroutine owning its own "clock
// domain", and links are buffered channels carrying encoded frames.
//
// This engine is the GALS (globally asynchronous, locally synchronous)
// counterpart of the synchronous round kernel in package core. Nothing
// synchronizes the tiles' local rounds — the Go scheduler provides exactly
// the kind of clock skew the thesis models with σ_synchr, and a full
// link buffer drops packets exactly like a real overflowing input FIFO
// (p_overflow arises naturally instead of being injected).
//
// The engine is intentionally not deterministic; it exists to validate
// that the protocol's guarantees (delivery w.h.p., CRC rejection of
// upsets, TTL-bounded lifetime) hold under true concurrency, and to
// demonstrate the thesis' claim that tile processes map naturally onto
// concurrent processes.
package async

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Process is the IP core mapped onto one tile of the asynchronous NoC.
type Process interface {
	// Round is called once per local round of the hosting tile. An idle
	// tile has no local rounds (see Config.MaxLocalRounds): after a round
	// in which nothing arrived, the process sent nothing and no copy is
	// buffered, Round is next called when a frame arrives.
	Round(ctx *Ctx)
}

// Config parameterizes an asynchronous network.
type Config struct {
	// Topo is the fabric (required).
	Topo topology.Topology
	// P is the per-port forwarding probability.
	P float64
	// TTL is the initial time-to-live of new messages (in local rounds).
	TTL uint8
	// LinkCap is the capacity of each tile's input FIFO; a send into a
	// full FIFO is dropped (buffer overflow). Defaults to 64.
	LinkCap int
	// MaxLocalRounds bounds each tile's execution (defaults to 1000). Only
	// rounds with work count: an idle tile — nothing received, nothing
	// sent by its process, send buffer empty — sleeps on its input FIFO
	// (a clock-gated domain) instead of spinning its budget away before
	// the first frame reaches it. A tile that spends the budget retires;
	// frames sent to it afterwards are lost.
	MaxLocalRounds int
	// Seed seeds the per-tile random streams (forwarding decisions are
	// still nondeterministic in aggregate because interleaving is).
	Seed uint64
	// Fault supports crash failures and data upsets; upsets are always
	// literal bit flips here, detected by each tile's CRC check.
	Fault fault.Model
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Topo == nil {
		return errors.New("async: Config.Topo is required")
	}
	if c.P < 0 || c.P > 1 {
		return fmt.Errorf("async: P = %v out of [0,1]", c.P)
	}
	if c.TTL == 0 {
		return errors.New("async: TTL must be >= 1")
	}
	return c.Fault.Validate()
}

// Stats aggregates the atomic counters of one run.
type Stats struct {
	Transmissions  int64
	Bits           int64
	Deliveries     int64
	UpsetsDetected int64
	OverflowDrops  int64
	Completed      bool
}

// Network is one asynchronous stochastically-communicating NoC.
type Network struct {
	cfg   Config
	inj   *fault.Injector
	inbox []chan []byte
	procs []Process

	nextID atomic.Uint64
	done   atomic.Bool

	// work counts the tiles currently awake plus the frames sitting in
	// input FIFOs. It reaches zero only when every live tile sleeps (or
	// has retired) on an empty FIFO: no one is left to send, so the run is
	// over and whoever took it to zero closes stop. Finish closes stop as
	// well; sleeping tiles select on it.
	work     atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once

	tx, bits, deliveries, upsets, overflow atomic.Int64
}

// New builds the network, sampling crash failures from cfg.Seed.
func New(cfg Config) (*Network, error) {
	if cfg.LinkCap == 0 {
		cfg.LinkCap = 64
	}
	if cfg.MaxLocalRounds == 0 {
		cfg.MaxLocalRounds = 1000
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := rng.New(cfg.Seed)
	inj, err := fault.NewInjector(cfg.Topo, cfg.Fault, master.Split(0xfa017))
	if err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, inj: inj, stop: make(chan struct{})}
	n.inbox = make([]chan []byte, cfg.Topo.Tiles())
	n.procs = make([]Process, cfg.Topo.Tiles())
	for i := range n.inbox {
		n.inbox[i] = make(chan []byte, cfg.LinkCap)
	}
	return n, nil
}

// Attach maps proc onto tile t.
func (n *Network) Attach(t packet.TileID, proc Process) { n.procs[t] = proc }

// Run launches one goroutine per live tile and blocks until the run is
// over: a process called Finish, or the network went quiescent (every
// tile asleep or retired, no frame in any FIFO). A Network runs once.
func (n *Network) Run() Stats {
	var wg sync.WaitGroup
	master := rng.New(n.cfg.Seed ^ 0x5eed)
	// Every live tile starts awake; counted before the first goroutine
	// can go to sleep, so work cannot touch zero early.
	n.work.Store(int64(n.cfg.Topo.Tiles() - n.inj.DeadTileCount()))
	for i := 0; i < n.cfg.Topo.Tiles(); i++ {
		id := packet.TileID(i)
		if !n.inj.TileAlive(id) {
			continue
		}
		wg.Add(1)
		go func(id packet.TileID, r *rng.Stream) {
			defer wg.Done()
			n.tileLoop(id, r)
		}(id, master.Split(uint64(i)+1))
	}
	wg.Wait()
	return Stats{
		Transmissions:  n.tx.Load(),
		Bits:           n.bits.Load(),
		Deliveries:     n.deliveries.Load(),
		UpsetsDetected: n.upsets.Load(),
		OverflowDrops:  n.overflow.Load(),
		Completed:      n.done.Load(),
	}
}

// tileLoop is one tile's clock domain: receive, compute, age, forward.
func (n *Network) tileLoop(id packet.TileID, r *rng.Stream) {
	var sendBuf []*packet.Packet
	present := map[packet.MsgID]bool{}
	seen := map[packet.MsgID]bool{}
	var mailbox []*packet.Packet
	var woke []byte // the frame that ended the last sleep, received first

	for round := 1; round <= n.cfg.MaxLocalRounds && !n.done.Load(); round++ {
		active := false // did this round receive or originate anything?
		// Receive: drain whatever has arrived, CRC-checking each frame.
		for {
			frame := woke
			woke = nil
			if frame == nil {
				select {
				case frame = <-n.inbox[id]:
					n.work.Add(-1) // this tile is awake, so work stays >= 1
				default:
				}
			}
			if frame == nil {
				break
			}
			active = true
			p, err := packet.Decode(frame)
			if err != nil {
				n.upsets.Add(1)
				continue
			}
			if present[p.ID] {
				continue
			}
			if (p.Dst == id || p.Dst == packet.Broadcast) && !seen[p.ID] {
				seen[p.ID] = true
				mailbox = append(mailbox, p)
				n.deliveries.Add(1)
			}
			present[p.ID] = true
			sendBuf = append(sendBuf, p)
		}

		// Compute: run the IP core with the delivered messages.
		if proc := n.procs[id]; proc != nil {
			ctx := &Ctx{net: n, self: id, round: round, delivered: mailbox, rnd: r,
				enqueue: func(p *packet.Packet) {
					active = true
					seen[p.ID] = true
					present[p.ID] = true
					sendBuf = append(sendBuf, p)
				}}
			proc.Round(ctx)
			mailbox = nil
		}

		// Age: decrement TTLs, garbage-collect.
		kept := sendBuf[:0]
		for _, p := range sendBuf {
			p.TTL--
			if p.TTL == 0 {
				delete(present, p.ID)
				continue
			}
			kept = append(kept, p)
		}
		sendBuf = kept

		// Forward: each message on each port with probability P.
		for _, p := range sendBuf {
			for _, nb := range n.cfg.Topo.Neighbors(id) {
				if !r.Bool(n.cfg.P) {
					continue
				}
				n.transmit(id, nb, p, r)
			}
		}
		if !active && len(sendBuf) == 0 {
			if woke = n.sleep(id); woke == nil {
				return
			}
		}
		runtime.Gosched() // yield the "clock domain"
	}
	// Budget spent or run finished. A retired tile still swallows the
	// frames its neighbors send it, so that they stop counting as work.
	for n.sleep(id) != nil {
	}
}

// sleep parks tile id until a frame arrives (returned; its unit of work
// becomes the woken tile's) or the run stops (nil). The caller's unit of
// work is released first; releasing the last one is quiescence.
func (n *Network) sleep(id packet.TileID) []byte {
	if n.work.Add(-1) == 0 {
		n.stopOnce.Do(func() { close(n.stop) })
	}
	select {
	case frame := <-n.inbox[id]:
		return frame
	case <-n.stop:
		return nil
	}
}

// transmit encodes and ships one copy of p toward nb, applying upsets and
// natural channel-full overflow.
func (n *Network) transmit(from, to packet.TileID, p *packet.Packet, r *rng.Stream) {
	n.tx.Add(1)
	n.bits.Add(int64(p.SizeBits()))
	if !n.inj.LinkAlive(from, to) {
		return
	}
	frame, err := packet.Encode(p)
	if err != nil {
		panic(fmt.Sprintf("async: encode failed in flight: %v", err))
	}
	if n.inj.UpsetHappens(r) {
		n.inj.CorruptFrame(frame, r)
	}
	n.work.Add(1) // counted before it is visible, see Network.work
	select {
	case n.inbox[to] <- frame:
	default:
		n.work.Add(-1)    // the sender is awake, so work stays >= 1
		n.overflow.Add(1) // input FIFO full: the oldest pressure wins
	}
}

// Ctx is a tile-local view handed to Processes.
type Ctx struct {
	net       *Network
	self      packet.TileID
	round     int
	delivered []*packet.Packet
	rnd       *rng.Stream
	enqueue   func(*packet.Packet)
}

// Self returns the hosting tile's ID.
func (c *Ctx) Self() packet.TileID { return c.self }

// Round returns the tile's local round number.
func (c *Ctx) Round() int { return c.round }

// Delivered returns the messages addressed here that arrived since the
// previous local round.
func (c *Ctx) Delivered() []*packet.Packet { return c.delivered }

// Send creates a new message and hands it to the gossip layer.
func (c *Ctx) Send(dst packet.TileID, kind packet.Kind, payload []byte) packet.MsgID {
	id := packet.MsgID(c.net.nextID.Add(1))
	c.enqueue(&packet.Packet{
		ID: id, Src: c.self, Dst: dst, Kind: kind, TTL: c.net.cfg.TTL, Payload: payload,
	})
	return id
}

// Rand returns the tile-local random stream.
func (c *Ctx) Rand() *rng.Stream { return c.rnd }

// Finish signals global application completion; every tile retires at its
// next local round boundary.
func (c *Ctx) Finish() {
	c.net.done.Store(true)
	c.net.stopOnce.Do(func() { close(c.net.stop) })
}
