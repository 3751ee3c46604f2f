// Package core implements on-chip stochastic communication — the thesis'
// primary contribution (Chapter 3).
//
// Every tile of the NoC runs the gossip algorithm of Fig. 3-4 once per
// broadcast round:
//
//	send_buffer ← send_buffer ∪ {m received | CRC_OK(m)}   (deduplicated)
//	∀ m ∈ send_buffer: m.TTL ← m.TTL − 1
//	send_buffer ← send_buffer \ {m | m.TTL = 0}             (garbage collect)
//	for all m ∈ send_buffer, for each output port:
//	        send m on the port with probability p
//
// The engine is a synchronous round-based simulator: deterministic under a
// seed, with the Chapter 2 fault model (package fault) layered onto every
// transmission and reception. Tiles host application logic through the
// Process interface; the IP core is fully decoupled from the communication
// fabric, which is the architectural point of the thesis ("separation
// between computation and communication").
//
// The round engine is the hot path of every Monte Carlo replica, so its
// steady state allocates (almost) nothing: per-message state lives in
// slot-major bitset tables indexed by the slot half of the MsgID
// (table.go), in-flight copies travel by value through small per-tile
// arrival rings (ring.go) — except the copies the far end could only drop
// as duplicates (or, with no OnEvent listener, as upsets), which transmit
// settles at the sender without scheduling them (phase.go) — and the
// per-tile state every sweep touches is
// one flat array built once at New (the IP-core side of a tile exists only
// where a Process, router or forward limit was attached). With
// Config.Recycle the tables are additionally bounded by the *live* message
// population — expired-everywhere messages are retired at round barriers
// and their IDs recycled under a fresh generation tag — which is what lets
// the engine sustain mega-meshes (512×512 and beyond). See DESIGN.md,
// "Engine internals & performance" and "Message-state lifecycle".
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Process is the IP core mapped onto one tile. Implementations receive a
// Ctx giving access to the tile's mailbox and send port. Round is invoked
// once per gossip round, after delivery; a Process on a crashed tile is
// never invoked.
//
// The mailbox belongs to the Process: a tile keeps the packets delivered
// to it only while a Process is attached to drain them. A tile without one
// has no IP core to hand packets to — its deliveries still count
// (Counters.Deliveries, EvDeliver, the delivered-once filter) but nothing
// is stored.
type Process interface {
	// Init is called once before round 0.
	Init(ctx *Ctx)
	// Round is called once per gossip round.
	Round(ctx *Ctx)
}

// Completer is optionally implemented by Processes that know when the
// application has finished (e.g. the Master after collecting all partial
// sums). The network reports completion when every Completer is done.
type Completer interface {
	Done() bool
}

// Receiver is optionally implemented by Processes that want messages
// pushed at the instant of delivery (within the round the packet arrives)
// instead of polling Delivered on their next Round. Latency-sensitive
// completion detection should use Receive: the round in which the last
// result arrives is the application latency the thesis reports.
type Receiver interface {
	Receive(ctx *Ctx, p *packet.Packet)
}

// Config parameterizes one stochastic-communication network.
type Config struct {
	// Topo is the interconnect fabric (required).
	Topo topology.Topology
	// Fault is the Chapter 2 failure model (zero value = fault free).
	Fault fault.Model
	// P is the per-port forwarding probability; p = 1 degenerates to
	// flooding (latency-optimal, energy-worst).
	P float64
	// TTL is the initial time-to-live of newly created messages, in
	// rounds: each buffered copy ages once per round and is
	// garbage-collected at zero (§3.2.2).
	TTL uint8
	// MaxRounds is the round budget: a run that has not completed after
	// this many rounds is aborted (defaults to 10000).
	MaxRounds int
	// Seed makes the run reproducible.
	Seed uint64
	// Recycle bounds the message tables by the live message population
	// instead of the ever-issued one: a message whose buffered copies have
	// all expired and whose in-flight copies have drained is retired at
	// the next round barrier, and its table slot is reissued to a later
	// message under a fresh generation tag (see table.go). Long
	// continuous-injection workloads on mega-meshes need it. It is the
	// engine's one on/off variant; the default (off) preserves the
	// historical dense ID sequence, keeps Aware and AwareAt answerable
	// for the whole run, and is byte-identical to engines that predate
	// recycling. The observable difference when on:
	// MsgIDs of later messages reuse slots (so event logs differ from a
	// recycle-off run), and per-tile awareness of retired messages is
	// forgotten (AwareAt reports false; Aware still reports the final
	// count, from the retired ledger).
	Recycle bool
	// StopSpreadOnDelivery garbage-collects a unicast message everywhere
	// once its destination has received it — the idealized spread
	// termination §3.2.2 alludes to ("the spread could be terminated even
	// earlier in order to reduce the number of messages"). It models a
	// chip-wide kill signal and is used by the energy-focused
	// experiments; the default (false) is the pure TTL-bounded protocol.
	StopSpreadOnDelivery bool
	// PortWeight, if set, scales the forwarding probability per
	// (tile, port, message): the effective probability becomes
	// clamp(P·weight, 0, 1). It enables directed-gossip variants (see
	// package directed) without touching the protocol loop; nil keeps
	// the thesis' uniform ports.
	PortWeight func(from, to packet.TileID, p *packet.Packet) float64
	// OnEvent, if set, receives every protocol event (message creation,
	// transmissions, CRC rejections, overflow drops, deliveries, TTL
	// expiries), in the order the engine makes them — the hook package
	// trace builds its timelines on. A listener is called mid-phase, so
	// it sees live state. Leaving it nil costs nothing and lets the
	// engine settle upsets at the sender (DESIGN.md, "Settlement at the
	// sender"); Network.Tally and Counters still count every event kind,
	// and the metrics recorder reads its series from them.
	OnEvent func(Event)
	// OnRoundEnd, if set, is called as the very last action of every
	// Step, at the round barrier — the per-round flush hook the metrics
	// recorder samples end-of-round state on (aware-tile counts, energy
	// deltas); metrics.Recorder.Install chains it after any hook already
	// set. round is the 1-based index of the round that just executed.
	// Leaving it nil costs nothing.
	OnRoundEnd func(round int, n *Network)
}

// EventKind classifies a protocol event.
type EventKind uint8

// The protocol events, in rough lifecycle order.
const (
	// EvCreated: a new message entered its origin tile's send buffer.
	EvCreated EventKind = iota
	// EvTransmit: a copy was driven onto the link Tile->Peer.
	EvTransmit
	// EvUpset: a reception was discarded as scrambled (CRC failure).
	EvUpset
	// EvOverflow: a message was lost to buffer overflow at Tile.
	EvOverflow
	// EvDeliver: first-time delivery to an addressed tile.
	EvDeliver
	// EvExpire: a buffered copy's TTL reached zero at Tile.
	EvExpire
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvCreated:
		return "created"
	case EvTransmit:
		return "transmit"
	case EvUpset:
		return "upset"
	case EvOverflow:
		return "overflow"
	case EvDeliver:
		return "deliver"
	case EvExpire:
		return "expire"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one protocol occurrence. Msg is zero for events that cannot
// name a message (an upset-scrambled frame no longer has a trustworthy
// ID).
type Event struct {
	// Round is the 1-based gossip round the event occurred in; round 0
	// identifies pre-run injections (Network.Inject before the first
	// Step).
	Round int
	// Kind classifies the event (creation, transmission, ...).
	Kind EventKind
	// Tile is where the event happened.
	Tile packet.TileID
	// Peer is the far end of the link for EvTransmit, and the source
	// tile for EvDeliver; for other kinds it repeats Tile.
	Peer packet.TileID
	// Msg names the message, or 0 when the ID is untrustworthy (a
	// CRC-rejected frame).
	Msg packet.MsgID
}

// DefaultTTL is a reasonable message lifetime for 4x4/5x5 grids: enough
// rounds for a gossip broadcast to cross the network several times over.
const DefaultTTL = 12

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Topo == nil {
		return errors.New("core: Config.Topo is required")
	}
	if c.P < 0 || c.P > 1 {
		return fmt.Errorf("core: P = %v out of [0,1]", c.P)
	}
	if c.TTL == 0 {
		return errors.New("core: TTL must be >= 1")
	}
	// The literal path serializes every transmission into a Chapter 2
	// wire frame, whose addresses are 16 bits: fabrics beyond that run on
	// the analytic path only (identical behaviour up to the CRC's
	// undetected-error probability; see fault.Model.LiteralUpsets).
	if c.Fault.LiteralUpsets && c.Topo.Tiles() > int(packet.MaxWireTile)+1 {
		return fmt.Errorf("core: LiteralUpsets needs wire-addressable tiles (%d > %d)",
			c.Topo.Tiles(), int(packet.MaxWireTile)+1)
	}
	// The port table packs a link verdict into bit 31 of every neighbour
	// ID (see port).
	if uint64(c.Topo.Tiles()) > uint64(portDead) {
		return fmt.Errorf("core: %d tiles exceed the port table's 31-bit tile IDs", c.Topo.Tiles())
	}
	return c.Fault.Validate()
}

// Counters aggregates the observable events of one run.
type Counters struct {
	// Transmissions and bit counts (the Eq. 3 inputs).
	Energy energy.Accounting
	// UpsetsInjected counts transmissions scrambled in flight.
	UpsetsInjected int
	// UpsetsDetected counts receptions discarded by the CRC check (on the
	// analytic path this equals the injected upsets that reached a live
	// receiver). With no OnEvent listener an on-time analytic upset is
	// settled at the sender: it counts here in the round it was sent, the
	// round it would have arrived, and never enters the arrival ring.
	UpsetsDetected int
	// OverflowDrops counts receptions lost to buffer overflow (the
	// Chapter 2 p_overflow, Fault.POverflow).
	OverflowDrops int
	// SlippedDeliveries counts receptions delayed by synchronization
	// skew.
	SlippedDeliveries int
	// Deliveries counts first-time deliveries to addressed tiles.
	Deliveries int
	// DeliveredPayloadBits is the useful payload delivered, for the
	// J-per-useful-bit metric.
	DeliveredPayloadBits int
	// Duplicates counts copies of a message that reached a tile already
	// buffering it, which the set-valued send buffer (Fig. 3-4) drops:
	// received copies, plus the copies settled at the sender because the
	// far end already buffered the message (they are counted in the round
	// they were sent, the round they would have arrived).
	Duplicates int
	// Retired counts messages whose table slot was reclaimed by ID
	// recycling (Config.Recycle); always 0 with recycling off.
	Retired int
	// GhostFrames counts CRC-escaped wire frames that decoded cleanly but
	// named a message generation that no longer (or never) existed — the
	// stale-ID aliases the generation tag exists to catch. Each is also a
	// detected upset.
	GhostFrames int
}

// tile is the communication half of a tile's runtime state — the Fig. 3-5
// hardware interface, and everything the per-round sweeps touch. All of it
// is flat: the send buffer owns its packets by value, dedup and the
// delivery-once filter are bit flags indexed by MsgID, in-flight copies
// sit in a per-tile arrival ring keyed by arrival round, the ports are a
// window of the network's port table, and the tiles themselves are one
// contiguous array (Network.tiles). It is kept small on purpose (104
// bytes): a mega-mesh pays it once per tile whether or not the tile ever
// carries traffic. What only some tiles have lives in a coldTile.
type tile struct {
	sendBuf []packet.Packet // live copies, owned by value
	ring    arrivalRing     // in-flight copies keyed by arrival round
	rnd     rng.Stream      // forwarding decisions + app randomness (by value: hot state stays on the tile's cache lines)
	// portOff and deg locate this tile's ports in Network.portTab: port i
	// is portTab[portOff+i], for i < deg (see Network.ports).
	portOff uint32
	// cold indexes the IP-core block in Network.colds; 0 (a nil entry)
	// until Attach/SetRouter/SetForwardLimit.
	cold  uint32
	id    packet.TileID
	deg   uint16
	alive bool // inj.TileAlive(id), cached at New (crash state is immutable)
}

// port is one entry of the network's port table: the far-end TileID of a
// link, with portDead set when the link cannot carry a copy (a crashed
// link, or a crashed tile at either end). Neighbour and verdict share one
// word, so the forwarding loops read both from one array.
type port uint32

// portDead is the verdict bit of a port; tile IDs stay below it
// (Config.Validate).
const portDead port = 1 << 31

// makePort packs neighbour nb and its link verdict into a port.
func makePort(nb packet.TileID, up bool) port {
	if up {
		return port(nb)
	}
	return port(nb) | portDead
}

// peer returns the port's far-end tile.
func (e port) peer() packet.TileID { return packet.TileID(e &^ portDead) }

// up reports whether the port's link carries copies.
func (e port) up() bool { return e&portDead == 0 }

// coldTile is the IP-core half of a tile: the attached Process with its
// mailbox and context, and the bridge settings of the Chapter 5 hybrids.
// Most tiles of a large mesh have none of these, so the block is
// allocated on first use (Network.coldOf) and the sweeps reach it through
// one index check.
type coldTile struct {
	proc    Process
	mailbox []*packet.Packet
	ctx     Ctx // reusable context handed to the Process

	fwdLimit  int // max messages forwarded per round; 0 = unlimited
	fwdCursor int // round-robin position for rate-limited forwarding
	router    func(p *packet.Packet) []packet.TileID
}

// cold returns t's IP-core block, or nil if it has none.
func (n *Network) cold(t *tile) *coldTile { return n.colds[t.cold] }

// coldOf returns t's IP-core block, allocating it on first use.
func (n *Network) coldOf(t *tile) *coldTile {
	if t.cold == 0 {
		t.cold = uint32(len(n.colds))
		n.colds = append(n.colds, &coldTile{ctx: Ctx{net: n, tile: t}})
	}
	return n.colds[t.cold]
}

// process returns the Process attached to t, or nil.
func (n *Network) process(t *tile) Process {
	if c := n.cold(t); c != nil {
		return c.proc
	}
	return nil
}

// Network is one simulated stochastically-communicating NoC.
type Network struct {
	cfg  Config
	topo topology.Topology
	inj  *fault.Injector
	// tiles is one contiguous array: the per-round phases sweep it in
	// ascending order, and sequential layout is what lets the hardware
	// prefetcher hide that sweep on mega-meshes. Tiles are only ever
	// handled through pointers into it, never copied.
	tiles []tile
	// portTab holds every tile's ports, tile after tile, each in the
	// topology's port order with its inj.LinkAlive verdict packed in (see
	// port, tile.portOff): the forwarding loops read neighbour and
	// liveness from one array, with no map lookup per copy. Valid for the
	// network's lifetime — crash faults are sampled once, before round 0.
	portTab []port
	// colds holds the IP-core blocks tile.cold indexes; entry 0 is nil,
	// the block of every tile without one.
	colds  []*coldTile
	round  int
	nextID packet.MsgID // last issued packed ID (slot | generation<<32)
	cnt    Counters
	tbl    msgTable // per-message state, slot-indexed (table.go)
	// pThresh is cfg.P in 53-bit fixed point, precomputed once so the
	// innermost forwarding draw is a single integer compare —
	// decision-identical to the former Float64() < P (see rng.MakeThreshold).
	pThresh rng.Threshold
	// upsetT/overflowT mirror the injector's fixed-point thresholds: the
	// per-transmission and per-reception draws are then direct BoolT
	// calls the compiler inlines (the injector methods are equivalent but
	// sit behind a call).
	upsetT    rng.Threshold
	overflowT rng.Threshold
	// elideDup lets transmit settle a copy at the sender when phase 4
	// could only count it as a duplicate (see transmit). It holds exactly
	// when reception of a clean, on-time copy at a tile already buffering
	// the message is a pure dedup hit: no tombstones, no wire frames and
	// no overflow draw.
	elideDup bool
	// settleUpsets lets transmit settle an on-time analytic upset at the
	// sender: phase 4 would only count it as detected and emit EvUpset,
	// so with no OnEvent listener nothing can tell the difference.
	settleUpsets bool
	// skew caches Fault.SigmaSync > 0: without it SyncSlip draws nothing
	// and always returns 0, so transmit skips the call.
	skew bool
	// created and expired tally EvCreated and EvExpire emissions since New
	// (or Restore), and stepCreated is created as the latest Step found it
	// before its round began. See Tally.
	created, expired, stepCreated int
	// recycle caches cfg.Recycle for the hot paths (inflight/copy
	// accounting and the per-Step retirement barrier run only under it).
	recycle bool

	// bufOcc/rcvOcc are the two-level per-tile occupancy bitmaps the
	// phase loops iterate instead of sweeping every tile (occupancy.go).
	// Exact at round barriers; bufOcc bit set ⇔ send buffer non-empty,
	// rcvOcc bit set ⇔ arrival ring non-empty; the summary level (one
	// bit per 64-tile word) is the frontier the sweeps walk.
	bufOcc occMap
	rcvOcc occMap
	// procTiles lists the tiles with an attached Process, rebuilt from
	// procsDirty, so phase 1 visits only them.
	procTiles  []*tile
	procsDirty bool

	// The recycling pools (pool.go): wire frames of the literal-upset
	// path, arrival-ring bucket arrays, drained send buffers and the arena
	// the mailbox copies of deliveries are carved from.
	frames framePool
	rings  ringPool
	bufs   bufPool
	pkts   pktArena
	// borrowed points at the in-processing literal arrival whose payload
	// still aliases its pooled frame; deliver/enqueue clone the payload
	// (once, shared) the moment that packet is stored. Nil otherwise.
	borrowed *packet.Packet

	// digest caches ConfigDigest(&cfg) once digestSet; the config is fixed
	// between New, Restore or Reset and the next Reset.
	digest    uint32
	digestSet bool

	started bool
}

// New builds a network from cfg. Tile crash failures are sampled here,
// deterministically from cfg.Seed.
func New(cfg Config) (*Network, error) {
	n := new(Network)
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset rebuilds n from cfg: afterwards n is observably identical to what
// New(cfg) returns — same crash set, streams and counters, an empty
// message table, nothing attached, round 0 — but it reuses n's tile
// array, message table, occupancy maps and pools, so a replica runner that
// keeps one network per worker (sim.Hooks.Net) pays for rounds, not for
// construction. cfg may differ from the previous one in every field,
// fabric size included. Attached processes, routers, forward limits and
// undelivered mailboxes are dropped; attach anew as after New. The one
// observable difference is Mem's pool counters: PooledRings and PooledBufs
// count what the previous run handed back until the first round barrier
// trims them. Call Reset between Steps, like Snapshot. It fails exactly
// when New would; a Reset that fails leaves n unusable until one succeeds.
// Whatever was taken from n before (Injector, a Ctx.Rand stream) sees the
// new run.
func (n *Network) Reset(cfg Config) error {
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 10000
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	n.release()
	inj := n.inj
	if inj == nil {
		inj = new(fault.Injector)
	}
	master := rng.New(cfg.Seed)
	if err := inj.Reset(cfg.Topo, cfg.Fault, master.Split(0xfa017)); err != nil {
		return err
	}
	// Every field starts from its zero value, as in a new Network; only
	// storage carries over.
	*n = Network{
		cfg: cfg, topo: cfg.Topo, inj: inj, recycle: cfg.Recycle,
		procsDirty: true, pThresh: rng.MakeThreshold(cfg.P),
		upsetT: inj.UpsetThreshold(), overflowT: inj.OverflowThreshold(),
		elideDup: !cfg.StopSpreadOnDelivery && !cfg.Fault.LiteralUpsets &&
			inj.OverflowThreshold() == 0,
		settleUpsets: cfg.OnEvent == nil,
		skew:         cfg.Fault.SigmaSync > 0,

		tiles: n.tiles, portTab: n.portTab, colds: append(n.colds[:0], nil), tbl: n.tbl,
		bufOcc: n.bufOcc, rcvOcc: n.rcvOcc, procTiles: n.procTiles,
		frames: n.frames, rings: n.rings, bufs: n.bufs, pkts: n.pkts,
	}
	n.bufOcc.initOcc(cfg.Topo.Tiles())
	n.rcvOcc.initOcc(cfg.Topo.Tiles())
	n.tbl.initTable(cfg.Topo.Tiles(), n.recycle)
	n.tiles = zeroed(n.tiles, cfg.Topo.Tiles())
	ports := 0
	for i := range n.tiles {
		t := &n.tiles[i]
		t.id = packet.TileID(i)
		t.alive = inj.TileAlive(t.id)
		t.rnd = *master.Split(uint64(i) + 1)
		d := len(cfg.Topo.Neighbors(t.id))
		if d > math.MaxUint16 || uint64(ports+d) > math.MaxUint32 {
			return fmt.Errorf("core: tile %d's %d ports overflow the port table", i, d)
		}
		t.portOff, t.deg = uint32(ports), uint16(d)
		ports += d
	}
	// Without link crashes a link is up exactly when both ends are, and
	// the injector's link set need not be consulted port by port.
	linkFaults := inj.DeadLinkCount() > 0
	n.portTab = zeroed(n.portTab, ports)
	for i := range n.tiles {
		t := &n.tiles[i]
		for j, nb := range cfg.Topo.Neighbors(t.id) {
			up := t.alive && inj.TileAlive(nb)
			if up && linkFaults {
				up = inj.LinkAlive(t.id, nb)
			}
			n.portTab[t.portOff+uint32(j)] = makePort(nb, up)
		}
	}
	// Without synchronization skew every copy arrives in the round it was
	// sent, so one recycled arrival bucket per tile covers all traffic.
	n.rings.initLen = 1
	if cfg.Fault.SigmaSync > 0 {
		n.rings.initLen = ringInitLen
	}
	return nil
}

// release hands every tile's send buffer and arrival ring back to the
// pools, emptied and zeroed as the pools keep them, and zeroes the tiles,
// dropping their IP-core blocks (Reset). Afterwards nothing is armed.
func (n *Network) release() {
	for i := range n.tiles {
		t := &n.tiles[i]
		if t.sendBuf != nil {
			clear(t.sendBuf)
			n.bufs.put(t.sendBuf[:0])
		}
		t.ring.drain(&n.frames)
		n.rings.detach(&t.ring)
		*t = tile{}
	}
	clear(n.colds)
	clear(n.procTiles)
	n.procTiles = n.procTiles[:0]
}

// zeroed returns s resized to length l and zeroed, reusing its storage
// when it is large enough.
func zeroed[T any](s []T, l int) []T {
	if cap(s) < l {
		return make([]T, l)
	}
	s = s[:l]
	clear(s)
	return s
}

// ports returns t's window of the port table, in the topology's port
// order.
func (n *Network) ports(t *tile) []port {
	return n.portTab[t.portOff:][:t.deg]
}

// Attach maps proc onto tile t. It panics if t is out of range (a mapping
// bug, not a runtime condition). The tile's mailbox starts filling from
// this call on: packets delivered to t while it had no Process were never
// stored (see Process), so a Process attached mid-run sees only later
// deliveries. The one exception is a restored network, whose serialized
// mailboxes wait for the Process the caller re-attaches.
func (n *Network) Attach(t packet.TileID, proc Process) {
	n.coldOf(&n.tiles[t]).proc = proc
	n.procsDirty = true
}

// refreshProcs rebuilds the process-bearing tile list when Attach has run
// since the last rebuild. Phase 1 and Completed iterate procTiles instead
// of the whole mesh — on a mega-mesh with a handful of processes that is
// the difference between a few pointer loads and a quarter-million per
// round. Attachments made mid-round (from Init or Round) take effect at
// the next rebuild point, the start of the following Step.
func (n *Network) refreshProcs() {
	if !n.procsDirty {
		return
	}
	n.procsDirty = false
	n.procTiles = n.procTiles[:0]
	for i := range n.tiles {
		if t := &n.tiles[i]; n.process(t) != nil {
			n.procTiles = append(n.procTiles, t)
		}
	}
}

// SetForwardLimit caps how many distinct messages tile t may forward per
// round (0 = unlimited, the default). A limit of 1 models a serializing
// shared-bus bridge in the Chapter 5 hybrid architectures: excess
// messages stay buffered — and keep aging — until the bus frees up.
func (n *Network) SetForwardLimit(t packet.TileID, limit int) {
	n.coldOf(&n.tiles[t]).fwdLimit = limit
}

// SetRouter makes tile t a deterministic router: instead of gossiping
// every buffered message over every port with probability P, it forwards
// each message exactly once per round to the ports route returns. This is
// how the Chapter 5 hybrid architectures bridge gossip clusters — the
// bridge knows cluster addressing and confines traffic to the source and
// destination clusters. route must be pure; returning nil drops nothing
// (the message just stays buffered and ages).
func (n *Network) SetRouter(t packet.TileID, route func(p *packet.Packet) []packet.TileID) {
	n.coldOf(&n.tiles[t]).router = route
}

// Aware returns how many tiles know message id — they hold a copy now or
// have held one (the shaded tiles of the Fig. 3-3 walkthrough). The count
// is maintained incrementally as flags flip, so polling it every round
// (as the dissemination experiments do) is O(1), not a scan of the mesh.
// Under Config.Recycle a retired message answers with its final count,
// kept in the retired ledger.
func (n *Network) Aware(id packet.MsgID) int {
	if n.current(id) {
		return int(n.tbl.aware[msgSlot(id)])
	}
	return int(n.tbl.retired[id])
}

// AwareAt reports whether tile t knows message id (holds or has held a
// copy). Per-tile awareness of a message retired by Config.Recycle is
// forgotten with its slot: AwareAt then reports false even if Aware still
// reports the ledgered count.
func (n *Network) AwareAt(id packet.MsgID, t packet.TileID) bool {
	if uint(t) >= uint(len(n.tiles)) {
		return false
	}
	return n.flagsOf(&n.tiles[t], id) != 0
}

// Quiescent reports whether no tile holds a live message and nothing is
// in flight — the network has drained. Energy comparisons step until
// quiescence so that every transmission a workload causes is billed.
// The occupancy bitmaps are exact at round barriers (occupancy.go), so
// the check is O(tiles/4096) summary compares plus one word load per
// active word.
func (n *Network) Quiescent() bool {
	return n.bufOcc.empty() && n.rcvOcc.empty()
}

// Drain steps the network until it is quiescent or maxRounds more rounds
// elapse, returning the number of extra rounds taken.
func (n *Network) Drain(maxRounds int) int {
	for i := 0; i < maxRounds; i++ {
		if n.Quiescent() {
			return i
		}
		n.Step()
	}
	return maxRounds
}

// Process returns the process attached to tile t, or nil.
func (n *Network) Process(t packet.TileID) Process { return n.process(&n.tiles[t]) }

// Injector exposes the sampled fault state (read-only use).
func (n *Network) Injector() *fault.Injector { return n.inj }

// Round returns the index of the round about to execute (or just
// executed, from within OnRoundEnd).
func (n *Network) Round() int { return n.round }

// Counters returns a snapshot of the run's counters.
func (n *Network) Counters() Counters { return n.cnt }

// Tally returns how many EvCreated and EvExpire events this Network value
// has emitted — counted whether or not Config.OnEvent is set, and from New
// or Restore on, exactly as a hook attached there would see them. atStep
// is created as the latest Step found it before its round began: the
// creations it counts carry earlier rounds (an Inject between rounds is
// labelled with the round just run), those after it the latest Step's
// round. Unlike Counters the tally is not part of a snapshot: a restored
// network starts it at zero. Together with Counters (Energy.Transmissions,
// UpsetsDetected, OverflowDrops, Deliveries) it counts every event kind.
func (n *Network) Tally() (created, expired, atStep int) {
	return n.created, n.expired, n.stepCreated
}

// Topology returns the fabric.
func (n *Network) Topology() topology.Topology { return n.topo }

// Inject creates a new message originating at tile src before the
// simulation starts (or between rounds), bypassing any Process. It is the
// entry point for pure-dissemination experiments.
//
// A payload longer than packet.MaxPayload cannot be framed, so Inject
// rejects it up front with packet.ErrTooLarge — no message is created and
// no ID is consumed. This is the only error Inject returns.
//
// Contract for a crashed source: a dead tile cannot talk, so the message
// is silently dropped — but the returned MsgID is still consumed from the
// ID space (IDs identify injection attempts, not successful ones).
// The caller cannot distinguish the no-op from the return value alone;
// check Injector().TileAlive(src) beforehand, or observe that Aware(id)
// stays 0 — a live injection always has Aware(id) >= 1 (the originator
// knows its own rumor).
func (n *Network) Inject(src, dst packet.TileID, kind packet.Kind, payload []byte) (packet.MsgID, error) {
	if len(payload) > packet.MaxPayload {
		return 0, packet.ErrTooLarge
	}
	id := n.newMsgID()
	if !n.inj.TileAlive(src) {
		return id, nil
	}
	// The originator knows its own rumor: never deliver it back to src.
	n.setSeen(&n.tiles[src], id)
	n.created++
	n.emit(EvCreated, src, src, id)
	n.enqueue(&n.tiles[src], &packet.Packet{
		ID: id, Src: src, Dst: dst, Kind: kind, TTL: n.cfg.TTL, Payload: payload,
	})
	return id, nil
}

// emit publishes a protocol event if a listener is attached.
func (n *Network) emit(kind EventKind, tile, peer packet.TileID, msg packet.MsgID) {
	if n.cfg.OnEvent != nil {
		n.cfg.OnEvent(Event{Round: n.round, Kind: kind, Tile: tile, Peer: peer, Msg: msg})
	}
}

// Step executes one full gossip round across all tiles. Rounds are
// numbered from 1; a message forwarded during round r arrives at the far
// end of the link within round r (one hop per round), so under flooding a
// message is delivered at round = Manhattan distance, matching the
// Fig. 3-3 walkthrough.
//
// The round body is split into phase functions (phase.go), run in order
// on the stepping goroutine: the engine is single-threaded, and replicas
// are what runs in parallel (package sim).
func (n *Network) Step() {
	if !n.started {
		n.started = true
		for i := range n.tiles {
			if c := n.cold(&n.tiles[i]); c != nil && c.proc != nil && n.tiles[i].alive {
				c.proc.Init(&c.ctx)
			}
		}
	}
	n.refreshProcs()
	n.stepCreated = n.created
	n.round++

	n.phaseCompute()
	n.sweep(sweepAge)
	n.sweep(sweepForward)
	n.sweep(sweepReceive)
	// Round barrier: no phase is executing, so the pools' free lists are
	// cut back to their armed counts (see pool).
	n.rings.trim()
	n.bufs.trim()
	if n.recycle {
		// Expired-everywhere messages can be retired before observers
		// sample the round (they see ledgered Aware counts, same values).
		n.retireExpired()
	}
	if n.cfg.OnRoundEnd != nil {
		n.cfg.OnRoundEnd(n.round, n)
	}
}

// Reseed re-derives every tile's random stream from seed, exactly as New
// does from Config.Seed (tile i gets Split(i+1) of a fresh master
// stream). It exists for trajectory forking: rare-event importance
// splitting (internal/smc) restores several networks from one snapshot —
// which, by the checkpoint contract, would replay identical futures —
// and Reseeds each fork so their continuations are independent while
// staying deterministic in the fork seed. It must be called at a round
// barrier, like Snapshot. The sampled crash set and the issued message
// IDs are untouched: only the forward-looking randomness (forwarding
// draws, upset/overflow/skew draws, application randomness) changes.
func (n *Network) Reseed(seed uint64) {
	master := rng.New(seed)
	for i := range n.tiles {
		n.tiles[i].rnd = *master.Split(uint64(i) + 1)
	}
}

// Completed reports whether every live Completer process is done. With no
// Completer attached it returns false (run to MaxRounds).
func (n *Network) Completed() bool {
	n.refreshProcs()
	any := false
	for _, t := range n.procTiles {
		if !t.alive {
			continue
		}
		c, ok := n.cold(t).proc.(Completer)
		if !ok {
			continue
		}
		any = true
		if !c.Done() {
			return false
		}
	}
	return any
}

// Result summarizes one run.
type Result struct {
	// Rounds is the number of rounds executed when the run stopped.
	Rounds int
	// Completed reports whether the application-level completion
	// predicate was satisfied (false = the MaxRounds guillotine fired,
	// the thesis' "application failed completely" outcome).
	Completed bool
	// Counters holds traffic and fault statistics.
	Counters Counters
}

// Run steps the network until completion or cfg.MaxRounds.
func (n *Network) Run() Result {
	for n.round < n.cfg.MaxRounds {
		n.Step()
		if n.Completed() {
			return Result{Rounds: n.round, Completed: true, Counters: n.cnt}
		}
	}
	return Result{Rounds: n.round, Completed: false, Counters: n.cnt}
}

// RunWhile steps the network until cond returns false or MaxRounds is
// reached; it reports Completed = !cond at exit. Used by dissemination
// experiments with external termination conditions.
func (n *Network) RunWhile(cond func(*Network) bool) Result {
	for n.round < n.cfg.MaxRounds {
		if !cond(n) {
			return Result{Rounds: n.round, Completed: true, Counters: n.cnt}
		}
		n.Step()
	}
	return Result{Rounds: n.round, Completed: !cond(n), Counters: n.cnt}
}

// Ctx is the per-round view a Process has of its tile: the hardware
// interface of Fig. 3-5 from the IP core's side of the buffers. The
// engine reuses one Ctx per tile across rounds, so a Process must use the
// Ctx only within the Init/Round/Receive call that handed it over, and
// must not retain the Delivered slice past the Round call (the mailbox is
// recycled).
type Ctx struct {
	net       *Network
	tile      *tile
	delivered []*packet.Packet
}

// Self returns the hosting tile's ID. A zero Ctx (as unit tests hand to
// Receive implementations directly) reports tile 0.
func (c *Ctx) Self() packet.TileID {
	if c.tile == nil {
		return 0
	}
	return c.tile.id
}

// Round returns the current round index (0 for a zero Ctx).
func (c *Ctx) Round() int {
	if c.net == nil {
		return 0
	}
	return c.net.round
}

// Delivered returns the messages addressed to this tile that arrived since
// the previous round, each delivered exactly once. Only packets that
// arrived while a Process was attached are here: a tile stores nothing
// before its first Attach (see Process).
func (c *Ctx) Delivered() []*packet.Packet { return c.delivered }

// Send creates a new message and hands it to the communication fabric.
// The IP core neither knows nor cares where dst is — locating it is the
// gossip layer's job. A payload longer than packet.MaxPayload cannot be
// framed: Send rejects it with packet.ErrTooLarge, consuming no message
// ID — the only error Send returns. Processes that only ever send small
// fixed payloads may ignore the error.
func (c *Ctx) Send(dst packet.TileID, kind packet.Kind, payload []byte) (packet.MsgID, error) {
	if len(payload) > packet.MaxPayload {
		return 0, packet.ErrTooLarge
	}
	id := c.net.newMsgID()
	// The originator knows its own rumor: never deliver it back.
	c.net.setSeen(c.tile, id)
	c.net.created++
	c.net.emit(EvCreated, c.tile.id, c.tile.id, id)
	c.net.enqueue(c.tile, &packet.Packet{
		ID: id, Src: c.tile.id, Dst: dst, Kind: kind,
		TTL: c.net.cfg.TTL, Payload: payload,
	})
	return id, nil
}

// Broadcast creates a message addressed to every tile. It propagates
// Send's packet.ErrTooLarge for oversized payloads.
func (c *Ctx) Broadcast(kind packet.Kind, payload []byte) (packet.MsgID, error) {
	return c.Send(packet.Broadcast, kind, payload)
}

// Rand returns the tile-local random stream for application use (e.g.
// randomized workloads); consuming it does not perturb other tiles.
func (c *Ctx) Rand() *rng.Stream { return &c.tile.rnd }
