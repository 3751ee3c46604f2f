package stochnoc

import (
	"repro/internal/apps/beamform"
	"repro/internal/apps/fft2d"
	"repro/internal/apps/mp3"
	"repro/internal/apps/pisum"
	"repro/internal/apps/prodcons"
	"repro/internal/audio/encoder"
	"repro/internal/audio/signal"
	"repro/internal/directed"
	"repro/internal/diversity"
	"repro/internal/reliable"
	"repro/internal/xyrouting"
)

// Case-study applications (thesis Chapter 4) and the Chapter 5
// architecture comparison, re-exported so example programs and downstream
// users can run the evaluation workloads through the public API.

// Producer–Consumer (§3.2.1).
type (
	// Producer streams sequence-numbered messages to a destination tile.
	Producer = prodcons.Producer
	// Consumer counts distinct received messages.
	Consumer = prodcons.Consumer
)

// NewConsumer returns a Consumer expecting `expect` messages.
func NewConsumer(expect int) *Consumer { return prodcons.NewConsumer(expect) }

// Master–Slave π computation (§4.1.1).
type (
	// PiApp is a wired Master–Slave instance.
	PiApp = pisum.App
)

// SetupPi attaches a π master at masterTile plus the given slave replica
// sets; intervals is the quadrature resolution.
func SetupPi(net *Network, masterTile TileID, slaveTiles [][]TileID, intervals int) (*PiApp, error) {
	return pisum.Setup(net, masterTile, slaveTiles, intervals)
}

// ReferencePi computes the same quadrature serially.
func ReferencePi(intervals int) float64 { return pisum.ReferencePi(intervals) }

// Parallel 2-D FFT (§4.1.2).
type (
	// FFT2App is a wired distributed-FFT2 instance.
	FFT2App = fft2d.App
)

// SetupFFT2 attaches an FFT2 root and its worker replicas; input must be
// a power-of-two matrix.
func SetupFFT2(net *Network, rootTile TileID, workers [][]TileID, input [][]complex128) (*FFT2App, error) {
	return fft2d.Setup(net, rootTile, workers, input)
}

// MP3 encoder pipeline (§4.2).
type (
	// MP3Tiles assigns the six pipeline stages to tiles.
	MP3Tiles = mp3.Tiles
	// MP3Pipeline is a wired six-stage encoder.
	MP3Pipeline = mp3.Pipeline
	// MP3Output is the output stage's measurements.
	MP3Output = mp3.Output
	// EncoderConfig parameterizes the perceptual audio encoder.
	EncoderConfig = encoder.Config
	// AudioSynth generates deterministic PCM program material.
	AudioSynth = signal.Synth
	// AudioTone is one sinusoidal component of an AudioSynth.
	AudioTone = signal.Tone
)

// DefaultMP3Tiles is the standard 4×4 stage placement of the experiments.
func DefaultMP3Tiles() MP3Tiles { return mp3.DefaultTiles() }

// SetupMP3 attaches the six-stage encoder pipeline to net.
func SetupMP3(net *Network, tiles MP3Tiles, cfg EncoderConfig, src *AudioSynth, frames int) (*MP3Pipeline, error) {
	return mp3.Setup(net, tiles, cfg, src, frames)
}

// DefaultProgram is the standard synthetic audio used by the experiments.
func DefaultProgram() *AudioSynth { return signal.DefaultProgram() }

// Acoustic beamforming (Chapter 5 workload).
type (
	// BeamformApp is a wired sensor-array instance.
	BeamformApp = beamform.App
)

// SetupBeamforming attaches a delay-and-sum array: sensor i (delayed by
// delays[i] samples, with selfNoise front-end noise) streams `blocks`
// blocks of blockLen samples to aggTile, pacing one block per `pace`
// rounds.
func SetupBeamforming(net *Network, aggTile TileID, sensorTiles []TileID,
	delays []int, src *AudioSynth, selfNoise float64, blockLen, blocks, pace int) (*BeamformApp, error) {
	return beamform.Setup(net, aggTile, sensorTiles, delays, src, selfNoise, blockLen, blocks, pace)
}

// On-chip diversity (Chapter 5).
type (
	// DiversityKind names one of the Fig. 5-2 architectures.
	DiversityKind = diversity.Kind
	// DiversityResult is one architecture's measured outcome.
	DiversityResult = diversity.Result
	// DiversityConfig parameterizes the comparison.
	DiversityConfig = diversity.CompareConfig
)

// The three compared architectures.
const (
	FlatNoC          = diversity.FlatNoC
	HierarchicalNoC  = diversity.HierarchicalNoC
	BusConnectedNoCs = diversity.BusConnectedNoCs
)

// CompareDiversity runs the beamforming workload on all three
// architectures (Fig. 5-3).
func CompareDiversity(cfg DiversityConfig) ([]*DiversityResult, error) {
	return diversity.Compare(cfg)
}

// Reliable transport (§4.2.3's "higher level protocol").
type (
	// ReliableEndpoint adds ACK + retransmission on top of gossip,
	// upgrading w.h.p. delivery to exactly-once delivery.
	ReliableEndpoint = reliable.Endpoint
	// ReliableDelivery is an application payload surfaced by the layer.
	ReliableDelivery = reliable.Delivery
)

// NewReliableEndpoint returns an endpoint with default retry timing.
func NewReliableEndpoint() *ReliableEndpoint { return reliable.NewEndpoint() }

// GridBias returns a Config.PortWeight skewing forwarding toward each
// packet's destination (destination-biased gossip; bias in [0, 1]).
func GridBias(g *Grid, bias float64) (func(from, to TileID, p *Packet) float64, error) {
	return directed.GridBias(g, bias)
}

// InstallXYRouting turns every tile of a grid network into a
// deterministic dimension-ordered router — the brittle static-routing
// baseline the paper's introduction argues against.
func InstallXYRouting(net *Network) error { return xyrouting.Install(net) }
