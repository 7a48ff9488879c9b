// Package hec models the paper's three-layer hierarchical edge computing
// testbed — IoT device (Raspberry Pi 3), edge server (Jetson TX2) and cloud
// (GPU Devbox) — deploys one detector per layer, precomputes every
// (sample, layer) detection, and trains the proposed scheme's policy by
// REINFORCE over those detections. The schemes themselves run in
// internal/cluster, the one engine behind both Table II and live serving.
//
// Execution times come from a calibrated compute model (per-model FLOPs ÷
// per-device throughput); network delays come from a per-hop latency model
// reverse-engineered from Table II (250 ms RTT per hop — see DESIGN.md §3).
// Absolute times therefore track the paper's hardware measurements for the
// default model suite, and scale sensibly when models change.
package hec

import (
	"fmt"

	"repro/internal/anomaly"
)

// Layer indexes an HEC tier, bottom to top.
type Layer int

// The three layers of the testbed. The paper's approach generalises to any
// K; this implementation fixes K = 3 like the paper's evaluation.
const (
	LayerIoT Layer = iota
	LayerEdge
	LayerCloud
	// NumLayers is K.
	NumLayers = 3
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerIoT:
		return "IoT"
	case LayerEdge:
		return "Edge"
	case LayerCloud:
		return "Cloud"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// DeviceProfile is one tier's compute capability. Dense and recurrent
// throughputs differ because recurrent models are sequential and achieve a
// lower fraction of peak on every device (the paper's CuDNNLSTM only
// partially closes that gap).
type DeviceProfile struct {
	// Name labels the hardware being modelled.
	Name string
	// DenseFlopsPerMs is throughput on feed-forward (autoencoder) models.
	DenseFlopsPerMs float64
	// RecurrentFlopsPerMs is throughput on LSTM-family models.
	RecurrentFlopsPerMs float64
	// OverheadMs is a fixed per-invocation cost.
	OverheadMs float64
}

// Link is the network hop between two adjacent tiers.
type Link struct {
	// OneWayMs is the propagation delay in one direction.
	OneWayMs float64
	// KBPerMs is payload bandwidth; 0 means transfer time is negligible
	// (the latency-dominated regime of the paper's tc-emulated WAN).
	KBPerMs float64
}

// Topology is the full testbed description.
type Topology struct {
	Devices [NumLayers]DeviceProfile
	// Links[0] connects IoT↔Edge, Links[1] Edge↔Cloud.
	Links [NumLayers - 1]Link
}

// DefaultTopology returns the testbed calibrated against the paper's
// Table I execution times and Table II delay deltas for the default model
// suite (see the calibration notes in DESIGN.md). Throughputs increase
// strictly from IoT to cloud; each hop contributes a 250 ms RTT.
func DefaultTopology() Topology {
	return Topology{
		Devices: [NumLayers]DeviceProfile{
			{Name: "raspberry-pi-3", DenseFlopsPerMs: 1.3006e3, RecurrentFlopsPerMs: 2.0099e3},
			{Name: "jetson-tx2", DenseFlopsPerMs: 1.7851e4, RecurrentFlopsPerMs: 8.2057e3},
			{Name: "gpu-devbox", DenseFlopsPerMs: 2.3734e5, RecurrentFlopsPerMs: 4.2846e4},
		},
		Links: [NumLayers - 1]Link{
			{OneWayMs: 125},
			{OneWayMs: 125},
		},
	}
}

// ExecTimeMs returns the execution time of a detector processing a T-frame
// window at the given layer. recurrent selects the LSTM throughput curve.
func (t Topology) ExecTimeMs(layer Layer, d anomaly.Detector, T int, recurrent bool) (float64, error) {
	if layer < 0 || layer >= NumLayers {
		return 0, fmt.Errorf("hec: layer %d out of range", int(layer))
	}
	dev := t.Devices[layer]
	tput := dev.DenseFlopsPerMs
	if recurrent {
		tput = dev.RecurrentFlopsPerMs
	}
	if tput <= 0 {
		return 0, fmt.Errorf("hec: device %q has no throughput", dev.Name)
	}
	return float64(d.FlopsPerWindow(T))/tput + dev.OverheadMs, nil
}

// ExecTimeFunc returns a frames→milliseconds closure for serving detector d
// at the given layer — the shape transport servers and live devices consume.
// Errors map to 0 ms: the execution time is an advisory simulation input,
// and the closure runs per request where there is no error channel; the
// layer/detector combination is validated once here instead.
func (t Topology) ExecTimeFunc(layer Layer, d anomaly.Detector, recurrent bool) (func(frames int) float64, error) {
	if _, err := t.ExecTimeMs(layer, d, 1, recurrent); err != nil {
		return nil, err
	}
	return func(frames int) float64 {
		ms, err := t.ExecTimeMs(layer, d, frames, recurrent)
		if err != nil {
			return 0
		}
		return ms
	}, nil
}

// RTTMs returns the round-trip network time from the IoT device to the
// given layer for a payload of payloadKB (uplink payload, assumed small
// downlink result). Layer IoT costs nothing.
func (t Topology) RTTMs(layer Layer, payloadKB float64) (float64, error) {
	if layer < 0 || layer >= NumLayers {
		return 0, fmt.Errorf("hec: layer %d out of range", int(layer))
	}
	var total float64
	for hop := 0; hop < int(layer); hop++ {
		l := t.Links[hop]
		total += 2 * l.OneWayMs
		if l.KBPerMs > 0 {
			total += payloadKB / l.KBPerMs
		}
	}
	return total, nil
}
