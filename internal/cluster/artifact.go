package cluster

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/anomaly"
	"repro/internal/autoencoder"
	"repro/internal/nn"
	"repro/internal/seq2seq"
	"repro/internal/transport"
)

// Model-shipping artifacts: a trained detector is captured as a
// transport.ModelSnapshot (nn.Snapshot weights + scorer state + metadata),
// which can be written to disk (-save/-load on hecnode), served to peers
// over the chunked model-distribution RPCs, and rebuilt into a working
// detector with
// RestoreDetector. The snapshot carries values only; architecture always
// comes from the package builders, so a restore fails loudly on any shape
// mismatch rather than silently loading a different model.

// Model kinds understood by SnapshotDetector / RestoreDetector.
const (
	KindAutoencoder = "autoencoder"
	KindSeq2Seq     = "seq2seq"
)

// SnapshotDetector captures a trained detector for shipping. tier names the
// HEC tier the model was built for ("IoT", "Edge" or "Cloud"); quantized
// records whether the weights were FP16-compressed (the values already carry
// the rounding, the flag is provenance).
func SnapshotDetector(det anomaly.Detector, tier string, quantized bool) (*transport.ModelSnapshot, error) {
	if _, err := parseTier(tier); err != nil {
		return nil, err
	}
	switch m := det.(type) {
	case *autoencoder.Model:
		if m.Scorer == nil {
			return nil, fmt.Errorf("cluster: %s is not fitted; nothing to snapshot", m.Name())
		}
		return &transport.ModelSnapshot{
			Kind:      KindAutoencoder,
			Tier:      tier,
			InputDim:  m.InputDim(),
			Quantized: quantized,
			Weights:   nn.TakeSnapshot(m.Net.Params()),
			Scorer:    m.Scorer.State(),
			Conf:      m.Conf,
		}, nil
	case *seq2seq.Model:
		if m.Scorer == nil {
			return nil, fmt.Errorf("cluster: %s is not fitted; nothing to snapshot", m.Name())
		}
		return &transport.ModelSnapshot{
			Kind:      KindSeq2Seq,
			Tier:      tier,
			Quantized: quantized,
			Weights:   nn.TakeSnapshot(m.Net.Params()),
			Scorer:    m.Scorer.State(),
			Conf:      m.Conf,
		}, nil
	default:
		return nil, fmt.Errorf("cluster: cannot snapshot detector type %T", det)
	}
}

// RestoreDetector rebuilds a working detector from a shipped snapshot and
// reports whether it is recurrent (drives the LSTM throughput curve in the
// compute model). Seq2seq models are rebuilt at seq2seq.DefaultSizing — the
// only sizing the node binaries train with; a snapshot from a differently
// sized model fails the weight restore with a shape mismatch.
func RestoreDetector(snap *transport.ModelSnapshot) (anomaly.Detector, bool, error) {
	if snap == nil {
		return nil, false, fmt.Errorf("cluster: nil model snapshot")
	}
	if snap.Weights == nil || snap.Scorer == nil {
		return nil, false, fmt.Errorf("cluster: model snapshot for %s/%s is missing weights or scorer", snap.Kind, snap.Tier)
	}
	tier, err := parseTier(snap.Tier)
	if err != nil {
		return nil, false, err
	}
	scorer, err := anomaly.ScorerFromState(snap.Scorer)
	if err != nil {
		return nil, false, err
	}
	// The builder RNG only seeds weights that Restore overwrites.
	rng := rand.New(rand.NewSource(1))
	switch snap.Kind {
	case KindAutoencoder:
		m, err := autoencoder.New(tier, snap.InputDim, rng)
		if err != nil {
			return nil, false, err
		}
		if err := snap.Weights.Restore(m.Net.Params()); err != nil {
			return nil, false, fmt.Errorf("cluster: restoring %s weights: %w", m.Name(), err)
		}
		m.Scorer = scorer
		m.Conf = snap.Conf
		return m, false, nil
	case KindSeq2Seq:
		m, err := seq2seq.New(tier, seq2seq.DefaultSizing(), rng)
		if err != nil {
			return nil, false, err
		}
		if err := snap.Weights.Restore(m.Net.Params()); err != nil {
			return nil, false, fmt.Errorf("cluster: restoring %s weights: %w", m.Name(), err)
		}
		m.Scorer = scorer
		m.Conf = snap.Conf
		return m, true, nil
	default:
		return nil, false, fmt.Errorf("cluster: unknown model kind %q", snap.Kind)
	}
}

// SaveModel writes a snapshot to path as its canonical HECM payload — the
// same bytes the distribution RPCs ship, so a saved file hashes to the
// model version a serving node advertises.
func SaveModel(path string, snap *transport.ModelSnapshot) error {
	payload, err := transport.EncodeModel(snap, nil)
	if err != nil {
		return fmt.Errorf("cluster: encoding model for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cluster: creating model file: %w", err)
	}
	_, err = f.Write(payload)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cluster: writing model to %s: %w", path, err)
	}
	return nil
}

// LoadModel reads a snapshot previously written with SaveModel. A
// truncated or foreign file fails to decode with an error.
func LoadModel(path string) (*transport.ModelSnapshot, error) {
	payload, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening model file: %w", err)
	}
	snap, err := transport.DecodeModel(payload)
	if err != nil {
		return nil, fmt.Errorf("cluster: decoding model from %s: %w", path, err)
	}
	return snap, nil
}

func parseTier(name string) (autoencoder.Tier, error) {
	switch name {
	case "IoT":
		return autoencoder.TierIoT, nil
	case "Edge":
		return autoencoder.TierEdge, nil
	case "Cloud":
		return autoencoder.TierCloud, nil
	default:
		return 0, fmt.Errorf("cluster: unknown tier %q (IoT|Edge|Cloud)", name)
	}
}
