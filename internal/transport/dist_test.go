package transport

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/nn"
)

// distSnapshot builds a three-tensor snapshot covering every dtype the
// canonical codec can pick: "dense" holds values no narrow encoding
// reproduces (f64), "gain" holds fp16-exact values in a shape too narrow
// for int8 to pay off, and "panel" holds int8-exact values in a row wide
// enough that the per-row scale amortises.
func distSnapshot() *ModelSnapshot {
	panel := make([]float64, 2*16)
	for i := range panel {
		// Multiples of the row's power-of-two scale (maxAbs 1 → 2^-6):
		// bit-exact under int8 quantization.
		panel[i] = float64(i%5-2) * 0.25
	}
	return &ModelSnapshot{
		Kind:     "autoencoder",
		Tier:     "IoT",
		InputDim: 4,
		Weights: &nn.Snapshot{
			Names:  []string{"dense", "gain", "panel"},
			Shapes: [][2]int{{2, 2}, {1, 4}, {2, 16}},
			Values: [][]float64{
				{math.Pi, 1.0 / 3.0, -math.E, 0.1},
				{1, -0.5, 0.25, 2},
				panel,
			},
		},
		Scorer: &anomaly.ScorerState{Mean: []float64{0.1}, Cov: []float64{1.5}, Threshold: -3},
		Conf:   anomaly.DefaultConfidence(),
	}
}

func sameSnapshot(t *testing.T, got, want *ModelSnapshot) {
	t.Helper()
	if got.Kind != want.Kind || got.Tier != want.Tier || got.InputDim != want.InputDim || got.Quantized != want.Quantized {
		t.Fatalf("header %+v, want %+v", got, want)
	}
	if got.Conf != want.Conf {
		t.Fatalf("confidence %+v, want %+v", got.Conf, want.Conf)
	}
	if (got.Scorer == nil) != (want.Scorer == nil) {
		t.Fatalf("scorer presence mismatch")
	}
	if want.Scorer != nil && got.Scorer.Threshold != want.Scorer.Threshold {
		t.Fatalf("threshold %g, want %g", got.Scorer.Threshold, want.Scorer.Threshold)
	}
	gw, ww := got.Weights, want.Weights
	if len(gw.Names) != len(ww.Names) {
		t.Fatalf("%d tensors, want %d", len(gw.Names), len(ww.Names))
	}
	for i, name := range ww.Names {
		if gw.Names[i] != name || gw.Shapes[i] != ww.Shapes[i] {
			t.Fatalf("tensor %d: %s %v, want %s %v", i, gw.Names[i], gw.Shapes[i], name, ww.Shapes[i])
		}
		for j, v := range ww.Values[i] {
			if math.Float64bits(gw.Values[i][j]) != math.Float64bits(v) {
				t.Fatalf("tensor %q value %d: %v, want %v (not bit-exact)", name, j, gw.Values[i][j], v)
			}
		}
	}
}

func TestModelCodecRoundTrip(t *testing.T) {
	snap := distSnapshot()
	payload, err := EncodeModel(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(payload)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, got, snap)

	// The per-tensor record sizes prove the dtype auto-selection: the
	// record is name (4+len) + rows/cols (8) + dtype byte + values.
	man, err := ManifestOf(snap)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := map[string]int{
		"dense": (4 + 5) + 8 + 1 + 4*8,      // f64: 8 B/value
		"gain":  (4 + 4) + 8 + 1 + 4*2,      // fp16: 2 B/value
		"panel": (4 + 5) + 8 + 1 + 2*(8+16), // i8: 8 B scale + 1 B/value per row
	}
	for _, td := range man.Tensors {
		if td.Bytes != wantBytes[td.Name] {
			t.Errorf("tensor %q record = %d bytes, want %d (wrong dtype picked)", td.Name, td.Bytes, wantBytes[td.Name])
		}
	}
}

func TestModelVersionDeterministicAndSensitive(t *testing.T) {
	a, err := ManifestOf(distSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ManifestOf(distSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != b.Version {
		t.Fatalf("same snapshot hashed to %s and %s", a.Version, b.Version)
	}

	mut := distSnapshot()
	mut.Weights.Values[0][0] += 1e-9
	c, err := ManifestOf(mut)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version == a.Version {
		t.Fatal("a mutated value must change the version")
	}
	if diff := c.Diff(a); len(diff) != 1 || diff[0] != "dense" {
		t.Fatalf("diff = %v, want [dense]", diff)
	}
	if diff := a.Diff(a); diff != nil {
		t.Fatalf("self-diff = %v, want none", diff)
	}
	if diff := a.Diff(nil); len(diff) != 3 {
		t.Fatalf("diff against nothing = %v, want all three tensors", diff)
	}

	// Same values, different shape: the digest must notice (the record
	// hashes header and values both).
	reshaped := distSnapshot()
	reshaped.Weights.Shapes[0] = [2]int{4, 1}
	d, err := ManifestOf(reshaped)
	if err != nil {
		t.Fatal(err)
	}
	if td, _ := d.Tensor("dense"); func() string { x, _ := a.Tensor("dense"); return x.Digest }() == td.Digest {
		t.Fatal("reshaped tensor kept its digest")
	}
}

func TestModelDeltaEncodeAndMerge(t *testing.T) {
	base := distSnapshot()
	next := distSnapshot()
	next.Weights.Values[1][2] = 0.75 // still fp16-exact
	next.Scorer.Threshold = -2.5     // retrained threshold rides the header

	delta, err := EncodeModel(next, []string{"gain"})
	if err != nil {
		t.Fatal(err)
	}
	full, err := EncodeModel(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(full) {
		t.Fatalf("delta (%d B) not smaller than full payload (%d B)", len(delta), len(full))
	}

	deltaSnap, err := DecodeModel(delta)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltaSnap.Weights.Names) != 1 || deltaSnap.Weights.Names[0] != "gain" {
		t.Fatalf("delta carries %v, want [gain]", deltaSnap.Weights.Names)
	}
	merged, err := MergeModel(base, deltaSnap)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, merged, next)
	// Merged storage must be private: mutating it must not touch base.
	merged.Weights.Values[0][0] = 99
	if base.Weights.Values[0][0] == 99 {
		t.Fatal("merge aliased the base snapshot's storage")
	}

	// A header-only delta (zero tensors) still lands the new threshold.
	headerOnly, err := EncodeModel(next, []string{})
	if err != nil {
		t.Fatal(err)
	}
	hoSnap, err := DecodeModel(headerOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(hoSnap.Weights.Names) != 0 {
		t.Fatalf("header-only delta carries tensors %v", hoSnap.Weights.Names)
	}
	merged2, err := MergeModel(base, hoSnap)
	if err != nil {
		t.Fatal(err)
	}
	if merged2.Scorer.Threshold != -2.5 {
		t.Fatalf("threshold after header-only merge = %g, want -2.5", merged2.Scorer.Threshold)
	}

	if _, err := EncodeModel(next, []string{"no-such-tensor"}); err == nil {
		t.Fatal("unknown want tensor must be rejected")
	}
	alien := distSnapshot()
	alien.Weights.Names[0] = "renamed"
	alienDelta, err := EncodeModel(alien, []string{"renamed"})
	if err != nil {
		t.Fatal(err)
	}
	alienSnap, err := DecodeModel(alienDelta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeModel(base, alienSnap); err == nil {
		t.Fatal("delta naming a tensor the base lacks must force a full fetch")
	}
}

// TestDuplicateTensorNamesCanonicalize: real nn snapshots name parameters
// per layer ("W", "b", "W", "b"), so the codec must qualify duplicates
// positionally — deterministically on every node — and a delta against a
// raw (unqualified) base must still merge.
func TestDuplicateTensorNamesCanonicalize(t *testing.T) {
	raw := func() *ModelSnapshot {
		return &ModelSnapshot{
			Kind: "autoencoder", Tier: "IoT", InputDim: 2,
			Weights: &nn.Snapshot{
				Names:  []string{"W", "b", "W", "b"},
				Shapes: [][2]int{{2, 2}, {1, 2}, {2, 2}, {1, 2}},
				Values: [][]float64{{1, 2, 3, 4}, {5, 6}, {7, 8, 9, 10}, {11, 12}},
			},
			Scorer: &anomaly.ScorerState{Mean: []float64{0}, Cov: []float64{1}, Threshold: -1},
			Conf:   anomaly.DefaultConfidence(),
		}
	}
	man, err := ManifestOf(raw())
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"W@0", "b@1", "W@2", "b@3"}
	for i, td := range man.Tensors {
		if td.Name != wantNames[i] {
			t.Fatalf("manifest names = %v, want %v", man.Tensors, wantNames)
		}
	}

	// encode→decode→encode is a fixed point: the decoded snapshot carries
	// the qualified names and hashes to the same version.
	payload, err := EncodeModel(raw(), nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeModel(payload)
	if err != nil {
		t.Fatal(err)
	}
	man2, err := ManifestOf(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Version != man.Version {
		t.Fatalf("round-trip changed the version: %.8s vs %.8s", man2.Version, man.Version)
	}

	// A delta of one layer's weights merges over the raw base.
	next := raw()
	next.Weights.Values[2][0] = -7
	delta, err := EncodeModel(next, []string{"W@2"})
	if err != nil {
		t.Fatal(err)
	}
	deltaSnap, err := DecodeModel(delta)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeModel(raw(), deltaSnap)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Weights.Values[2][0] != -7 || merged.Weights.Values[0][0] != 1 {
		t.Fatalf("merge over raw base mangled values: %v", merged.Weights.Values)
	}
	man3, err := ManifestOf(merged)
	if err != nil {
		t.Fatal(err)
	}
	nextMan, err := ManifestOf(next)
	if err != nil {
		t.Fatal(err)
	}
	if man3.Version != nextMan.Version {
		t.Fatalf("merged snapshot hashes to %.8s, want %.8s", man3.Version, nextMan.Version)
	}
}

func TestDecodeModelRejectsCorruptPayloads(t *testing.T) {
	payload, err := EncodeModel(distSnapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XECM"), payload[4:]...),
		"bad layout": func() []byte { p := append([]byte(nil), payload...); p[4] = 99; return p }(),
		"truncated":  payload[:len(payload)/2],
		"short tail": payload[:len(payload)-3],
		"trailing":   append(append([]byte(nil), payload...), 0xEE),
	}
	for name, p := range cases {
		if _, err := DecodeModel(p); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
}

// bigSnapshot returns a snapshot whose canonical payload spans several
// chunks at the given chunk size.
func bigSnapshot(values int) *ModelSnapshot {
	vals := make([]float64, values)
	for i := range vals {
		vals[i] = 0.001*float64(i) + 1.0/3.0
	}
	return &ModelSnapshot{
		Kind: "autoencoder", Tier: "Edge", InputDim: 8,
		Weights: &nn.Snapshot{
			Names:  []string{"big"},
			Shapes: [][2]int{{1, values}},
			Values: [][]float64{vals},
		},
		Scorer: &anomaly.ScorerState{Mean: []float64{0}, Cov: []float64{1}, Threshold: -4},
		Conf:   anomaly.DefaultConfidence(),
	}
}

// TestChunkedFetchInterleavesWithDetections streams a multi-chunk model
// fetch over the same pipelined connection that is serving detection
// traffic: neither side may block or corrupt the other.
func TestChunkedFetchInterleavesWithDetections(t *testing.T) {
	snap := bigSnapshot(200_000) // ~1.6 MB canonical payload → 7 chunks
	srv := startServerWith(t, ServerOptions{Model: snap})
	cli := dialT(t, srv.Addr(), 0)
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cli.DetectContext(ctx, [][]float64{{float64(i % 3)}}); err != nil {
				t.Errorf("detection during model fetch: %v", err)
				return
			}
		}
	}()
	got, _, err := RefreshModel(ctx, cli, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, got, snap)
}

// TestSmallChunkAssembly drives the chunk RPC with a tiny explicit chunk
// size, checking offsets, totals and CRCs over many frames.
func TestSmallChunkAssembly(t *testing.T) {
	snap := distSnapshot()
	srv := startServerWith(t, ServerOptions{Model: snap})
	cli := dialT(t, srv.Addr(), 0)
	ctx := context.Background()

	payload, version, err := assembleModel(ctx, func(ctx context.Context, off int) (ModelChunk, error) {
		return cli.ModelChunkContext(ctx, off, 64, nil, false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if version != srv.ModelVersion() {
		t.Fatalf("assembled version %s, server serves %s", version, srv.ModelVersion())
	}
	want, err := EncodeModel(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != string(want) {
		t.Fatalf("assembled %d bytes differ from canonical payload (%d bytes)", len(payload), len(want))
	}

	// Out-of-range offsets are remote errors, not connection failures.
	if _, err := cli.ModelChunkContext(ctx, len(want)+1, 0, nil, false); !errors.Is(err, ErrRemote) {
		t.Fatalf("out-of-range offset: err = %v, want ErrRemote", err)
	}
}

// TestRefreshModelVersionAware covers the three refresh outcomes against a
// live server: first provisioning (full fetch), steady state (version match,
// no download), and an update (delta of only the changed tensors).
func TestRefreshModelVersionAware(t *testing.T) {
	snap := distSnapshot()
	srv := startServerWith(t, ServerOptions{Model: snap})
	cli := dialT(t, srv.Addr(), 0)
	ctx := context.Background()

	base, upToDate, err := RefreshModel(ctx, cli, nil)
	if err != nil || upToDate {
		t.Fatalf("first refresh: snap=%v upToDate=%v err=%v", base != nil, upToDate, err)
	}
	sameSnapshot(t, base, snap)

	if _, upToDate, err = RefreshModel(ctx, cli, base); err != nil || !upToDate {
		t.Fatalf("steady-state refresh: upToDate=%v err=%v, want true nil", upToDate, err)
	}

	next := distSnapshot()
	next.Weights.Values[2][0] = -0.25 // panel changes
	next.Scorer.Threshold = -2
	if err := srv.UpdateModel(thresholdDetector{}, nil, next); err != nil {
		t.Fatal(err)
	}
	refreshed, upToDate, err := RefreshModel(ctx, cli, base)
	if err != nil || upToDate {
		t.Fatalf("post-update refresh: upToDate=%v err=%v", upToDate, err)
	}
	sameSnapshot(t, refreshed, next)
}

// TestModelSwapMidTransfer hot-swaps the served model between chunks: the
// assembly must fail with ErrModelChanged (not silently mix versions) and a
// full refresh afterwards must land the new model.
func TestModelSwapMidTransfer(t *testing.T) {
	snap := bigSnapshot(50_000)
	srv := startServerWith(t, ServerOptions{Model: snap})
	cli := dialT(t, srv.Addr(), 0)
	ctx := context.Background()

	next := bigSnapshot(50_000)
	next.Weights.Values[0][7] = 42
	swapped := false
	_, _, err := assembleModel(ctx, func(ctx context.Context, off int) (ModelChunk, error) {
		if off > 0 && !swapped {
			swapped = true
			if err := srv.UpdateModel(thresholdDetector{}, nil, next); err != nil {
				t.Fatal(err)
			}
		}
		return cli.ModelChunkContext(ctx, off, 4096, nil, false)
	})
	if !errors.Is(err, ErrModelChanged) {
		t.Fatalf("mid-transfer swap: err = %v, want ErrModelChanged", err)
	}

	got, upToDate, err := RefreshModel(ctx, cli, snap)
	if err != nil || upToDate {
		t.Fatalf("refresh after swap: upToDate=%v err=%v", upToDate, err)
	}
	sameSnapshot(t, got, next)
}

// swappingPeer serves models from memory in 64-byte chunks. While swaps
// remain, a full-payload chunk past offset 0 first rolls the peer to its
// next model, so that transfer sees a mid-stream version change.
type swappingPeer struct {
	models []*ModelSnapshot
	cur    int
	swaps  int
}

func (p *swappingPeer) ModelManifestContext(context.Context) (*ModelManifest, error) {
	return ManifestOf(p.models[p.cur])
}

func (p *swappingPeer) ModelChunkContext(_ context.Context, offset, _ int, want []string, wantDelta bool) (ModelChunk, error) {
	if !wantDelta && offset > 0 && p.swaps > 0 {
		p.swaps--
		p.cur++
	}
	snap := p.models[p.cur]
	man, err := ManifestOf(snap)
	if err != nil {
		return ModelChunk{}, err
	}
	if !wantDelta {
		want = nil
	}
	payload, err := EncodeModel(snap, want)
	if err != nil {
		return ModelChunk{}, err
	}
	end := min(offset+64, len(payload))
	return ModelChunk{Version: man.Version, Offset: offset, Total: len(payload), Data: payload[offset:end]}, nil
}

// TestRefreshModelSwapBudget pins how RefreshModel spends its three
// restarts: an unmergeable delta falls back to a full fetch without using
// one, so a fallback followed by two mid-transfer swaps still lands the
// newest model, and a third swap fails with ErrModelChanged.
func TestRefreshModelSwapBudget(t *testing.T) {
	base := distSnapshot()
	// The architecture changes: "dense" is reshaped and moved behind
	// "gain", so the delta merged over base's order cannot rebuild it.
	arch := distSnapshot()
	w := arch.Weights
	w.Names[0], w.Names[1] = w.Names[1], w.Names[0]
	w.Shapes[0], w.Shapes[1] = w.Shapes[1], [2]int{4, 1}
	w.Values[0], w.Values[1] = w.Values[1], w.Values[0]
	rolled := func(v float64) *ModelSnapshot {
		s := distSnapshot()
		*s.Weights = nn.Snapshot{
			Names:  append([]string(nil), w.Names...),
			Shapes: append([][2]int(nil), w.Shapes...),
			Values: [][]float64{w.Values[0], w.Values[1], append([]float64{v}, w.Values[2][1:]...)},
		}
		return s
	}
	models := []*ModelSnapshot{arch, rolled(0.5), rolled(-0.5), rolled(0.75)}
	ctx := context.Background()

	peer := &swappingPeer{models: models, swaps: 2}
	got, upToDate, err := RefreshModel(ctx, peer, base)
	if err != nil || upToDate {
		t.Fatalf("fallback plus two swaps: upToDate=%v err=%v", upToDate, err)
	}
	sameSnapshot(t, got, models[2])

	peer = &swappingPeer{models: models, swaps: 3}
	if _, _, err := RefreshModel(ctx, peer, base); !errors.Is(err, ErrModelChanged) {
		t.Fatalf("fallback plus three swaps: err = %v, want ErrModelChanged", err)
	}
}

// TestUpdateModelRejectsBadSnapshot: a snapshot the canonical codec cannot
// encode must not replace the serving state, nor start a server.
func TestUpdateModelRejectsBadSnapshot(t *testing.T) {
	snap := distSnapshot()
	srv := startServerWith(t, ServerOptions{Model: snap})
	was := srv.ModelVersion()

	bad := distSnapshot()
	bad.Weights.Shapes[0] = [2]int{3, 3} // 9 ≠ 4 values
	if err := srv.UpdateModel(thresholdDetector{}, nil, bad); err == nil {
		t.Fatal("inconsistent snapshot accepted")
	}
	if srv.ModelVersion() != was {
		t.Fatal("rejected snapshot still replaced the serving version")
	}
	if srv, err := ServeWith("127.0.0.1:0", thresholdDetector{}, ServerOptions{Model: bad}); err == nil {
		srv.Close()
		t.Fatal("ServeWith accepted a snapshot it cannot ship")
	}
}

// modelWithTensors builds a payload with a minimal header and the given raw
// tensor records (name, dims, dtype byte and value bytes already encoded).
func modelWithTensors(quantized byte, records ...[]byte) []byte {
	b := append([]byte(modelMagic), modelLayoutVersion)
	b = appendStr(b, "autoencoder")
	b = appendStr(b, "IoT")
	b = appendU32(b, 4)
	b = append(b, quantized, 0) // quantized flag; no scorer
	b = appendF64(b, 1)
	b = appendF64(b, 0.5)
	b = appendU32(b, uint32(len(records)))
	for _, r := range records {
		b = append(b, r...)
	}
	return b
}

func tensorRecord(name string, rows, cols int, dt byte, values ...byte) []byte {
	b := appendStr(nil, name)
	b = appendU32(b, uint32(rows))
	b = appendU32(b, uint32(cols))
	return append(append(b, dt), values...)
}

// i8Row encodes one int8 row: its scale, then the codes.
func i8Row(scale float64, codes ...int8) []byte {
	b := appendF64(nil, scale)
	for _, c := range codes {
		b = append(b, byte(c))
	}
	return b
}

// TestDecodeModelRejectsNonCanonicalPayloads: bytes that decode to a model
// but are not how the encoder writes it would hash to a version the model
// does not have, so the decoder refuses them.
func TestDecodeModelRejectsNonCanonicalPayloads(t *testing.T) {
	codes := []int8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 64}
	canonical := modelWithTensors(0, tensorRecord("w", 1, 16, dtypeI8, i8Row(1.0/64, codes...)...))
	if _, err := DecodeModel(canonical); err != nil {
		t.Fatalf("canonical int8 payload rejected: %v", err)
	}
	bad := map[string][]byte{
		"flag byte 2": modelWithTensors(2, tensorRecord("w", 1, 16, dtypeI8, i8Row(1.0/64, codes...)...)),
		"duplicate names": modelWithTensors(0,
			tensorRecord("w", 1, 1, dtypeFP16, 0x00, 0x3c), tensorRecord("w", 1, 1, dtypeFP16, 0x00, 0x3c)),
		"int8 code -128":       modelWithTensors(0, tensorRecord("w", 1, 16, dtypeI8, i8Row(1.0/128, append(codes[:15:15], -128)...)...)),
		"codes under scale 0":  modelWithTensors(0, tensorRecord("w", 1, 16, dtypeI8, i8Row(0, codes...)...)),
		"non-power-of-2 scale": modelWithTensors(0, tensorRecord("w", 1, 16, dtypeI8, i8Row(0.3, codes...)...)),
		// Codes up to 15 fix the scale at 1/512, not 1/64.
		"oversized int8 scale": modelWithTensors(0, tensorRecord("w", 1, 15, dtypeI8, i8Row(1.0/64, codes[:15]...)...)),
		"fp16 NaN payload":     modelWithTensors(0, tensorRecord("w", 1, 1, dtypeFP16, 0x01, 0x7e)),
		"f64 that fits fp16":   modelWithTensors(0, tensorRecord("w", 1, 1, dtypeF64, appendF64(nil, 1)...)),
	}
	for name, p := range bad {
		if _, err := DecodeModel(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
