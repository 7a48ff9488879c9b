package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/nn"
)

// randFrames builds an irregular window: ragged rows, and values drawn
// from a pool that deliberately includes the shapes float64 encoding is
// touchiest about — exact zeros, negative zero, infinities, NaN, denormals
// and ordinary irregular values.
func randFrames(rng *rand.Rand, maxRows, maxCols int) [][]float64 {
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, 1e-300, -1e-300,
	}
	rows := rng.Intn(maxRows + 1) // may be empty
	frames := make([][]float64, rows)
	for i := range frames {
		cols := rng.Intn(maxCols + 1) // rows may be ragged and empty
		row := make([]float64, cols)
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = special[rng.Intn(len(special))]
			} else {
				row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			}
		}
		frames[i] = row
	}
	return frames
}

func randVerdict(rng *rand.Rand) anomaly.Verdict {
	return anomaly.Verdict{
		Anomaly:           rng.Intn(2) == 0,
		Confident:         rng.Intn(2) == 0,
		MinLogPD:          rng.NormFloat64() * 100,
		AnomalousFraction: rng.Float64(),
	}
}

// roundTripRequest encodes and decodes req, and checks the decode
// re-encodes to the same bytes.
func roundTripRequest(t *testing.T, req *DetectRequest) *DetectRequest {
	t.Helper()
	payload, err := BinaryCodec.AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	out := new(DetectRequest)
	if err := BinaryCodec.DecodeRequest(payload, out); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if again, _ := BinaryCodec.AppendRequest(nil, out); !bytes.Equal(again, payload) {
		t.Fatalf("decoded request re-encodes to different bytes")
	}
	return out
}

func roundTripResponse(t *testing.T, resp *DetectResponse) *DetectResponse {
	t.Helper()
	payload, err := BinaryCodec.AppendResponse(nil, resp)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	out := new(DetectResponse)
	if err := BinaryCodec.DecodeResponse(payload, out); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if again, _ := BinaryCodec.AppendResponse(nil, out); !bytes.Equal(again, payload) {
		t.Fatalf("decoded response re-encodes to different bytes")
	}
	return out
}

// sameF64 compares float64s bitwise so NaN == NaN and 0 != -0: the wire
// must preserve the exact bits, not just the value.
func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFrames(t *testing.T, what string, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s row %d: %d cols vs %d cols", what, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !sameF64(a[i][j], b[i][j]) {
				t.Fatalf("%s[%d][%d]: %x vs %x", what, i, j,
					math.Float64bits(a[i][j]), math.Float64bits(b[i][j]))
			}
		}
	}
}

func sameVerdict(t *testing.T, what string, a, b anomaly.Verdict) {
	t.Helper()
	if a.Anomaly != b.Anomaly || a.Confident != b.Confident ||
		!sameF64(a.MinLogPD, b.MinLogPD) || !sameF64(a.AnomalousFraction, b.AnomalousFraction) {
		t.Fatalf("%s: %+v vs %+v", what, a, b)
	}
}

// TestCodecEquivalenceRequests is the property-style round-trip test: for
// randomized irregular payloads — ragged frames, -0, NaN, infinities — the
// decoded request must equal the one encoded field by field, bit by bit.
func TestCodecEquivalenceRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		req := &DetectRequest{
			ID:                rng.Uint64(),
			Op:                OpDetect,
			DeadlineUnixMicro: rng.Int63() - rng.Int63(),
			Frames:            randFrames(rng, 6, 8),
		}
		if trial%2 == 1 {
			req.Op = OpDetectBatch
			req.Frames = nil
			req.Windows = make([][][]float64, rng.Intn(5))
			for i := range req.Windows {
				req.Windows[i] = randFrames(rng, 6, 8)
			}
		}
		got := roundTripRequest(t, req)
		if got.ID != req.ID || got.Op != req.Op || got.DeadlineUnixMicro != req.DeadlineUnixMicro {
			t.Fatalf("trial %d header: got %+v, sent %+v", trial, got, req)
		}
		sameFrames(t, "Frames", got.Frames, req.Frames)
		if len(got.Windows) != len(req.Windows) {
			t.Fatalf("trial %d: %d windows, sent %d", trial, len(got.Windows), len(req.Windows))
		}
		for i := range got.Windows {
			sameFrames(t, "Windows", got.Windows[i], req.Windows[i])
		}
	}
}

// TestCodecEquivalenceResponses does the same for DetectResponse, including
// error replies and the all-zero shape.
func TestCodecEquivalenceResponses(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		resp := &DetectResponse{
			ID:      rng.Uint64(),
			Verdict: randVerdict(rng),
			ExecMs:  rng.NormFloat64() * 10,
			ProcMs:  rng.NormFloat64() * 10,
		}
		switch trial % 4 {
		case 1:
			resp.Err = "remote detection failed: bad window"
			resp.Code = CodeExpired
		case 2:
			n := 1 + rng.Intn(8)
			resp.Verdicts = make([]anomaly.Verdict, n)
			for i := range resp.Verdicts {
				resp.Verdicts[i] = randVerdict(rng)
			}
			resp.ExecMsEach = make([]float64, n)
			for i := range resp.ExecMsEach {
				resp.ExecMsEach[i] = rng.Float64() * 50
			}
			resp.ExecMsEach[0] = math.Copysign(0, -1)
			resp.Verdicts[n-1].MinLogPD = math.NaN()
		case 3:
			*resp = DetectResponse{ID: resp.ID, Verdicts: make([]anomaly.Verdict, 3), ExecMsEach: make([]float64, 3)}
		}
		got := roundTripResponse(t, resp)
		if got.ID != resp.ID || got.Err != resp.Err || got.Code != resp.Code {
			t.Fatalf("trial %d header: got %+v, sent %+v", trial, got, resp)
		}
		sameVerdict(t, "Verdict", got.Verdict, resp.Verdict)
		if !sameF64(got.ExecMs, resp.ExecMs) || !sameF64(got.ProcMs, resp.ProcMs) {
			t.Fatalf("trial %d times differ: %+v vs %+v", trial, got, resp)
		}
		if len(got.Verdicts) != len(resp.Verdicts) || len(got.ExecMsEach) != len(resp.ExecMsEach) {
			t.Fatalf("trial %d batch lengths differ", trial)
		}
		for i := range got.Verdicts {
			sameVerdict(t, "Verdicts", got.Verdicts[i], resp.Verdicts[i])
		}
		for i := range got.ExecMsEach {
			if !sameF64(got.ExecMsEach[i], resp.ExecMsEach[i]) {
				t.Fatalf("trial %d ExecMsEach[%d] differs", trial, i)
			}
		}
	}
}

// opRequests holds one request per op, every field its op carries set.
func opRequests() []*DetectRequest {
	return []*DetectRequest{
		{ID: 1, Op: OpDetect, DeadlineUnixMicro: 5, Frames: [][]float64{{1, 2}, {3}}},
		{ID: 2, Op: OpDetectBatch, Windows: [][][]float64{{{1}}, {{2}, {}}}},
		{ID: 3, Op: OpHello, DeadlineUnixMicro: 9, Version: protocolVersion},
		{ID: 4, Op: OpCancel, TargetID: 3},
		{ID: 5, Op: OpModelVersion},
		{ID: 6, Op: OpModelChunk, ChunkOffset: 1 << 20, ChunkSize: 4096},
		{ID: 7, Op: OpModelChunk, ChunkOffset: 12, WantDelta: true, WantTensors: []string{"W@0", "b@1"}},
		{ID: 8, Op: OpModelChunk, WantDelta: true, WantTensors: []string{}},
	}
}

// opResponses holds one response per layout, every field it carries set.
func opResponses() []*DetectResponse {
	return []*DetectResponse{
		{ID: 1, Verdict: anomaly.Verdict{Anomaly: true, MinLogPD: -4}, ExecMs: 2, ProcMs: 0.5},
		{ID: 2, ProcMs: 1, Verdicts: []anomaly.Verdict{{Confident: true}, {}}, ExecMsEach: []float64{1, 2}},
		{ID: 3, Err: "no model snapshot available on this node"},
		{ID: 4, layout: layoutHello, Version: protocolVersion},
		{ID: 5, layout: layoutHello, Version: protocolVersion, ModelVersion: "ab12",
			Sched: &SchedInfo{QueueDepth: 3, Busy: 1, Expired: 2, Canceled: 4}},
		{ID: 6, layout: layoutManifest, Manifest: &ModelManifest{Version: "ab12",
			Tensors: []TensorDigest{{Name: "W@0", Digest: "cd34", Bytes: 4096}, {Name: "b@1", Digest: "ef56", Bytes: 40}}}},
		{ID: 7, layout: layoutChunk, ModelVersion: "ab12", ChunkOffset: 64, ChunkTotal: 128,
			Chunk: []byte("payload bytes"), ChunkCRC: 0xdeadbeef},
	}
}

// TestEveryOpRoundTrips checks each op's request and each response layout
// decode to exactly what was encoded.
func TestEveryOpRoundTrips(t *testing.T) {
	for _, req := range opRequests() {
		if got := roundTripRequest(t, req); !reflect.DeepEqual(got, req) {
			t.Errorf("op %d: decoded %+v, sent %+v", req.Op, got, req)
		}
	}
	// A header-only delta keeps its empty want-list: nil would read as a
	// full fetch.
	if got := roundTripRequest(t, opRequests()[7]); got.WantTensors == nil {
		t.Error("empty want-list decoded as nil")
	}
	for _, resp := range opResponses() {
		if got := roundTripResponse(t, resp); !reflect.DeepEqual(got, resp) {
			t.Errorf("layout %d: decoded %+v, sent %+v", resp.layout, got, resp)
		}
	}
}

// TestBinaryCodecRefusesUnknownOps: the retired op 1 and ops past the last
// one are refused in both directions, as are unknown response layouts.
func TestBinaryCodecRefusesUnknownOps(t *testing.T) {
	for _, op := range []Op{1, OpModelChunk + 1, 255} {
		if _, err := BinaryCodec.AppendRequest(nil, &DetectRequest{Op: op}); err == nil {
			t.Errorf("op %d encoded", op)
		}
		payload, err := BinaryCodec.AppendRequest(nil, &DetectRequest{Op: OpModelVersion})
		if err != nil {
			t.Fatal(err)
		}
		payload[9] = byte(op) // the op byte follows the layout byte and the ID
		if err := BinaryCodec.DecodeRequest(payload, new(DetectRequest)); err == nil {
			t.Errorf("op %d decoded", op)
		}
	}
	if _, err := BinaryCodec.AppendResponse(nil, &DetectResponse{layout: 9}); err == nil {
		t.Error("unknown response layout encoded")
	}
	if err := BinaryCodec.DecodeResponse([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0}, new(DetectResponse)); err == nil {
		t.Error("unknown response layout decoded")
	}
}

// TestBinaryCodecRejectsCorruptPayloads fuzzes truncations and bit flips:
// decode must error, never panic or over-allocate.
func TestBinaryCodecRejectsCorruptPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	req := &DetectRequest{
		ID: 7, Op: OpDetectBatch,
		Windows: [][][]float64{randFrames(rng, 4, 4), randFrames(rng, 4, 4)},
	}
	payload, err := BinaryCodec.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut += 3 {
		_ = BinaryCodec.DecodeRequest(payload[:cut], new(DetectRequest)) // must not panic
	}
	for trial := 0; trial < 200; trial++ {
		mutated := append([]byte(nil), payload...)
		mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
		_ = BinaryCodec.DecodeRequest(mutated, new(DetectRequest)) // must not panic
	}
	// Trailing garbage is an error, not silently ignored.
	if err := BinaryCodec.DecodeRequest(append(payload, 0xFF), new(DetectRequest)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

// TestBinaryConnectionStillShipsModels checks one live connection carries
// both kinds of traffic: a detection, then a chunked model fetch.
func TestBinaryConnectionStillShipsModels(t *testing.T) {
	snap := &ModelSnapshot{Kind: "autoencoder", Tier: "Edge", InputDim: 4, Weights: &nn.Snapshot{}}
	srv := startServerWith(t, ServerOptions{Model: snap})
	cli := dialT(t, srv.Addr(), 0)
	if _, err := cli.DetectContext(context.Background(), [][]float64{{2}}); err != nil {
		t.Fatal(err)
	}
	got, _, err := RefreshModel(context.Background(), cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != snap.Kind || got.Tier != snap.Tier || got.InputDim != snap.InputDim {
		t.Fatalf("model snapshot mangled: %+v", got)
	}
}

// TestHelloRejectsOtherProtocols pins the one-version rule in both
// directions: a server answering with another version, or in gob, fails
// the dial as a connection failure, and a gob-era client's hello gets its
// connection dropped by a server of this build.
func TestHelloRejectsOtherProtocols(t *testing.T) {
	// fakeServer accepts one connection and hands it to answer.
	fakeServer := func(t *testing.T, answer func(net.Conn)) string {
		t.Helper()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		go func() {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			answer(conn)
			_, _ = io.Copy(io.Discard, conn) // hold the line until the client hangs up
		}()
		return lis.Addr().String()
	}
	for _, tc := range []struct {
		name   string
		answer func(net.Conn)
	}{
		{"other version", func(conn net.Conn) { _ = answerHello(conn, protocolVersion+1) }},
		{"gob server", func(conn net.Conn) {
			if _, err := readFrame(conn, nil); err == nil {
				_ = writeFrame(conn, gobEraHello)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeServer(t, tc.answer)
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			cli, err := DialContext(ctx, addr, DialOptions{})
			if err == nil {
				cli.Close()
				t.Fatal("dial succeeded against a peer of another protocol")
			}
			if !errors.Is(err, ErrConn) || !errors.Is(err, ErrRemote) {
				t.Fatalf("err = %v, want ErrConn within ErrRemote", err)
			}
		})
	}
	t.Run("gob client", func(t *testing.T) {
		srv := startServer(t)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, gobEraHello); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("server answered a gob hello (read %d bytes, err %v); want the connection closed", n, err)
		}
	})
}

// silentListener accepts TCP connections and never answers — the
// black-holed peer whose hello can only time out.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return lis
}

// TestNegotiationFailureTaxonomy pins how a hello that never comes back
// (peer accepts TCP, then silence) classifies, for both halves of the
// contract: the caller's own deadline is preserved as DeadlineExceeded,
// while the handshake's internal budget — a transport implementation
// detail — surfaces as a connection failure so routing layers expel the
// replica and fail over instead of misreading it as the caller's deadline.
func TestNegotiationFailureTaxonomy(t *testing.T) {
	t.Run("caller deadline preserved", func(t *testing.T) {
		lis := silentListener(t)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := DialContext(ctx, lis.Addr().String(), DialOptions{})
		if err == nil {
			t.Fatal("dialing a silent peer must fail the hello")
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("hello failure took %v despite a 200ms ctx", elapsed)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the caller's DeadlineExceeded preserved", err)
		}
	})
	t.Run("internal budget is a conn failure", func(t *testing.T) {
		if testing.Short() {
			t.Skip("waits out the 5s handshake budget")
		}
		lis := silentListener(t)
		start := time.Now()
		_, err := Dial(lis.Addr().String(), 0)
		if err == nil {
			t.Fatal("dialing a silent peer must fail the hello")
		}
		if elapsed := time.Since(start); elapsed > 8*time.Second {
			t.Fatalf("hello failure took %v despite the 5s budget", elapsed)
		}
		if !errors.Is(err, ErrConn) || !errors.Is(err, ErrRemote) {
			t.Fatalf("err = %v, want ErrConn within ErrRemote", err)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("handshake budget leaked as the caller's deadline: %v", err)
		}
	})
}
