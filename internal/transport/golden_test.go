package transport

import (
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/anomaly"
)

// hotPathCase is one fixed detection frame and its pinned encoding.
type hotPathCase struct {
	name string
	req  *DetectRequest
	resp *DetectResponse
	hex  string
}

// hotPathCases are fixed OpDetect and OpDetectBatch requests and responses,
// plus the busy reply (errors ride the detection response layout), over the
// float shapes the layout must carry bit-exactly: -0, NaN and ragged frames.
func hotPathCases() []hotPathCase {
	return []hotPathCase{
		{name: "detect request", req: &DetectRequest{
			ID: 7, Op: OpDetect, DeadlineUnixMicro: 1700000000000000,
			Frames: [][]float64{{1.5, math.Copysign(0, -1)}, {0.25}},
		}, hex: "0207000000000000000000401e18240a0600020000000200000000000000" +
			"0000f83f000000000000008001000000000000000000d03f"},
		{name: "batch request", req: &DetectRequest{
			ID: 8, Op: OpDetectBatch,
			Windows: [][][]float64{{{1}}, {{2, math.NaN()}, {}}},
		}, hex: "020800000000000000020000000000000000020000000100000001000000" +
			"000000000000f03f02000000020000000000000000000040010000000000" +
			"f87f00000000"},
		{name: "detect response", resp: &DetectResponse{
			ID: 7, ExecMs: 1.5, ProcMs: 0.25,
			Verdict: anomaly.Verdict{Anomaly: true, MinLogPD: -12.5, AnomalousFraction: 0.03},
		}, hex: "0207000000000000000100000000000029c0b81e85eb51b89e3f00000000" +
			"0000f83f000000000000d03f00000000000000000000000000000000"},
		{name: "batch response", resp: &DetectResponse{
			ID: 8, ProcMs: 1.5,
			Verdicts: []anomaly.Verdict{
				{Anomaly: true, Confident: true, MinLogPD: -3, AnomalousFraction: 0.5},
				{MinLogPD: 2},
			},
			ExecMsEach: []float64{3.25, 3.25},
		}, hex: "020800000000000000000000000000000000000000000000000000000000" +
			"00000000000000000000f83f000000000000000002000000030000000000" +
			"0008c0000000000000e03f00000000000000004000000000000000000200" +
			"00000000000000000a400000000000000a40"},
		{name: "busy response", resp: &DetectResponse{
			ID: 9, Code: CodeBusy, Err: "server at capacity: scheduler queue full",
		}, hex: "020900000000000000000000000000000000000000000000000000000000" +
			"000000000000000000000000280000007365727665722061742063617061" +
			"636974793a207363686564756c65722071756575652066756c6c04000000" +
			"627573790000000000000000"},
	}
}

// TestHotPathLayoutUnchanged pins the detection frames byte for byte
// against literals recorded while the binary codec carried only these two
// ops, so the benchmark's codec replay and its request/response byte counts
// keep measuring the same bytes however many ops the wire learns.
func TestHotPathLayoutUnchanged(t *testing.T) {
	for _, c := range hotPathCases() {
		var got []byte
		var err error
		if c.req != nil {
			got, err = BinaryCodec.AppendRequest(nil, c.req)
		} else {
			got, err = BinaryCodec.AppendResponse(nil, c.resp)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if h := hex.EncodeToString(got); h != c.hex {
			t.Errorf("%s layout moved:\n got %s\nwant %s", c.name, h, c.hex)
		}
	}
}
