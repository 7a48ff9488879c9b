package transport

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/anomaly"
)

// BenchmarkPipelinedClient pushes windows through one shared client from 8
// goroutines over a 2 ms one-way delay and reports windows/s — the number
// the live load generator cares about. The workers overlap their injected
// delays on the same connection.
func BenchmarkPipelinedClient(b *testing.B) {
	srv, err := Serve("127.0.0.1:0", thresholdDetector{}, func(frames int) float64 {
		return float64(frames) * 0.5
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), 2*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	const workers = 8
	frames := [][]float64{{0.5}, {1.5}}
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	per := b.N/workers + 1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := cli.DetectContext(context.Background(), frames); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(per*workers)/time.Since(start).Seconds(), "windows/s")
}

// benchBatch builds the hot-RPC benchmark workload: a DetectBatch request
// of `batch` univariate weekly windows (672×1) and its response.
func benchBatch(batch int) (*DetectRequest, *DetectResponse) {
	windows := make([][][]float64, batch)
	for w := range windows {
		win := make([][]float64, 672)
		for i := range win {
			win[i] = []float64{float64(i%7)*0.13 + float64(w)*1e-3}
		}
		windows[w] = win
	}
	req := &DetectRequest{ID: 9, Op: OpDetectBatch, Windows: windows, DeadlineUnixMicro: 1}
	resp := &DetectResponse{
		ID: 9, ProcMs: 1.5,
		Verdicts:   make([]anomaly.Verdict, batch),
		ExecMsEach: make([]float64, batch),
	}
	for i := range resp.Verdicts {
		resp.Verdicts[i] = anomaly.Verdict{Anomaly: i%3 == 0, MinLogPD: -float64(i) * 0.7, AnomalousFraction: 0.01 * float64(i)}
		resp.ExecMsEach[i] = 3.25
	}
	return req, resp
}

// BenchmarkCodecBinary measures one full hot-RPC codec cycle on the
// OpDetectBatch round trip (batch 16): encode the batch request, decode it
// server-side, encode the batch response, decode it client-side.
func BenchmarkCodecBinary(b *testing.B) {
	req, resp := benchBatch(16)
	var reqBuf, respBuf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if reqBuf, err = BinaryCodec.AppendRequest(reqBuf[:0], req); err != nil {
			b.Fatal(err)
		}
		if err := BinaryCodec.DecodeRequest(reqBuf, new(DetectRequest)); err != nil {
			b.Fatal(err)
		}
		if respBuf, err = BinaryCodec.AppendResponse(respBuf[:0], resp); err != nil {
			b.Fatal(err)
		}
		if err := BinaryCodec.DecodeResponse(respBuf, new(DetectResponse)); err != nil {
			b.Fatal(err)
		}
	}
}
