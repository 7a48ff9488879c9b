package transport

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// gobEraHello is the hello payload a client of the gob-era protocol sent
// on every dial: a gob-encoded request {ID: 1, Op: hello, CodecVersion: 3,
// DeadlineUnixMicro: 1760000005000000}, type definitions first. This build
// must refuse it, never misread it.
var gobEraHello = unhex("ffb27f0301010d4465746563745265717565737401ff8000010b01024944" +
	"01060001024f7001060001064672616d657301ff8400010757696e646f77" +
	"7301ff86000111446561646c696e65556e69784d6963726f010400010c43" +
	"6f64656356657273696f6e01060001085461726765744944010600010b43" +
	"68756e6b4f666673657401040001094368756e6b53697a65010400010957" +
	"616e7444656c7461010200010b57616e7454656e736f727301ff88000000" +
	"1aff830201010b5b5d5b5d666c6f6174363401ff840001ff8200000cff81" +
	"020102ff8200010800001cff850201010d5b5d5b5d5b5d666c6f61743634" +
	"01ff860001ff84000016ff87020101085b5d737472696e6701ff8800010c" +
	"000012ff800101010303f90c816bde349680010300")

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// bounded fails t when a decoded slice holds more elements than the
// payload has room for at minBytes per element.
func bounded(t *testing.T, payload []byte, what string, n, minBytes int) {
	t.Helper()
	if n > len(payload)/minBytes {
		t.Fatalf("%d %s decoded from %d bytes (at least %d bytes each)", n, what, len(payload), minBytes)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range opRequests() {
		payload, err := BinaryCodec.AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, c := range hotPathCases() {
		if c.req != nil {
			f.Add(unhex(c.hex))
		}
	}
	f.Add(gobEraHello)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req DetectRequest
		if BinaryCodec.DecodeRequest(payload, &req) != nil {
			return
		}
		again, err := BinaryCodec.AppendRequest(nil, &req)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("decoded request re-encodes to %x (err %v), want %x", again, err, payload)
		}
		windows := append([][][]float64{req.Frames}, req.Windows...)
		bounded(t, payload, "windows", len(req.Windows), 4)
		values := 0
		for _, w := range windows {
			bounded(t, payload, "frames", len(w), 4)
			for _, frame := range w {
				values += len(frame)
			}
		}
		bounded(t, payload, "values", values, 8)
		bounded(t, payload, "tensor names", len(req.WantTensors), 4)
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range opResponses() {
		payload, err := BinaryCodec.AppendResponse(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for _, c := range hotPathCases() {
		if c.resp != nil {
			f.Add(unhex(c.hex))
		}
	}
	f.Add(gobEraHello)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp DetectResponse
		if BinaryCodec.DecodeResponse(payload, &resp) != nil {
			return
		}
		again, err := BinaryCodec.AppendResponse(nil, &resp)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("decoded response re-encodes to %x (err %v), want %x", again, err, payload)
		}
		bounded(t, payload, "verdicts", len(resp.Verdicts), verdictWireBytes)
		bounded(t, payload, "exec times", len(resp.ExecMsEach), 8)
		bounded(t, payload, "chunk bytes", len(resp.Chunk), 1)
		if resp.Manifest != nil {
			bounded(t, payload, "tensor digests", len(resp.Manifest.Tensors), 4+4+8)
		}
	})
}

func FuzzDecodeModel(f *testing.F) {
	full, err := EncodeModel(distSnapshot(), nil)
	if err != nil {
		f.Fatal(err)
	}
	delta, err := EncodeModel(distSnapshot(), []string{"gain"})
	if err != nil {
		f.Fatal(err)
	}
	headerOnly, err := EncodeModel(distSnapshot(), []string{})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{full, delta, headerOnly, gobEraHello} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := DecodeModel(payload)
		if err != nil {
			return
		}
		again, err := EncodeModel(snap, nil)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("decoded model re-encodes to %x (err %v), want %x", again, err, payload)
		}
		// A tensor record is at least a name length, two dimensions and a
		// dtype byte; a value at least one int8 code.
		bounded(t, payload, "tensors", len(snap.Weights.Names), 4+4+4+1)
		values := 0
		for _, v := range snap.Weights.Values {
			values += len(v)
		}
		bounded(t, payload, "tensor values", values, 1)
		if snap.Scorer != nil {
			bounded(t, payload, "scorer moments", len(snap.Scorer.Mean)+len(snap.Scorer.Cov), 8)
		}
	})
}
