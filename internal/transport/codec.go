package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/anomaly"
)

// The wire codec: one hand-rolled little-endian layout per message shape,
// zero reflection, append-style encoding with zero steady-state
// allocations. Floats travel as IEEE-754 bit patterns, so round trips are
// bit-exact. Every payload opens with a layout byte: requests all open
// with layoutDetect and name their op in the header; a response's layout
// byte names its shape, so the client decodes it without knowing which op
// it answers. Error replies to any op use the detection layout, which
// carries Err and Code. docs/PROTOCOL.md documents every layout.
const (
	layoutDetect   byte = 2 // the byte the detection frames have always opened with
	layoutHello    byte = 3
	layoutManifest byte = 4
	layoutChunk    byte = 5
)

// protocolVersion is the one wire protocol this build speaks, announced in
// the OpHello exchange; a peer answering with another fails the dial.
// Versions 1 to 3 framed part of their traffic in gob.
const protocolVersion = 4

// BinaryCodec turns requests and responses into frame payloads and back.
// Append* follow the append convention: they extend dst (which may be nil
// or a recycled buffer) and return the extended slice, so steady-state
// encoding costs no allocations. Decode* never panic on hostile bytes, and
// allocate no more elements than the payload has room to describe.
var BinaryCodec binaryCodec

type binaryCodec struct{}

// AppendRequest appends req's payload encoding to dst.
func (binaryCodec) AppendRequest(dst []byte, req *DetectRequest) ([]byte, error) {
	dst = append(dst, layoutDetect)
	dst = appendU64(dst, req.ID)
	dst = append(dst, byte(req.Op))
	dst = appendU64(dst, uint64(req.DeadlineUnixMicro))
	switch req.Op {
	case OpDetect:
		return appendFrames(dst, req.Frames), nil
	case OpDetectBatch:
		dst = appendU32(dst, uint32(len(req.Windows)))
		for _, w := range req.Windows {
			dst = appendFrames(dst, w)
		}
		return dst, nil
	case OpHello:
		return append(dst, req.Version), nil
	case OpCancel:
		return appendU64(dst, req.TargetID), nil
	case OpModelVersion:
		return dst, nil
	case OpModelChunk:
		dst = appendU64(dst, uint64(req.ChunkOffset))
		dst = appendU64(dst, uint64(req.ChunkSize))
		if !req.WantDelta {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		dst = appendU32(dst, uint32(len(req.WantTensors)))
		for _, name := range req.WantTensors {
			dst = appendStr(dst, name)
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("transport: cannot encode unknown op %d", req.Op)
	}
}

// DecodeRequest decodes a payload produced by AppendRequest into req. The
// decoded request shares no storage with payload.
func (binaryCodec) DecodeRequest(payload []byte, req *DetectRequest) error {
	return decodeRequest(payload, req, nil)
}

// decodeRequest is DecodeRequest with the detection windows decoded into ws
// (reset first) instead of fresh arrays; a nil ws allocates them, as
// DecodeRequest does. Either way the decoded request is the same value.
func decodeRequest(payload []byte, req *DetectRequest, ws *windowScratch) error {
	cur := cursor{b: payload, ws: ws}
	if ws != nil {
		ws.reset()
	}
	if v := cur.u8(); v != layoutDetect {
		return fmt.Errorf("transport: request opens with layout byte %d, want %d", v, layoutDetect)
	}
	*req = DetectRequest{}
	req.ID = cur.u64()
	req.Op = Op(cur.u8())
	req.DeadlineUnixMicro = int64(cur.u64())
	switch req.Op {
	case OpDetect:
		req.Frames = cur.frames()
	case OpDetectBatch:
		if n := cur.count(4, "window"); n > 0 {
			var wins [][][]float64
			if ws != nil {
				wins = ws.takeWindows(n)
			} else {
				wins = make([][][]float64, n)
			}
			for i := range wins {
				wins[i] = cur.frames()
			}
			req.Windows = wins
		}
	case OpHello:
		req.Version = cur.u8()
	case OpCancel:
		req.TargetID = cur.u64()
	case OpModelVersion:
	case OpModelChunk:
		req.ChunkOffset = int(int64(cur.u64()))
		req.ChunkSize = int(int64(cur.u64()))
		if req.WantDelta = cur.flag(); req.WantDelta {
			// An empty want-list is a header-only delta, not a full fetch:
			// keep it non-nil.
			req.WantTensors = make([]string, cur.count(4, "tensor name"))
			for i := range req.WantTensors {
				req.WantTensors[i] = cur.str()
			}
		}
	default:
		if cur.err == nil {
			return fmt.Errorf("transport: request carries unknown op %d", req.Op)
		}
	}
	return cur.finish("request")
}

// AppendResponse appends resp's payload encoding to dst.
func (binaryCodec) AppendResponse(dst []byte, resp *DetectResponse) ([]byte, error) {
	switch resp.layout {
	case 0: // the detection layout, which also carries every error reply
		dst = append(dst, layoutDetect)
		dst = appendU64(dst, resp.ID)
		dst = appendVerdict(dst, resp.Verdict)
		dst = appendF64(dst, resp.ExecMs)
		dst = appendF64(dst, resp.ProcMs)
		dst = appendStr(dst, resp.Err)
		dst = appendStr(dst, resp.Code)
		dst = appendU32(dst, uint32(len(resp.Verdicts)))
		for _, v := range resp.Verdicts {
			dst = appendVerdict(dst, v)
		}
		dst = appendU32(dst, uint32(len(resp.ExecMsEach)))
		for _, e := range resp.ExecMsEach {
			dst = appendF64(dst, e)
		}
		return dst, nil
	case layoutHello:
		dst = append(dst, layoutHello)
		dst = appendU64(dst, resp.ID)
		dst = append(dst, resp.Version)
		dst = appendStr(dst, resp.ModelVersion)
		if resp.Sched == nil {
			return append(dst, 0), nil
		}
		dst = append(dst, 1)
		dst = appendU64(dst, uint64(resp.Sched.QueueDepth))
		dst = appendU64(dst, resp.Sched.Busy)
		dst = appendU64(dst, resp.Sched.Expired)
		return appendU64(dst, resp.Sched.Canceled), nil
	case layoutManifest:
		if resp.Manifest == nil {
			return dst, fmt.Errorf("transport: manifest response carries no manifest")
		}
		dst = append(dst, layoutManifest)
		dst = appendU64(dst, resp.ID)
		dst = appendStr(dst, resp.Manifest.Version)
		dst = appendU32(dst, uint32(len(resp.Manifest.Tensors)))
		for _, td := range resp.Manifest.Tensors {
			dst = appendStr(dst, td.Name)
			dst = appendStr(dst, td.Digest)
			dst = appendU64(dst, uint64(td.Bytes))
		}
		return dst, nil
	case layoutChunk:
		dst = append(dst, layoutChunk)
		dst = appendU64(dst, resp.ID)
		dst = appendStr(dst, resp.ModelVersion)
		dst = appendU64(dst, uint64(resp.ChunkOffset))
		dst = appendU64(dst, uint64(resp.ChunkTotal))
		dst = appendU32(dst, resp.ChunkCRC)
		dst = appendU32(dst, uint32(len(resp.Chunk)))
		return append(dst, resp.Chunk...), nil
	default:
		return dst, fmt.Errorf("transport: cannot encode response layout %d", resp.layout)
	}
}

// DecodeResponse decodes a payload produced by AppendResponse into resp.
// The decoded response shares no storage with payload.
func (binaryCodec) DecodeResponse(payload []byte, resp *DetectResponse) error {
	cur := cursor{b: payload}
	*resp = DetectResponse{}
	switch layout := cur.u8(); layout {
	case layoutDetect:
		resp.ID = cur.u64()
		resp.Verdict = cur.verdict()
		resp.ExecMs = cur.f64()
		resp.ProcMs = cur.f64()
		resp.Err = cur.str()
		resp.Code = cur.str()
		if n := cur.count(verdictWireBytes, "verdict"); n > 0 {
			vs := make([]anomaly.Verdict, n)
			for i := range vs {
				vs[i] = cur.verdict()
			}
			resp.Verdicts = vs
		}
		if n := cur.count(8, "exec-time"); n > 0 {
			es := make([]float64, n)
			for i := range es {
				es[i] = cur.f64()
			}
			resp.ExecMsEach = es
		}
	case layoutHello:
		resp.layout = layout
		resp.ID = cur.u64()
		resp.Version = cur.u8()
		resp.ModelVersion = cur.str()
		if cur.flag() {
			resp.Sched = &SchedInfo{
				QueueDepth: int(int64(cur.u64())),
				Busy:       cur.u64(),
				Expired:    cur.u64(),
				Canceled:   cur.u64(),
			}
		}
	case layoutManifest:
		resp.layout = layout
		resp.ID = cur.u64()
		m := &ModelManifest{Version: cur.str()}
		if n := cur.count(4+4+8, "tensor digest"); n > 0 {
			m.Tensors = make([]TensorDigest, n)
			for i := range m.Tensors {
				m.Tensors[i] = TensorDigest{Name: cur.str(), Digest: cur.str(), Bytes: int(int64(cur.u64()))}
			}
		}
		resp.Manifest = m
	case layoutChunk:
		resp.layout = layout
		resp.ID = cur.u64()
		resp.ModelVersion = cur.str()
		resp.ChunkOffset = int(int64(cur.u64()))
		resp.ChunkTotal = int(int64(cur.u64()))
		resp.ChunkCRC = cur.u32()
		if n := cur.cnt(); cur.need(n) {
			// Copied out: the read loop recycles the frame buffer.
			resp.Chunk = append([]byte{}, cur.b[cur.i:cur.i+n]...)
			cur.i += n
		}
	default:
		if cur.err == nil {
			return fmt.Errorf("transport: response opens with unknown layout byte %d", layout)
		}
	}
	return cur.finish("response")
}

// verdictWireBytes is the encoded size of one anomaly.Verdict: a flag byte
// plus two float64s.
const verdictWireBytes = 1 + 8 + 8

// Append helpers (little-endian).

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendVerdict(b []byte, v anomaly.Verdict) []byte {
	var flags byte
	if v.Anomaly {
		flags |= 1
	}
	if v.Confident {
		flags |= 2
	}
	b = append(b, flags)
	b = appendF64(b, v.MinLogPD)
	return appendF64(b, v.AnomalousFraction)
}

// appendFrames encodes one T×D window: frame count, then per frame a length
// and the raw float64 bit patterns (frames may be ragged on the wire even
// though real windows are rectangular).
func appendFrames(b []byte, frames [][]float64) []byte {
	b = appendU32(b, uint32(len(frames)))
	for _, f := range frames {
		b = appendU32(b, uint32(len(f)))
		for _, x := range f {
			b = appendF64(b, x)
		}
	}
	return b
}

// cursor walks a payload, latching the first decode error so call sites
// stay linear instead of checking every read. Windows are decoded into ws
// when it is set, into fresh arrays otherwise.
type cursor struct {
	b   []byte
	i   int
	err error
	ws  *windowScratch
}

// windowScratch is recycled storage for decoded detection windows: the
// float64 values of every frame, the frame headers that slice them and a
// batch's window headers. A decode takes what it needs from the front and
// allocates only when a payload needs more than the scratch holds; the
// windows it hands out stay valid until the next reset.
type windowScratch struct {
	values  []float64
	frames  [][]float64
	windows [][][]float64
}

func (ws *windowScratch) reset() {
	ws.values, ws.frames, ws.windows = ws.values[:0], ws.frames[:0], ws.windows[:0]
}

// bytes is the scratch's retained capacity in bytes.
func (ws *windowScratch) bytes() int {
	return 8*cap(ws.values) + 24*cap(ws.frames) + 24*cap(ws.windows)
}

// takeValues returns the next n values. When they do not fit, the scratch
// moves to a larger array; slices already handed out keep the old one. The
// result is never nil, as a fresh make would not be.
func (ws *windowScratch) takeValues(n int) []float64 {
	at := len(ws.values)
	if ws.values == nil || at+n > cap(ws.values) {
		ws.values, at = make([]float64, 0, max(2*cap(ws.values), n)), 0
	}
	ws.values = ws.values[:at+n]
	return ws.values[at : at+n : at+n]
}

// takeFrames returns the next n frame headers, as takeValues does values.
func (ws *windowScratch) takeFrames(n int) [][]float64 {
	at := len(ws.frames)
	if at+n > cap(ws.frames) {
		ws.frames, at = make([][]float64, 0, max(2*cap(ws.frames), n)), 0
	}
	ws.frames = ws.frames[:at+n]
	return ws.frames[at : at+n : at+n]
}

// takeWindows returns n window headers; a request has one batch.
func (ws *windowScratch) takeWindows(n int) [][][]float64 {
	if n > cap(ws.windows) {
		ws.windows = make([][][]float64, n)
	}
	ws.windows = ws.windows[:n]
	return ws.windows
}

func (c *cursor) remaining() int { return len(c.b) - c.i }

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.remaining() < n {
		c.fail("payload truncated at byte %d (need %d more)", c.i, n)
		return false
	}
	return true
}

func (c *cursor) u8() byte {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.i]
	c.i++
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.i:])
	c.i += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.i:])
	c.i += 8
	return v
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// flag reads a boolean byte. Only 0 and 1 are valid, so every accepted
// payload re-encodes to the same bytes.
func (c *cursor) flag() bool {
	switch v := c.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		c.fail("flag byte %d at %d is neither 0 nor 1", v, c.i-1)
		return false
	}
}

// cnt reads a u32 count/length field as an int. Any count beyond the
// frame-size cap is invalid (a payload never exceeds 16 MiB), and since
// the cap is far below 2³¹ the int conversion stays non-negative on
// 32-bit platforms — a crafted high count fails cleanly instead of
// sidestepping the bounds checks via sign wraparound.
func (c *cursor) cnt() int {
	v := c.u32()
	if v > maxMessageBytes {
		c.fail("count %d exceeds the frame cap", v)
		return 0
	}
	return int(v)
}

// count reads an element count and rejects one the rest of the payload
// cannot hold at minBytes per element, so a decoder never allocates more
// elements than the frame has room to describe.
func (c *cursor) count(minBytes int, what string) int {
	n := c.cnt()
	if c.err == nil && n > c.remaining()/minBytes {
		c.fail("%s count %d exceeds payload", what, n)
	}
	if c.err != nil {
		return 0
	}
	return n
}

func (c *cursor) str() string {
	n := c.cnt()
	if n == 0 || !c.need(n) {
		return ""
	}
	s := string(c.b[c.i : c.i+n])
	c.i += n
	return s
}

func (c *cursor) verdict() anomaly.Verdict {
	flags := c.u8()
	if flags > 3 {
		c.fail("verdict flags %#x carry unknown bits", flags)
	}
	return anomaly.Verdict{
		Anomaly:           flags&1 != 0,
		Confident:         flags&2 != 0,
		MinLogPD:          c.f64(),
		AnomalousFraction: c.f64(),
	}
}

// frames decodes one window. It pre-scans the frame lengths so every
// float64 in the window lands in a single backing array — one allocation
// for the values plus one for the frame headers, however many frames the
// window has, and none when the cursor decodes into scratch that holds
// them.
func (c *cursor) frames() [][]float64 {
	n := c.count(4, "frame")
	if n == 0 {
		return nil
	}
	// First pass: walk the lengths to size the backing array. Lengths are
	// compared in uint64 so a crafted 2³¹-plus value cannot wrap negative
	// on 32-bit platforms.
	total, j := 0, c.i
	for f := 0; f < n; f++ {
		if len(c.b)-j < 4 {
			c.fail("payload truncated in frame %d header", f)
			return nil
		}
		fl := binary.LittleEndian.Uint32(c.b[j:])
		j += 4
		if uint64(fl)*8 > uint64(len(c.b)-j) {
			c.fail("frame %d claims %d values beyond payload", f, fl)
			return nil
		}
		total += int(fl)
		j += int(fl) * 8
	}
	var backing []float64
	var frames [][]float64
	if c.ws != nil {
		backing, frames = c.ws.takeValues(total), c.ws.takeFrames(n)
	} else {
		backing, frames = make([]float64, total), make([][]float64, n)
	}
	at := 0
	for f := range frames {
		fl := int(c.u32()) // pre-scanned above; fits the payload
		row := backing[at : at+fl : at+fl]
		for k := range row {
			row[k] = c.f64()
		}
		frames[f] = row
		at += fl
	}
	return frames
}

// finish reports the latched error, if any, plus trailing garbage.
func (c *cursor) finish(what string) error {
	if c.err != nil {
		return fmt.Errorf("transport: decoding %s: %w", what, c.err)
	}
	if c.remaining() != 0 {
		return fmt.Errorf("transport: %s carries %d trailing bytes", what, c.remaining())
	}
	return nil
}
