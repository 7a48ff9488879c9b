package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/features"
	"repro/internal/hec"
	"repro/internal/routing"
	"repro/internal/transport"
)

// spanName enumerates the layer boundaries the benchmark can see from
// outside the program.
type spanName uint8

const (
	spanSession spanName = iota
	spanFeatures
	spanDetectorIoT
	spanRoutingEdge
	spanRoutingCloud
	spanDetectorEdge
	spanDetectorCloud
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"session", "features", "detector.iot", "routing.edge", "routing.cloud", "detector.edge", "detector.cloud",
}

func (n spanName) String() string { return spanNames[n] }

// remoteSpans names the span around a remote tier's replica set and the
// span of the tier node's own processing inside it.
func remoteSpans(l hec.Layer) (routing, detector spanName) {
	if l == hec.LayerEdge {
		return spanRoutingEdge, spanDetectorEdge
	}
	return spanRoutingCloud, spanDetectorCloud
}

// span is one timed call into a layer. IDs index the owning device's
// buffer; the trace a span belongs to is (device, seq).
type span struct {
	ID     int32
	Parent int32 // -1 for a root
	Seq    int32 // the device's call number
	Name   spanName
	Start  int64 // ns since the buffer's epoch
	End    int64
}

// spanBuf collects one device's spans. A device issues one call at a time
// and every wrapper runs on the device's goroutine, so the buffer needs no
// lock and spans nest through an explicit stack; appending allocates only
// when the buffer grows.
type spanBuf struct {
	epoch time.Time
	spans []span
	open  []int32
	seq   int32
}

func newSpanBuf(epoch time.Time) *spanBuf {
	return &spanBuf{epoch: epoch, spans: make([]span, 0, 1<<16), open: make([]int32, 0, 8)}
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// begin opens a span under the innermost open one.
func (b *spanBuf) begin(name spanName) int32 {
	id := int32(len(b.spans))
	parent := int32(-1)
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
	} else {
		b.seq++
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Seq: b.seq, Name: name, Start: b.now()})
	b.open = append(b.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (b *spanBuf) end(id int32) {
	b.spans[id].End = b.now()
	b.open = b.open[:len(b.open)-1]
}

// child records a finished span of the given length centred in parent.
// It stands for work the wrapper cannot bracket itself: a tier node's own
// processing time, recovered from the result as round trip − NetMs.
func (b *spanBuf) child(parent int32, name spanName, length int64) {
	p := b.spans[parent]
	if length < 0 {
		length = 0
	}
	if max := p.End - p.Start; length > max {
		length = max
	}
	start := p.Start + (p.End-p.Start-length)/2
	b.spans = append(b.spans, span{
		ID: int32(len(b.spans)), Parent: parent, Seq: p.Seq, Name: name, Start: start, End: start + length,
	})
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its child spans cover. Children may overlap each other and are
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			from, to := c.Start, c.End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes aggregates spans by name.
type layerTimes struct {
	durUs      [numSpanNames][]float64 // every span's duration
	selfUs     [numSpanNames][]float64 // every span's self time
	spans      int
	tiersTried int // detector.* spans over all traces
}

func (t *layerTimes) add(spans []span) {
	self := selfTimes(spans)
	for i, s := range spans {
		t.durUs[s.Name] = append(t.durUs[s.Name], float64(s.End-s.Start)/1e3)
		t.selfUs[s.Name] = append(t.selfUs[s.Name], float64(self[i])/1e3)
		if s.Name == spanDetectorIoT || s.Name == spanDetectorEdge || s.Name == spanDetectorCloud {
			t.tiersTried++
		}
	}
	t.spans += len(spans)
}

// selfShare is a layer's summed self time as a share of the summed root
// spans; over all layers the shares add up to 1 when the tree accounts for
// all of the time.
func (t *layerTimes) selfShare(names ...spanName) float64 {
	var self, root float64
	for _, n := range names {
		for _, us := range t.selfUs[n] {
			self += us
		}
	}
	for _, us := range t.durUs[spanSession] {
		root += us
	}
	if root == 0 {
		return 0
	}
	return self / root
}

// writeSpans writes every device's spans as JSON lines.
func writeSpans(path, workload string, bufs []*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID       int32  `json:"id"`
		Parent   int32  `json:"parent"`
		Device   int    `json:"device"`
		Seq      int32  `json:"seq"`
		Name     string `json:"name"`
		StartNs  int64  `json:"start_ns"`
		EndNs    int64  `json:"end_ns"`
		Workload string `json:"workload"`
	}
	for d, b := range bufs {
		for _, s := range b.spans {
			if err := enc.Encode(line{s.ID, s.Parent, d, s.Seq, s.Name.String(), s.Start, s.End, workload}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRemote brackets a tier's replica set with a routing span and
// records the tier node's own time as its child. It must stay a
// cluster.BatchRemote, or the device would fall back to one call per
// window, and it passes the set's routing counters through so the session
// still reports them.
type tracedRemote struct {
	set            *routing.ReplicaSet
	route, serving spanName
	buf            *spanBuf
}

var (
	_ cluster.BatchRemote  = (*tracedRemote)(nil)
	_ cluster.StatusSource = (*tracedRemote)(nil)
)

func (r *tracedRemote) DetectContext(ctx context.Context, frames [][]float64) (transport.DetectResult, error) {
	id := r.buf.begin(r.route)
	res, err := r.set.DetectContext(ctx, frames)
	r.buf.end(id)
	r.tier(id, res.NetMs, err)
	return res, err
}

func (r *tracedRemote) DetectBatchContext(ctx context.Context, windows [][][]float64) (transport.BatchResult, error) {
	id := r.buf.begin(r.route)
	res, err := r.set.DetectBatchContext(ctx, windows)
	r.buf.end(id)
	r.tier(id, res.NetMs, err)
	return res, err
}

func (r *tracedRemote) tier(id int32, netMs float64, err error) {
	if err != nil {
		return
	}
	s := r.buf.spans[id]
	r.buf.child(id, r.serving, s.End-s.Start-int64(netMs*1e6))
}

func (r *tracedRemote) Status() []routing.ReplicaStatus { return r.set.Status() }
func (r *tracedRemote) PolicyName() string              { return r.set.PolicyName() }
func (r *tracedRemote) Shed() uint64                    { return r.set.Shed() }

// tracedDetector brackets the device's local detector. It must stay an
// anomaly.BatchDetector, or DetectAll would judge a batch window by window.
type tracedDetector struct {
	anomaly.Detector
	buf *spanBuf
}

var _ anomaly.BatchDetector = (*tracedDetector)(nil)

func (d *tracedDetector) Detect(frames [][]float64) (anomaly.Verdict, error) {
	id := d.buf.begin(spanDetectorIoT)
	v, err := d.Detector.Detect(frames)
	d.buf.end(id)
	return v, err
}

func (d *tracedDetector) DetectBatch(windows [][][]float64) ([]anomaly.Verdict, error) {
	id := d.buf.begin(spanDetectorIoT)
	vs, err := anomaly.DetectAll(d.Detector, windows)
	d.buf.end(id)
	return vs, err
}

// tracedExtractor brackets the policy's context extraction.
type tracedExtractor struct {
	features.Extractor
	buf *spanBuf
}

func (e *tracedExtractor) Context(frames [][]float64) ([]float64, error) {
	id := e.buf.begin(spanFeatures)
	z, err := e.Extractor.Context(frames)
	e.buf.end(id)
	return z, err
}
