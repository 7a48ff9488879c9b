// Package sched is the per-node request scheduler sitting between the
// transport server's accept loop and the detect handlers. It replaces
// blind FIFO accept-order queueing with three explicit mechanisms:
//
//   - a global per-node concurrency limit plus a bounded priority queue —
//     when the queue is full Acquire fails fast with ErrBusy, which the
//     transport maps to an explicit `busy` wire response so clients back
//     off and reroute via their replica set instead of queueing blind;
//   - a pluggable queue discipline (Policy): FIFO, earliest-deadline-first
//     over the request's DeadlineUnixMicro header, SLO-class priority, and
//     a pathological reverse-EDF used only to validate that ordering
//     matters. Entries whose deadline has already passed are shed at
//     dequeue — they consume a queue slot while waiting but never a
//     concurrency slot;
//   - cancellation keyed by (connection, request ID): Cancel removes a
//     queued entry immediately (freeing its slot before it ever runs) and
//     signals a running one through Grant.Canceled so interruptible work
//     can stop early.
//
// The scheduler is deliberately transport-agnostic: it never touches the
// wire, only admission. All methods are safe for concurrent use.
package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by Acquire. ErrBusy is the only one that reaches the
// wire (as the `busy` response code); ErrExpired and ErrCanceled describe
// requests that died while queued and are answered with the existing
// `expired` code or not at all.
var (
	ErrBusy     = errors.New("sched: queue full")
	ErrExpired  = errors.New("sched: deadline expired while queued")
	ErrCanceled = errors.New("sched: canceled while queued")
)

// Key identifies one request for cancellation: the server-assigned
// connection number plus the client-assigned request ID (unique per
// connection by the pipelining protocol).
type Key struct {
	Conn uint64
	Req  uint64
}

// Config parameterises a Scheduler.
type Config struct {
	// MaxConcurrent is the global concurrency limit: at most this many
	// grants are outstanding at once, across every connection. Required,
	// > 0.
	MaxConcurrent int
	// MaxQueue bounds the admission queue; an Acquire that finds every
	// concurrency slot taken and the queue full fails with ErrBusy.
	// 0 means no queue at all — at the limit, every arrival is busy.
	MaxQueue int
	// Policy is the queue discipline. Nil means FIFO.
	Policy Policy
}

// Stats is a point-in-time snapshot of the scheduler. The counters are
// cumulative for the scheduler's lifetime.
type Stats struct {
	Limit    int // configured concurrency limit
	MaxQueue int // configured queue bound
	Running  int // grants currently outstanding
	Queued   int // entries currently waiting

	Admitted uint64 // grants issued (direct or via the queue)
	Busy     uint64 // acquires refused because the queue was full
	Expired  uint64 // entries shed at dequeue past their deadline
	Canceled uint64 // cancels that found their target (queued or running)
	Done     uint64 // grants released
}

// entry is one request's state while the scheduler knows it. It lives
// inside its Grant, so a request that finds a free slot costs the
// scheduler one allocation.
type entry struct {
	key   Key
	item  Item
	ready chan error // made when the entry queues; buffered 1: nil = granted, else the shed reason
	index int        // heap position while queued

	running  bool
	cancel   chan struct{} // made by the first Canceled call, under s.mu; closed by Cancel
	canceled atomic.Bool   // Cancel found the entry running
	done     bool          // grant released
}

// closedChan is what Canceled returns when Cancel came first.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Scheduler is the per-node admission controller. Zero value is not
// usable; construct with New.
type Scheduler struct {
	mu     sync.Mutex
	limit  int
	maxQ   int
	policy Policy
	queue  entryHeap
	byKey  map[Key]*entry

	running int
	seq     uint64

	admitted uint64
	busy     uint64
	expired  uint64
	canceled uint64
	done     uint64
}

// New builds a scheduler for the given config.
func New(cfg Config) (*Scheduler, error) {
	if cfg.MaxConcurrent <= 0 {
		return nil, fmt.Errorf("sched: MaxConcurrent must be > 0, got %d", cfg.MaxConcurrent)
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("sched: MaxQueue must be >= 0, got %d", cfg.MaxQueue)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = FIFO{}
	}
	s := &Scheduler{
		limit:  cfg.MaxConcurrent,
		maxQ:   cfg.MaxQueue,
		policy: pol,
		byKey:  make(map[Key]*entry),
	}
	s.queue.policy = pol
	return s, nil
}

// Policy returns the configured queue discipline.
func (s *Scheduler) Policy() Policy { return s.policy }

// Acquire requests a concurrency slot for one request. It grants
// immediately when a slot is free, fails fast with ErrBusy when the queue
// is full, and otherwise blocks until the queue discipline serves this
// entry (nil error), its deadline passes while queued (ErrExpired), or a
// Cancel removes it (ErrCanceled). The caller must release a successful
// grant with Grant.Done.
func (s *Scheduler) Acquire(key Key, deadline time.Time, class int) (*Grant, error) {
	s.mu.Lock()
	if _, dup := s.byKey[key]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: duplicate request key %+v", key)
	}
	s.seq++
	if s.running >= s.limit && s.queue.Len() >= s.maxQ {
		s.busy++
		s.mu.Unlock()
		return nil, ErrBusy
	}
	g := &Grant{s: s, e: entry{key: key, item: Item{Deadline: deadline, Class: class, Seq: s.seq}}}
	e := &g.e
	s.byKey[key] = e
	// Invariant: the queue is non-empty only while every slot is taken
	// (dispatch refills slots before Acquire can observe them free), so a
	// free slot means nothing is waiting and admission order is preserved.
	if s.running < s.limit {
		s.running++
		s.admitted++
		e.running = true
		s.mu.Unlock()
		return g, nil
	}
	e.ready = make(chan error, 1)
	heap.Push(&s.queue, e)
	s.mu.Unlock()

	if err := <-e.ready; err != nil {
		return nil, err
	}
	return g, nil
}

// Cancel frees the capacity held by the request with the given key: a
// queued entry is removed immediately (its Acquire returns ErrCanceled),
// a running one has its Grant.Canceled channel closed so interruptible
// work can stop early. Reports whether the key was found.
func (s *Scheduler) Cancel(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byKey[key]
	if !ok {
		return false
	}
	if e.running {
		if !e.canceled.Load() {
			e.canceled.Store(true)
			s.canceled++
			if e.cancel != nil {
				close(e.cancel)
			}
		}
		return true
	}
	heap.Remove(&s.queue, e.index)
	delete(s.byKey, key)
	s.canceled++
	e.ready <- ErrCanceled
	return true
}

// Stats snapshots the scheduler's current occupancy and cumulative
// counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Limit:    s.limit,
		MaxQueue: s.maxQ,
		Running:  s.running,
		Queued:   s.queue.Len(),
		Admitted: s.admitted,
		Busy:     s.busy,
		Expired:  s.expired,
		Canceled: s.canceled,
		Done:     s.done,
	}
}

// dispatchLocked hands freed slots to queued entries in policy order,
// shedding entries whose deadline already passed — they get ErrExpired
// without ever occupying a concurrency slot. Caller holds s.mu.
func (s *Scheduler) dispatchLocked() {
	now := time.Now()
	for s.running < s.limit && s.queue.Len() > 0 {
		e := heap.Pop(&s.queue).(*entry)
		if !e.item.Deadline.IsZero() && now.After(e.item.Deadline) {
			delete(s.byKey, e.key)
			s.expired++
			e.ready <- ErrExpired
			continue
		}
		s.running++
		s.admitted++
		e.running = true
		e.ready <- nil
	}
}

// Grant is an outstanding concurrency slot. Exactly one Done call
// releases it; Canceled is closed if the client cancels the request while
// it runs.
type Grant struct {
	s *Scheduler
	e entry
}

// Canceled is closed when the request is canceled while running.
// Long-running or interruptible handlers should select on it.
func (g *Grant) Canceled() <-chan struct{} {
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.e.cancel == nil {
		if g.e.canceled.Load() {
			return closedChan
		}
		g.e.cancel = make(chan struct{})
	}
	return g.e.cancel
}

// IsCanceled reports whether the request was canceled while running.
func (g *Grant) IsCanceled() bool { return g.e.canceled.Load() }

// Done releases the slot and dispatches the next queued entry per the
// policy. Idempotent.
func (g *Grant) Done() {
	s := g.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if g.e.done {
		return
	}
	g.e.done = true
	delete(s.byKey, g.e.key)
	s.running--
	s.done++
	s.dispatchLocked()
}

// entryHeap orders queued entries by the configured policy.
type entryHeap struct {
	items  []*entry
	policy Policy
}

func (h *entryHeap) Len() int { return len(h.items) }
func (h *entryHeap) Less(i, j int) bool {
	return h.policy.Less(h.items[i].item, h.items[j].item)
}
func (h *entryHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}
func (h *entryHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(h.items)
	h.items = append(h.items, e)
}
func (h *entryHeap) Pop() any {
	old := h.items
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	h.items = old[:n-1]
	return e
}
