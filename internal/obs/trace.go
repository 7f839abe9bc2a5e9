package obs

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"
)

// TraceStep is one recorded step of the §5 protocol, with its offset
// from transaction start.
type TraceStep struct {
	// Name identifies the protocol step ("admit", "cc-check", "lock",
	// "ask", "vm-accept", "apply", "wal-flush").
	Name string `json:"name"`
	// AtMicros is the offset from transaction start, in microseconds.
	AtMicros int64 `json:"at_us"`
	// Detail carries step-specific context ("requests=3", "lsn=42").
	Detail string `json:"detail,omitempty"`
}

// Trace is the completed record of one span: either a transaction's
// full path through the protocol at its origin site, or one remote hop
// (Rds create, Vm accept, ack retirement) of a transaction that
// originated elsewhere. Immutable once published to a Ring.
type Trace struct {
	// TS is the originating transaction's timestamp/identity — the
	// cross-site stitch key: every span of one causal chain shares it.
	TS uint64 `json:"ts"`
	// Site is the site that recorded this span.
	Site string `json:"site"`
	// Origin is the site whose transaction started the causal chain
	// (equals Site for root spans).
	Origin string `json:"origin,omitempty"`
	// Kind classifies the span: "txn" (origin-side protocol run),
	// "rds-create" (Rds deduct half honoring a Request), "vm-accept"
	// (Rds credit half applying a Vm), "vm-ack" (cumulative ack
	// retiring an outstanding Vm), "rds" (rebalancer-initiated
	// transfer root).
	Kind string `json:"kind,omitempty"`
	// Span is this span's id, unique within the recording site; zero
	// when the span predates span-id allocation (untraced hop).
	Span uint64 `json:"span,omitempty"`
	// Parent is the sender-side span id this hop causally follows
	// (zero for roots).
	Parent uint64 `json:"parent,omitempty"`
	// Label is the transaction's observational tag ("transfer", ...).
	Label string `json:"label,omitempty"`
	// Outcome is the final status ("committed", "timeout", ...): the
	// commit/abort-with-reason terminal step.
	Outcome string `json:"outcome"`
	// StartUnixNano is the wall-clock start time.
	StartUnixNano int64 `json:"start_unix_nano"`
	// LatencyMicros is start-to-decision, in microseconds.
	LatencyMicros int64 `json:"latency_us"`
	// Steps are the recorded protocol steps, in order.
	Steps []TraceStep `json:"steps"`
}

// Ring is a fixed-size lock-free buffer of the most recent traces.
// Publishing is a single atomic increment plus a pointer store;
// readers may race with writers and at worst observe a slot from a
// newer transaction — never a torn trace, because published Trace
// values are immutable.
type Ring struct {
	mask  uint64
	next  atomic.Uint64
	slots []atomic.Pointer[Trace]
}

// NewRing creates a ring holding the last capacity traces (rounded up
// to a power of two, minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]atomic.Pointer[Trace], n)}
}

// Publish appends t. t must not be mutated afterwards.
func (r *Ring) Publish(t *Trace) {
	if r == nil {
		return
	}
	pos := r.next.Add(1) - 1
	r.slots[pos&r.mask].Store(t)
}

// Published returns the total number of traces ever published.
func (r *Ring) Published() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Last returns up to n of the most recent traces, oldest first.
func (r *Ring) Last(n int) []*Trace {
	if r == nil || n <= 0 {
		return nil
	}
	end := r.next.Load()
	span := uint64(n)
	if span > end {
		span = end
	}
	if span > uint64(len(r.slots)) {
		span = uint64(len(r.slots))
	}
	out := make([]*Trace, 0, span)
	for pos := end - span; pos < end; pos++ {
		if t := r.slots[pos&r.mask].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// ByTS returns every retained span belonging to the causal chain of
// the transaction with timestamp ts, oldest first.
func (r *Ring) ByTS(ts uint64) []*Trace {
	if r == nil || ts == 0 {
		return nil
	}
	var out []*Trace
	for _, t := range r.Last(len(r.slots)) {
		if t.TS == ts {
			out = append(out, t)
		}
	}
	return out
}

// DumpJSON writes up to n of the most recent traces as JSON lines,
// oldest first.
func (r *Ring) DumpJSON(w io.Writer, n int) error {
	enc := json.NewEncoder(w)
	for _, t := range r.Last(n) {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return nil
}

// TxnTrace accumulates one transaction's steps. It is built by one
// goroutine at a time — the one running the transaction, or the one it
// hands the span to — and published to the ring on Finish; a nil
// TxnTrace (tracing disabled) ignores every call. It reads no clock:
// each call takes its instant from the caller, which has read it from
// its own clock for its histograms.
type TxnTrace struct {
	ring  *Ring
	start time.Time
	t     Trace
	// steps backs t.Steps for the first inlineSteps steps, so that a
	// trace costs one allocation however many steps it records.
	steps [inlineSteps]TraceStep
}

// inlineSteps covers the longest step sequence a site records: the §5
// run with a redistribution is seven steps.
const inlineSteps = 8

// Begin starts, at the instant at, a trace for a transaction executing
// at site. Returns nil (a valid no-op trace) when the ring is nil.
func (r *Ring) Begin(at time.Time, site, label string) *TxnTrace {
	if r == nil {
		return nil
	}
	tt := &TxnTrace{
		ring:  r,
		start: at,
		t: Trace{
			Site:          site,
			Origin:        site,
			Kind:          "txn",
			Label:         label,
			StartUnixNano: at.UnixNano(),
		},
	}
	tt.t.Steps = tt.steps[:0]
	return tt
}

// BeginSpan starts, at the instant at, a remote-hop span of kind,
// recorded at site, for the causal chain rooted at origin's transaction
// ts. parent is the sender-side span id this hop follows. Returns nil
// (a valid no-op trace) when the ring is nil.
func (r *Ring) BeginSpan(at time.Time, site, kind, origin string, ts, span, parent uint64) *TxnTrace {
	if r == nil {
		return nil
	}
	tt := &TxnTrace{
		ring:  r,
		start: at,
		t: Trace{
			TS:            ts,
			Site:          site,
			Origin:        origin,
			Kind:          kind,
			Span:          span,
			Parent:        parent,
			StartUnixNano: at.UnixNano(),
		},
	}
	tt.t.Steps = tt.steps[:0]
	return tt
}

// SetTS records the transaction's timestamp once drawn.
func (tt *TxnTrace) SetTS(ts uint64) {
	if tt == nil {
		return
	}
	tt.t.TS = ts
}

// SetSpan records the trace's own span id (roots allocate one only
// when tracing is enabled, after Begin).
func (tt *TxnTrace) SetSpan(span uint64) {
	if tt == nil {
		return
	}
	tt.t.Span = span
}

// Step records one named protocol step, reached at the instant at.
func (tt *TxnTrace) Step(at time.Time, name, detail string) {
	if tt == nil {
		return
	}
	tt.t.Steps = append(tt.t.Steps, TraceStep{
		Name:     name,
		AtMicros: at.Sub(tt.start).Microseconds(),
		Detail:   detail,
	})
}

// Finish seals the trace with its outcome, decided at the instant at,
// and publishes it.
func (tt *TxnTrace) Finish(at time.Time, outcome string) {
	if tt == nil {
		return
	}
	tt.t.Outcome = outcome
	tt.t.LatencyMicros = at.Sub(tt.start).Microseconds()
	tt.ring.Publish(&tt.t)
}
