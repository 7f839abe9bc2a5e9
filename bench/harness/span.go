package harness

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names of the spans the traced run records. A span's name is
// the layer whose time it is.
const (
	spanOp       = "ctl"            // client: command written → reply read
	spanRun      = "site.run"       // site 1: Site.Run, from the latency the reply prints
	spanAppend   = "wal.queue"      // above GroupLog: what the caller waits for
	spanDevice   = "wal.device"     // below GroupLog: write (+ force)
	spanSend     = "tcpnet.send"    // Endpoint.Send call
	spanTransit  = "tcpnet.transit" // Send entry at A → handler entry at B
	spanInReq    = "site.inbound.request"
	spanInVm     = "site.inbound.vm"
	spanInAck    = "site.inbound.ack"
	spanInOther  = "site.inbound.other"
	rootParentID = 0
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created. Parent is the span that
// caused this one (0 for an op's root); spans of one op share Op.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Site   int    `json:"site"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Assembly keys, set by the decorators: the transaction a message
	// belongs to (0 when it names none) and the identity that pairs a
	// Send with the handler call that received it.
	txn uint64
	key msgKey
}

// msgKey pairs one Send with its delivery: direction, kind and the
// message's own identity (request: txn and item; Vm: channel seq).
type msgKey struct {
	from, to int
	kind     uint8
	id       uint64
	item     string
}

// Recorder collects spans in memory; the traced run writes them out
// (if asked) only after the last op. While off is set the decorators
// pass every call straight through, which is how the traced run gets
// its untraced twin: the same topology, in alternating blocks of ops.
type Recorder struct {
	epoch time.Time
	off   atomic.Bool
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder with room for n spans before it grows.
func NewRecorder(n int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, n)}
}

// Since converts a wall time to the recorder's clock.
func (r *Recorder) Since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Add records one finished span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	s.ID = uint64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// TracedOp is one op of the serial traced run as the client saw it.
type TracedOp struct {
	Start, End int64  // command written, reply read (recorder clock)
	ServerNs   int64  // latency printed in the OK reply (0 for READ: derived)
	Txn        uint64 // ts= from the reply
}

// Assemble turns the decorators' raw spans into per-op trees. It
// returns every span that belongs to an op — the op's root, the
// synthetic site.run, derived transit spans and the recorded ones,
// with Op and Parent filled in — plus the ack-path spans, which block
// no op and are kept apart (Op = -1).
//
// A span joins an op by the transaction its message names; a span
// that names none (wal appends, device writes) joins the op whose
// interval holds its start. Parents: a handler's is the transit that
// delivered its message; a transit's and a wal append's is the handler
// running at that site at the time, else site.run; a device write's is
// the first append waiting on it.
func Assemble(ops []TracedOp, raw []Span) (inOp, acks []Span) {
	nextID := uint64(len(raw) + 1)
	newID := func() uint64 { nextID++; return nextID }

	byTxn := make(map[uint64]int, len(ops))
	for i, op := range ops {
		if op.Txn != 0 {
			byTxn[op.Txn] = i
		}
	}
	opAt := func(t int64) int {
		i := sort.Search(len(ops), func(i int) bool { return ops[i].End > t })
		if i < len(ops) && ops[i].Start <= t {
			return i
		}
		return -1
	}

	perOp := make([][]Span, len(ops))
	sends := make(map[msgKey][]Span)
	for _, s := range raw {
		if s.Name == spanSend {
			sends[s.key] = append(sends[s.key], s)
		}
	}
	for _, s := range raw {
		if s.Name == spanInAck || (s.Name == spanSend && s.key.kind == ackKind) || s.Name == spanInOther {
			s.Op = -1
			acks = append(acks, s)
			continue
		}
		op := -1
		if s.txn != 0 {
			if i, ok := byTxn[s.txn]; ok {
				op = i
			}
		} else if s.Name == spanAppend || s.Name == spanDevice {
			op = opAt(s.Start)
		}
		if op < 0 {
			continue // belongs to no measured op (warm-up tail, stray retransmission)
		}
		s.Op = op
		perOp[op] = append(perOp[op], s)
		if s.Name == spanInReq || s.Name == spanInVm {
			if q := sends[s.key]; len(q) > 0 {
				send := q[0]
				sends[s.key] = q[1:]
				perOp[op] = append(perOp[op], Span{
					ID: newID(), Op: op, Name: spanTransit, Site: send.Site,
					Start: send.Start, End: s.Start, txn: s.txn, key: s.key,
				})
			}
		}
	}

	for i, op := range ops {
		spans := perOp[i]
		root := Span{ID: newID(), Parent: rootParentID, Op: i, Name: spanOp, Site: 0, Start: op.Start, End: op.End}
		// site.run has no seam; its length is what the reply printed and
		// its end is where site 1's last blocking span ended (Run returns
		// a few µs after its last log append).
		runEnd := int64(-1)
		for _, s := range spans {
			if s.Site == 1 && s.Name != spanTransit && s.End > runEnd {
				runEnd = s.End
			}
		}
		if runEnd < 0 {
			runEnd = op.End - (op.End-op.Start-op.ServerNs)/2
		}
		run := Span{ID: newID(), Parent: root.ID, Op: i, Name: spanRun, Site: 1, Start: runEnd - op.ServerNs, End: runEnd}

		sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
		handlerAt := func(site int, t int64) uint64 {
			var id uint64
			for _, h := range spans {
				if (h.Name == spanInReq || h.Name == spanInVm) && h.Site == site && h.Start <= t && t < h.End {
					id = h.ID // latest-started wins
				}
			}
			return id
		}
		transitOf := make(map[msgKey]uint64)
		for j := range spans {
			if spans[j].Name == spanTransit {
				transitOf[spans[j].key] = spans[j].ID
			}
		}
		for j := range spans {
			s := &spans[j]
			switch s.Name {
			case spanInReq, spanInVm:
				s.Parent = transitOf[s.key]
			case spanSend:
				s.Parent = transitOf[s.key]
			case spanTransit, spanAppend:
				s.Parent = handlerAt(s.Site, s.Start)
			case spanDevice:
				for _, a := range spans {
					if a.Name == spanAppend && a.Site == s.Site && a.Start <= s.Start && s.Start < a.End {
						s.Parent = a.ID
						break
					}
				}
			}
			if s.Parent == 0 {
				s.Parent = run.ID
			}
		}
		inOp = append(inOp, root, run)
		inOp = append(inOp, spans...)
	}
	return inOp, acks
}

// SelfTimes attributes every instant of one op's root interval to
// exactly one layer and returns nanoseconds per span name. An instant
// belongs to the active spans that have no active child — a span's
// self time is its length minus what its children cover — and when
// several such spans run at once (two donors working in parallel) the
// instant is split equally between them, so the layers always sum to
// the root's length. spans must all belong to one op and hold exactly
// one root (Parent 0); children are clipped to the root.
func SelfTimes(spans []Span) map[string]int64 {
	var root *Span
	for i := range spans {
		if spans[i].Parent == rootParentID {
			root = &spans[i]
			break
		}
	}
	out := make(map[string]int64)
	if root == nil || root.End <= root.Start {
		return out
	}
	clip := func(t int64) int64 {
		if t < root.Start {
			return root.Start
		}
		if t > root.End {
			return root.End
		}
		return t
	}
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, clip(s.Start), clip(s.End))
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })

	parentOf := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parentOf[s.ID] = s.Parent
	}
	frac := make(map[string]float64)
	for c := 1; c < len(cuts); c++ {
		lo, hi := cuts[c-1], cuts[c]
		if hi <= lo {
			continue
		}
		active := make(map[uint64]bool)
		for _, s := range spans {
			if s.Start <= lo && s.End >= hi {
				active[s.ID] = true
			}
		}
		// A span with any active descendant is covered for this instant,
		// even when the span between them has already ended.
		covered := make(map[uint64]bool)
		for _, s := range spans {
			if !active[s.ID] {
				continue
			}
			for p := s.Parent; p != rootParentID && !covered[p]; p = parentOf[p] {
				covered[p] = true
			}
		}
		var leaves []string
		for _, s := range spans {
			if active[s.ID] && !covered[s.ID] {
				leaves = append(leaves, s.Name)
			}
		}
		share := float64(hi-lo) / float64(len(leaves))
		for _, name := range leaves {
			frac[name] += share
		}
	}
	for name, v := range frac {
		out[name] = int64(v + 0.5)
	}
	return out
}
