package wire

import (
	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// TraceCtx is the compact causal-tracing context that rides inside
// protocol envelopes. Origin is the site whose transaction started the
// causal chain, TS that transaction's timestamp (the stitch key), and
// Span the sender-side span id the receiver's spans point back to as
// their parent. It is an ordinary field, encoded the same way wherever
// it appears; a zero context costs 4 bytes (origin 1, the zero TS 2,
// span 1).
type TraceCtx struct {
	Origin ident.SiteID
	TS     tstamp.TS
	Span   uint64
}

// Valid reports whether the context carries a real trace (TS is the
// stitch key; no traced chain has a zero timestamp).
func (c TraceCtx) Valid() bool { return c.TS != 0 }

func encodeTraceCtx(w *Writer, c TraceCtx) {
	w.Site(c.Origin)
	w.TS(c.TS)
	w.U64(c.Span)
}

func decodeTraceCtx(r *Reader) TraceCtx {
	return TraceCtx{
		Origin: r.Site(),
		TS:     r.TS(),
		Span:   r.U64(),
	}
}
