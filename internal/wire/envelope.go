package wire

import (
	"fmt"

	"dvp/internal/ident"
	"dvp/internal/tstamp"
)

// Envelope frames one message on the wire. Besides addressing it
// carries the two piggybacked fields the paper relies on:
//
//   - Lamport: the sender's logical clock, folded into the receiver's
//     clock on arrival (the §7 "bump-up" that heals outdated counters
//     after recovery);
//   - AckUpTo: a cumulative acknowledgement of the receiver's
//     Vm channel toward the sender ("every message ... should carry a
//     piggybacked acknowledgement", §4.2).
type Envelope struct {
	From    ident.SiteID
	To      ident.SiteID
	Lamport tstamp.TS
	AckUpTo uint64
	Msg     Msg
}

// envelopeMagic guards against framing bugs and foreign traffic,
// including a peer that speaks an older encoding: each change of the
// encoding takes a new magic.
const envelopeMagic = 0xD9

// Marshal encodes the envelope to a fresh byte slice.
func (e *Envelope) Marshal() ([]byte, error) {
	var w Writer
	if err := e.MarshalInto(&w); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// MarshalInto appends the envelope encoding to w, so callers on the
// hot path can reuse a pooled Writer (and prepend transport framing)
// instead of allocating per envelope. The bytes appended are identical
// to Marshal's output.
func (e *Envelope) MarshalInto(w *Writer) error {
	if e.Msg == nil {
		return fmt.Errorf("wire: envelope without message")
	}
	w.U8(envelopeMagic)
	w.Site(e.From)
	w.Site(e.To)
	w.TS(e.Lamport)
	w.U64(e.AckUpTo)
	w.U8(uint8(e.Msg.Kind()))
	e.Msg.Encode(w)
	return nil
}

// Unmarshal decodes an envelope from bytes.
func Unmarshal(buf []byte) (*Envelope, error) {
	r := NewReader(buf)
	if magic := r.U8(); magic != envelopeMagic {
		return nil, fmt.Errorf("wire: bad magic byte 0x%02x", magic)
	}
	e := &Envelope{
		From:    r.Site(),
		To:      r.Site(),
		Lamport: r.TS(),
		AckUpTo: r.U64(),
	}
	kind := Kind(r.U8())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: envelope header: %w", err)
	}
	msg, err := DecodeMsg(kind, r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %v", r.Remaining(), kind)
	}
	e.Msg = msg
	return e, nil
}

// String renders a compact trace line ("s1→s2 vm seq=3 ...").
func (e *Envelope) String() string {
	return fmt.Sprintf("%v→%v %v", e.From, e.To, e.Msg.Kind())
}
