package wire

import (
	"bytes"
	"testing"

	"dvp/internal/tstamp"
)

func TestGetWriterIsEmpty(t *testing.T) {
	w := GetWriter()
	w.String("leftover state from a previous user")
	PutWriter(w)
	for i := 0; i < 100; i++ {
		got := GetWriter()
		if got.Len() != 0 {
			t.Fatalf("GetWriter returned non-empty writer: %d bytes", got.Len())
		}
		got.U64(uint64(i)) // dirty it so the next Get has to reset
		PutWriter(got)
	}
}

func TestPutWriterDropsOversized(t *testing.T) {
	w := new(Writer)
	w.buf = make([]byte, 0, maxPooledWriterCap+1)
	PutWriter(w) // oversized: dropped, not pooled
	PutWriter(nil)
}

// TestMarshalIntoReusedWriterAllocs pins the hot-path property the pool
// exists for: once a Writer has warmed its capacity, encoding an
// envelope into it allocates nothing.
func TestMarshalIntoReusedWriterAllocs(t *testing.T) {
	env := &Envelope{
		From: 1, To: 2, Lamport: tstamp.Make(12345, 1), AckUpTo: 99,
		Msg: &Vm{Seq: 7, Item: "flight/A", Amount: 5, ReqTxn: tstamp.Make(42, 2),
			FlowVec: []FlowEntry{{Site: 1, Count: 3}}},
	}
	w := GetWriter()
	defer PutWriter(w)
	if err := env.MarshalInto(w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		w.Reset()
		if err := env.MarshalInto(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("MarshalInto with warm writer: %.1f allocs/op, want 0", allocs)
	}
}

// FuzzReusedWriter proves pool hygiene: an envelope encoded into a
// reused, previously poisoned Writer is byte-identical to one encoded
// fresh. If Reset or the pool ever leaked stale bytes into a frame,
// this is the test that catches it.
func FuzzReusedWriter(f *testing.F) {
	seeds := []Msg{
		&Request{Txn: tstamp.Make(5, 2), Item: "flight/A", Want: 3, FullRead: true},
		&Vm{Seq: 12, Item: "flight/A", Amount: 5, ReqTxn: tstamp.Make(5, 2),
			FlowVec: []FlowEntry{{Site: 1, Count: 3}}},
		&VmAck{UpTo: 42},
		&VmBatch{Vms: []Vm{{Seq: 4, Item: "a", Amount: 1}, {Seq: 5, Item: "b", Amount: 2}}},
		&NoShare{Txn: tstamp.Make(5, 2), Item: "x", FlowVec: []FlowEntry{{Site: 3, Count: 9}}},
	}
	for _, m := range seeds {
		env := &Envelope{From: 1, To: 2, Lamport: tstamp.Make(9, 1), AckUpTo: 3, Msg: m}
		buf, err := env.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf, []byte("poison"))
	}
	f.Fuzz(func(t *testing.T, frame, poison []byte) {
		env, err := Unmarshal(frame)
		if err != nil {
			return
		}
		want, err := env.Marshal()
		if err != nil {
			t.Fatalf("accepted envelope failed to re-encode: %v", err)
		}

		// Poison a writer with arbitrary bytes, cycle it through the
		// pool, and encode into whatever comes back out.
		dirty := GetWriter()
		dirty.Bytes2(poison)
		dirty.U64(0xdeadbeefdeadbeef)
		PutWriter(dirty)
		w := GetWriter()
		if err := env.MarshalInto(w); err != nil {
			t.Fatalf("MarshalInto: %v", err)
		}
		got := w.Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("reused-writer encoding differs:\n got %x\nwant %x", got, want)
		}
		// And again into the same writer after a Reset — a second user
		// of the same scratch.
		w.Reset()
		if err := env.MarshalInto(w); err != nil {
			t.Fatalf("MarshalInto after Reset: %v", err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("second encoding into same writer differs")
		}
		PutWriter(w)
	})
}
