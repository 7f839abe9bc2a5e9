package wal

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeRecords drives every record decoder with arbitrary bytes:
// no panics, and accepted records re-encode losslessly.
func FuzzDecodeRecords(f *testing.F) {
	f.Add((&CommitRec{Txn: 42, Actions: []Action{{Item: "x", Delta: -1, SetTS: 42}}}).Encode())
	// A shortfall commit that consumed two grants: its actions net them
	// in, and its accepted list names them.
	f.Add((&CommitRec{
		Txn:      42,
		Actions:  []Action{{Item: "x", Delta: 1}},
		Accepted: []VmRef{{From: 2, Seq: 9}, {From: 3, Seq: 4}},
	}).Encode())
	f.Add((&VmCreateRec{
		Actions: []Action{{Item: "x", Delta: -5}},
		Msgs:    []VmOut{{To: 2, Seq: 1, Item: "x", Amount: 5}},
	}).Encode())
	f.Add((&VmAcceptRec{From: 3, Seq: 9, Actions: []Action{{Item: "x", Delta: 5}}}).Encode())
	f.Add((&CheckpointRec{Clock: 7}).Encode())
	// A checkpoint the shape the automatic checkpointer actually
	// writes: multiple items, and channel state with a pending
	// retransmission set and a sparse inbound acceptance tail.
	f.Add((&CheckpointRec{
		Items: []CheckpointItem{
			{Item: "flight/A", Value: 40},
			{Item: "flight/B", Value: 0},
		},
		Channels: []VmChannelState{
			{
				Peer: 2, OutSeq: 9, CumAck: 7,
				Pending: []VmOut{{To: 2, Seq: 8, Item: "flight/A", Amount: 4, ReqTxn: 99},
					{To: 2, Seq: 9, Item: "flight/B", Amount: 1, ReqTxn: 101}},
				InLow: 3, InAbove: []uint64{5, 6},
			},
			{Peer: 3, OutSeq: 1, CumAck: 1, InLow: 0},
		},
		Clock: 1 << 40,
	}).Encode())
	f.Add((&ClockRec{Bound: 3<<16 + 9}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, err := DecodeCommit(data); err == nil {
			if _, err := DecodeCommit(rec.Encode()); err != nil {
				t.Fatalf("commit re-decode: %v", err)
			}
		}
		if rec, err := DecodeVmCreate(data); err == nil {
			if _, err := DecodeVmCreate(rec.Encode()); err != nil {
				t.Fatalf("vm-create re-decode: %v", err)
			}
		}
		if rec, err := DecodeVmAccept(data); err == nil {
			if _, err := DecodeVmAccept(rec.Encode()); err != nil {
				t.Fatalf("vm-accept re-decode: %v", err)
			}
		}
		if rec, err := DecodeCheckpoint(data); err == nil {
			// The checkpoint codec must be a fixpoint: decode → encode
			// → decode → encode reproduces identical bytes, or the
			// recovery-equivalence oracle's byte comparison would be
			// meaningless.
			enc := rec.Encode()
			rec2, err := DecodeCheckpoint(enc)
			if err != nil {
				t.Fatalf("checkpoint re-decode: %v", err)
			}
			if !bytes.Equal(rec2.Encode(), enc) {
				t.Fatalf("checkpoint codec is not a fixpoint")
			}
		}
		if rec, err := DecodeClock(data); err == nil {
			if got, err := DecodeClock(rec.Encode()); err != nil || *got != *rec {
				t.Fatalf("clock re-decode: %v, %v", got, err)
			}
		}
		_, _ = DecodeApplied(data)
		_, _ = DecodePrepare(data)
		_, _ = DecodeDecision(data)
	})
}

// FuzzFileLogRecovery writes arbitrary bytes as a log file and opens
// it twice. As given, the file is either refused and left unchanged on
// disk (it neither starts with a valid header nor is a torn start of a
// new log's) or opened. Behind a header, so that the input is explored
// as frames,
// torn-tail recovery must never fail. An opened log must accept appends
// and reopen with them.
func FuzzFileLogRecovery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		raw := dir + "/raw.wal"
		if err := writeFile(raw, data); err != nil {
			t.Skip()
		}
		if l, err := OpenFileLog(raw, FileLogOptions{}); err != nil {
			if got, rerr := os.ReadFile(raw); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused file changed on disk (%v)", err)
			}
		} else {
			appendAndReopen(t, l, raw)
		}
		framed := dir + "/framed.wal"
		if err := writeFile(framed, append(logImage(1), data...)); err != nil {
			t.Skip()
		}
		l, err := OpenFileLog(framed, FileLogOptions{})
		if err != nil {
			t.Fatalf("open behind the magic must recover, got %v", err)
		}
		appendAndReopen(t, l, framed)
	})
}

func appendAndReopen(t *testing.T, l *FileLog, path string) {
	t.Helper()
	lsn, err := l.Append(RecCommit, []byte("post"))
	if err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	l.Close()
	re, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.LastLSN() != lsn {
		t.Fatalf("reopen: LastLSN %d, want %d", re.LastLSN(), lsn)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// logImage is the header of a log whose first record has LSN base: the
// start of a hand-built file image.
func logImage(base uint64) []byte {
	h := make([]byte, headerSize)
	putHeader(h, base)
	return h
}
