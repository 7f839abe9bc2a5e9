package harness

import "testing"

func selfOf(t *testing.T, spans []Span) map[string]int64 {
	t.Helper()
	st := SelfTimes(spans)
	var sum int64
	for _, ns := range st {
		sum += ns
	}
	root := spans[0]
	if sum != root.End-root.Start {
		t.Errorf("layers sum to %d, root is %d long: %v", sum, root.End-root.Start, st)
	}
	return st
}

func TestSelfTimesNestedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "ctl", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "site.run", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "wal.queue", Start: 20, End: 70},
		{ID: 4, Parent: 3, Name: "wal.device", Start: 30, End: 60},
	}
	st := selfOf(t, spans)
	want := map[string]int64{"ctl": 20, "site.run": 30, "wal.queue": 20, "wal.device": 30}
	for name, ns := range want {
		if st[name] != ns {
			t.Errorf("%s self = %d, want %d", name, st[name], ns)
		}
	}
}

// Two donors working at once: the overlap is split, not counted twice.
func TestSelfTimesOverlappingSiblings(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "ctl", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "site.run", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "site.inbound.request", Site: 2, Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "site.inbound.request", Site: 3, Start: 30, End: 70},
		{ID: 5, Parent: 4, Name: "wal.device", Site: 3, Start: 40, End: 60},
	}
	st := selfOf(t, spans)
	// [10,30) handler@2 alone: 20. [30,40) both handlers: 10. [40,50)
	// handler@2 and device: 5 + 5. [50,60) device: 10. [60,70) handler@3: 10.
	if got := st["site.inbound.request"]; got != 20+10+5+10 {
		t.Errorf("handlers self = %d, want 45", got)
	}
	if got := st["wal.device"]; got != 5+10 {
		t.Errorf("device self = %d, want 15", got)
	}
	if got := st["site.run"]; got != 10+30 {
		t.Errorf("site.run self = %d, want 40", got)
	}
	if st["ctl"] != 0 {
		t.Errorf("ctl self = %d, want 0 (site.run covers it)", st["ctl"])
	}
}

// A child reaching outside the root is clipped; a grandchild still
// covers its grandparent after the span between them has ended.
func TestSelfTimesClipsAndKeepsAncestry(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "ctl", Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: "site.run", Start: 90, End: 150},
		{ID: 3, Parent: 2, Name: "wal.queue", Start: 140, End: 250},
	}
	st := selfOf(t, spans)
	if st["site.run"] != 40 || st["wal.queue"] != 60 || st["ctl"] != 0 {
		t.Errorf("got %v, want site.run=40 wal.queue=60 ctl=0", st)
	}
}

func TestAssembleKeysSpansToOpsAndDerivesTransit(t *testing.T) {
	req := msgKey{from: 1, to: 2, kind: 1, id: 77, item: "it/3"}
	vm := msgKey{from: 2, to: 1, kind: 2, id: 5}
	ack := msgKey{from: 1, to: 2, kind: ackKind, id: 5}
	ops := []TracedOp{
		{Start: 0, End: 1000, ServerNs: 900, Txn: 77},
		{Start: 1100, End: 2000, ServerNs: 800, Txn: 78},
	}
	raw := []Span{
		{ID: 1, Name: spanSend, Site: 1, Start: 100, End: 110, txn: 77, key: req},
		{ID: 2, Name: spanInReq, Site: 2, Start: 150, End: 400, txn: 77, key: req},
		{ID: 3, Name: spanAppend, Site: 2, Start: 160, End: 390},
		{ID: 4, Name: spanDevice, Site: 2, Start: 170, End: 380},
		{ID: 5, Name: spanSend, Site: 2, Start: 391, End: 399, txn: 77, key: vm},
		{ID: 6, Name: spanInVm, Site: 1, Start: 450, End: 700, txn: 77, key: vm},
		{ID: 7, Name: spanAppend, Site: 1, Start: 750, End: 940},
		// The ack of op 0's Vm lands inside op 1: it blocks neither.
		{ID: 8, Name: spanSend, Site: 1, Start: 1150, End: 1160, key: ack},
		{ID: 9, Name: spanInAck, Site: 2, Start: 1200, End: 1210, key: ack},
		{ID: 10, Name: spanAppend, Site: 1, Start: 1300, End: 1900},
	}
	inOp, acks := Assemble(ops, raw)
	if len(acks) != 2 {
		t.Fatalf("ack-path spans = %d, want 2", len(acks))
	}
	byName := map[string][]Span{}
	for _, s := range inOp {
		if s.Op == 0 {
			byName[s.Name] = append(byName[s.Name], s)
		}
	}
	if n := len(byName[spanTransit]); n != 2 {
		t.Fatalf("op 0 has %d transit spans, want 2 (request and vm)", n)
	}
	for _, tr := range byName[spanTransit] {
		if tr.key == req && (tr.Start != 100 || tr.End != 150) {
			t.Errorf("request transit = [%d,%d], want [100,150]", tr.Start, tr.End)
		}
	}
	run := byName[spanRun][0]
	if run.End != 940 || run.Start != 40 {
		t.Errorf("site.run = [%d,%d], want [40,940]: ends with site 1's last append, as long as the reply said", run.Start, run.End)
	}
	handler := byName[spanInReq][0]
	donorAppend := byName[spanAppend][0]
	if donorAppend.Site != 2 || donorAppend.Parent != handler.ID {
		t.Errorf("donor append's parent = %d, want the request handler %d", donorAppend.Parent, handler.ID)
	}
	if dev := byName[spanDevice][0]; dev.Parent != donorAppend.ID {
		t.Errorf("device's parent = %d, want the append %d", dev.Parent, donorAppend.ID)
	}
	var op1 []Span
	for _, s := range inOp {
		if s.Op == 1 {
			op1 = append(op1, s)
		}
	}
	if len(op1) != 3 { // root, site.run, one append
		t.Errorf("op 1 has %d spans, want 3: %v", len(op1), op1)
	}
}
