package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightNilSafe(t *testing.T) {
	var f *Flight
	f.Record("s1", "kind", "detail")
	f.Recordf("s1", "kind", "n=%d", 7)
	if f.Recorded() != 0 || f.Last(10) != nil {
		t.Error("nil recorder must report nothing")
	}
	var sb strings.Builder
	if err := f.WriteText(&sb, 10); err != nil || sb.Len() != 0 {
		t.Errorf("nil WriteText: %q, %v", sb.String(), err)
	}
	if err := f.DumpJSON(&sb, 10); err != nil || sb.Len() != 0 {
		t.Errorf("nil DumpJSON: %q, %v", sb.String(), err)
	}
}

func TestFlightRecordAndDump(t *testing.T) {
	f := NewFlight(0) // minimum capacity (64)
	f.Record("s1", "site-up", "epoch=1")
	f.Recordf("s2", "wal-flush", "records=%d first_lsn=%d", 3, 41)
	f.Record("s1", "lock-conflict", "")
	if got := f.Recorded(); got != 3 {
		t.Fatalf("Recorded = %d, want 3", got)
	}
	evs := f.Last(10)
	if len(evs) != 3 {
		t.Fatalf("Last(10) = %d events, want 3", len(evs))
	}
	if evs[0].Kind != "site-up" || evs[2].Kind != "lock-conflict" {
		t.Errorf("events out of order: %v, %v", evs[0], evs[2])
	}
	if evs[1].Detail != "records=3 first_lsn=41" {
		t.Errorf("Recordf detail = %q", evs[1].Detail)
	}
	// Bounded fetch keeps the most recent.
	if last := f.Last(1); len(last) != 1 || last[0].Kind != "lock-conflict" {
		t.Errorf("Last(1) = %v", last)
	}

	var txt strings.Builder
	if err := f.WriteText(&txt, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(txt.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("WriteText produced %d lines: %q", len(lines), txt.String())
	}
	if !strings.Contains(lines[1], "s2") || !strings.Contains(lines[1], "wal-flush") ||
		!strings.Contains(lines[1], "records=3") {
		t.Errorf("dump line unreadable: %q", lines[1])
	}
	// Detail-less events render without a trailing detail column.
	if !strings.HasSuffix(lines[2], "lock-conflict") {
		t.Errorf("detail-less line = %q", lines[2])
	}

	var js strings.Builder
	if err := f.DumpJSON(&js, 10); err != nil {
		t.Fatal(err)
	}
	var ev FlightEvent
	if err := json.Unmarshal([]byte(strings.SplitN(js.String(), "\n", 2)[0]), &ev); err != nil {
		t.Fatalf("DumpJSON line not JSON: %v", err)
	}
	if ev.Kind != "site-up" || ev.Site != "s1" || ev.AtUnixNano == 0 {
		t.Errorf("decoded event = %+v", ev)
	}
}

func TestFlightWraps(t *testing.T) {
	f := NewFlight(64)
	for i := 0; i < 200; i++ {
		f.Recordf("s1", "tick", "i=%d", i)
	}
	if got := f.Recorded(); got != 200 {
		t.Fatalf("Recorded = %d", got)
	}
	evs := f.Last(1000)
	if len(evs) != 64 {
		t.Fatalf("ring retained %d events, want capacity 64", len(evs))
	}
	if evs[0].Detail != "i=136" || evs[63].Detail != "i=199" {
		t.Errorf("retained window [%s .. %s], want [i=136 .. i=199]",
			evs[0].Detail, evs[63].Detail)
	}
}

func TestFlightConcurrentRecord(t *testing.T) {
	f := NewFlight(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				f.Recordf("s1", "k", "g=%d i=%d", g, i)
				f.Last(16)
			}
		}(g)
	}
	wg.Wait()
	if f.Recorded() != 800 {
		t.Errorf("Recorded = %d, want 800", f.Recorded())
	}
}

func TestRingByTS(t *testing.T) {
	var nilRing *Ring
	if nilRing.ByTS(7) != nil {
		t.Error("nil ring ByTS must return nil")
	}
	r := NewRing(16)
	if r.ByTS(0) != nil {
		t.Error("ByTS(0) must return nil (zero TS is no identity)")
	}
	now := time.Now()
	tt := r.Begin(now, "s1", "transfer")
	tt.SetTS(7)
	tt.SetSpan(101)
	tt.Step(now, "admit", "")
	tt.Finish(now, "committed")
	hop := r.BeginSpan(now, "s2", "rds-create", "s1", 7, 202, 101)
	hop.Finish(now, "honored")
	other := r.Begin(now, "s3", "noise")
	other.SetTS(8)
	other.Finish(now, "committed")

	got := r.ByTS(7)
	if len(got) != 2 {
		t.Fatalf("ByTS(7) = %d spans, want 2", len(got))
	}
	if got[0].Kind != "txn" || got[0].Span != 101 || got[0].Origin != "s1" {
		t.Errorf("root span = %+v", got[0])
	}
	if got[1].Kind != "rds-create" || got[1].Parent != 101 || got[1].Site != "s2" || got[1].Origin != "s1" {
		t.Errorf("hop span = %+v", got[1])
	}
}

func TestBeginSpanNilRing(t *testing.T) {
	var r *Ring
	now := time.Now()
	hop := r.BeginSpan(now, "s1", "vm-accept", "s2", 9, 1, 2)
	hop.Step(now, "wal-flush", "lsn=1") // must all be no-ops
	hop.SetSpan(5)
	hop.Finish(now, "accepted")
	if r.Published() != 0 {
		t.Error("nil ring published a span")
	}
}
