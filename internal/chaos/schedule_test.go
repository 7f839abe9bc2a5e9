package chaos

import (
	"io"
	"strings"
	"testing"
)

func stringsReader(s string) io.Reader { return strings.NewReader(s) }

func TestBuildIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		a, b := Build(seed), Build(seed)
		if a.EncodeString() != b.EncodeString() {
			t.Fatalf("seed %d: two builds differ:\n%s\n---\n%s",
				seed, a.EncodeString(), b.EncodeString())
		}
	}
	if Build(1).EncodeString() == Build(2).EncodeString() {
		t.Error("seeds 1 and 2 built identical schedules")
	}
}

func TestBuildGuarantees(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		s := Build(seed)
		if s.Sites < 3 || s.Sites > 5 {
			t.Fatalf("seed %d: sites=%d out of range", seed, s.Sites)
		}
		if s.Items < 2 || s.Items > 3 {
			t.Fatalf("seed %d: items=%d out of range", seed, s.Items)
		}
		if !s.has(EvCrash) {
			t.Errorf("seed %d: schedule has no crash", seed)
		}
		if !s.has(EvPartition) {
			t.Errorf("seed %d: schedule has no partition", seed)
		}
		if !s.has(EvCrashInFlush) {
			t.Errorf("seed %d: schedule has no crash-in-flush", seed)
		}
		for k, e := range s.Events {
			if e.Round < 1 || e.Round > s.Rounds {
				t.Fatalf("seed %d: event %d round %d out of range", seed, k, e.Round)
			}
			if e.AtMS < 0 || e.AtMS > 2*s.RoundMS {
				t.Fatalf("seed %d: event %d offset %dms out of range", seed, k, e.AtMS)
			}
			if k > 0 {
				prev := s.Events[k-1]
				if e.Round < prev.Round || (e.Round == prev.Round && e.AtMS < prev.AtMS) {
					t.Fatalf("seed %d: events not sorted at %d", seed, k)
				}
			}
			switch e.Kind {
			case EvCrash, EvRestart, EvCheckpoint, EvCrashInFlush:
				if e.Site < 1 || e.Site > s.Sites {
					t.Fatalf("seed %d: event %d site %d out of range", seed, k, e.Site)
				}
			case EvLinkDown, EvLinkUp:
				if e.A == e.B || e.A < 1 || e.B < 1 || e.A > s.Sites || e.B > s.Sites {
					t.Fatalf("seed %d: event %d bad link %d-%d", seed, k, e.A, e.B)
				}
			case EvPartition:
				seen := map[int]bool{}
				for _, g := range e.Groups {
					if len(g) == 0 {
						t.Fatalf("seed %d: event %d empty partition group", seed, k)
					}
					for _, site := range g {
						if seen[site] {
							t.Fatalf("seed %d: event %d site %d in two groups", seed, k, site)
						}
						seen[site] = true
					}
				}
			}
		}
	}
}

func TestScheduleEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		s := Build(seed)
		enc := s.EncodeString()
		dec, err := DecodeSchedule(strings.NewReader(enc))
		if err != nil {
			t.Fatalf("seed %d: decode: %v\n%s", seed, err, enc)
		}
		if got := dec.EncodeString(); got != enc {
			t.Fatalf("seed %d: round trip changed the schedule:\n%s\n---\n%s", seed, enc, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a schedule",
		"chaos-schedule v2\nseed 1",
		"chaos-schedule v1\nbogus-key 3",
		"chaos-schedule v1\nseed 1\nsites 3\nitems 2\ntotal 10\nrounds 1\nroundms 100\nevent r=1 at=5 kind=explode",
		"chaos-schedule v1\nseed 1", // missing shape
		// A schedule saved while the quota-hint cache existed: the kind
		// it names is gone, and replaying the rest would not be the run
		// that was saved.
		"chaos-schedule v1\nseed 1\nsites 3\nitems 2\ntotal 10\nrounds 1\nroundms 100\nevent r=1 at=5 kind=hint-skew site=1 a=9",
	}
	for _, in := range cases {
		if _, err := DecodeSchedule(strings.NewReader(in)); err == nil {
			t.Errorf("decoded garbage without error: %q", in)
		}
	}
}

func TestEventStrings(t *testing.T) {
	e := Event{Round: 1, AtMS: 5, Kind: EvPartition, Groups: [][]int{{1, 3}, {2}}}
	if got := e.String(); got != "partition groups=1,3|2" {
		t.Errorf("partition string = %q", got)
	}
	if got := (Event{Kind: EvCrash, Site: 4}).String(); got != "crash site=4" {
		t.Errorf("crash string = %q", got)
	}
}
