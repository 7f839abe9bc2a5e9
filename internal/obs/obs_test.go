package obs

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "site", "s1")
	b := r.Counter("x_total", "site", "s1")
	if a != b {
		t.Fatal("same name+labels must return the same handle")
	}
	a.Inc()
	if got := r.CounterValue("x_total", "site", "s1"); got != 1 {
		t.Fatalf("CounterValue = %d, want 1", got)
	}
	if got := r.CounterValue("x_total", "site", "s2"); got != 0 {
		t.Fatalf("absent series = %d, want 0", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("y_total", "b", "2", "a", "1")
	b := r.Counter("y_total", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not matter")
	}
	out := r.Render()
	if !strings.Contains(out, `y_total{a="1",b="2"} 0`) {
		t.Fatalf("labels not sorted in exposition:\n%s", out)
	}
}

func TestRenderPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("dvp_txn_total", "site", "s1", "outcome", "committed").Add(3)
	r.Gauge("dvp_depth", "site", "s1").Set(7)
	r.GaugeFunc("dvp_sampled", func() float64 { return 2.5 }, "site", "s1")
	h := r.Histogram("dvp_lat_seconds", "site", "s1")
	h.Record(2 * time.Millisecond)
	h.Record(5 * time.Millisecond)

	out := r.Render()
	for _, want := range []string{
		"# TYPE dvp_txn_total counter",
		`dvp_txn_total{outcome="committed",site="s1"} 3`,
		"# TYPE dvp_depth gauge",
		`dvp_depth{site="s1"} 7`,
		`dvp_sampled{site="s1"} 2.5`,
		"# TYPE dvp_lat_seconds histogram",
		`dvp_lat_seconds_count{site="s1"} 2`,
		`le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must match the exposition grammar.
	lineRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE+.\-]+$`)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	h.Record(1 * time.Millisecond)
	h.Record(1 * time.Millisecond)
	h.Record(100 * time.Millisecond)
	out := r.Render()
	// Two non-empty buckets: first carries cumulative 2, second 3.
	re := regexp.MustCompile(`lat_seconds_bucket\{le="[^"]+"\} (\d+)`)
	ms := re.FindAllStringSubmatch(out, -1)
	if len(ms) != 3 { // two finite + one +Inf
		t.Fatalf("bucket lines = %d, want 3:\n%s", len(ms), out)
	}
	if ms[0][1] != "2" || ms[1][1] != "3" || ms[2][1] != "3" {
		t.Fatalf("cumulative counts wrong: %v", ms)
	}
	if !strings.Contains(out, "lat_seconds_sum 0.102") {
		t.Errorf("sum not in seconds:\n%s", out)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Record(time.Millisecond)
	r.GaugeFunc("d", func() float64 { return 0 })
	if r.Render() != "" || r.CounterValue("a") != 0 || r.SumCounters("a") != 0 {
		t.Fatal("nil registry must be inert")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z")
	defer func() {
		if recover() == nil {
			t.Fatal("registering z as gauge after counter must panic")
		}
	}()
	r.Gauge("z")
}

func TestSumCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "site", "s1", "outcome", "committed").Add(2)
	r.Counter("t_total", "site", "s2", "outcome", "committed").Add(3)
	r.Counter("t_total", "site", "s1", "outcome", "timeout").Add(10)
	if got := r.SumCounters("t_total", "outcome", "committed"); got != 5 {
		t.Fatalf("SumCounters(committed) = %d, want 5", got)
	}
	if got := r.SumCounters("t_total"); got != 15 {
		t.Fatalf("SumCounters(all) = %d, want 15", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c_total", "w", fmt.Sprint(w%4)).Inc()
				r.Histogram("h_seconds", "w", fmt.Sprint(w%4)).Record(time.Duration(i) * time.Microsecond)
				_ = r.Render()
			}
		}(w)
	}
	wg.Wait()
	if got := r.SumCounters("c_total"); got != 1600 {
		t.Fatalf("SumCounters = %d, want 1600", got)
	}
}

func TestRingPublishAndLast(t *testing.T) {
	r := NewRing(4) // rounds up to 16
	for i := 0; i < 20; i++ {
		r.Publish(&Trace{TS: uint64(i)})
	}
	last := r.Last(5)
	if len(last) != 5 {
		t.Fatalf("Last(5) = %d traces", len(last))
	}
	for i, tr := range last {
		if want := uint64(15 + i); tr.TS != want {
			t.Errorf("trace %d: TS = %d, want %d", i, tr.TS, want)
		}
	}
	if r.Published() != 20 {
		t.Errorf("Published = %d", r.Published())
	}
	// Asking beyond capacity returns at most capacity traces.
	if n := len(r.Last(100)); n != 16 {
		t.Errorf("Last(100) = %d traces, want 16", n)
	}
}

func TestRingConcurrentPublish(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Publish(&Trace{TS: uint64(i)})
				r.Last(10)
			}
		}()
	}
	wg.Wait()
	if r.Published() != 4000 {
		t.Fatalf("Published = %d", r.Published())
	}
}

func TestTxnTraceLifecycle(t *testing.T) {
	r := NewRing(16)
	t0 := time.Unix(1_700_000_000, 0)
	tt := r.Begin(t0, "s1", "transfer")
	tt.SetTS(42)
	tt.Step(t0.Add(3*time.Microsecond), "admit", "")
	tt.Step(t0.Add(40*time.Microsecond), "ask", "requests=2")
	tt.Finish(t0.Add(125*time.Microsecond), "committed")

	last := r.Last(1)
	if len(last) != 1 {
		t.Fatal("no trace published")
	}
	tr := last[0]
	if tr.TS != 42 || tr.Site != "s1" || tr.Label != "transfer" || tr.Outcome != "committed" {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Steps) != 2 || tr.Steps[1].Detail != "requests=2" {
		t.Fatalf("steps = %+v", tr.Steps)
	}
	// Every instant is the caller's: offsets and latency are measured
	// from the one Begin was given.
	if tr.StartUnixNano != t0.UnixNano() || tr.Steps[0].AtMicros != 3 || tr.Steps[1].AtMicros != 40 || tr.LatencyMicros != 125 {
		t.Fatalf("instants = start %d, steps %+v, latency %d", tr.StartUnixNano, tr.Steps, tr.LatencyMicros)
	}

	var sb strings.Builder
	if err := r.DumpJSON(&sb, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"outcome":"committed"`) {
		t.Fatalf("JSON dump: %s", sb.String())
	}
}

func TestNilTraceSafe(t *testing.T) {
	var r *Ring
	now := time.Now()
	tt := r.Begin(now, "s1", "x")
	tt.SetTS(1)
	tt.Step(now, "admit", "")
	tt.Finish(now, "committed")
	if r.Last(5) != nil || r.Published() != 0 {
		t.Fatal("nil ring must be inert")
	}
}
