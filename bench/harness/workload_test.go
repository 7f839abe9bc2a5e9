package harness

import (
	"strings"
	"testing"
)

func stream(w Workload, seed int64, n int) string {
	var b strings.Builder
	for ph := range w.phases {
		for c := 0; c < Conns; c++ {
			g := w.NewGen(seed, ph, c, 0)
			for i := 0; i < n; i++ {
				b.WriteString(g.Next().Line())
			}
		}
	}
	s := w.newSerialGen(seed)
	for i := 0; i < n; i++ {
		b.WriteString(s.Next().Line())
	}
	return b.String()
}

func TestSameSeedSameCommandStream(t *testing.T) {
	for _, w := range Workloads {
		a, b, c := stream(w, 7, 500), stream(w, 7, 500), stream(w, 8, 500)
		if a != b {
			t.Errorf("%s: seed 7 gave two different command streams", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same command stream", w.Name)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	for _, w := range Workloads {
		for ph, p := range w.phases {
			for c, plan := range p.conns {
				g := w.NewGen(1, ph, c, 0)
				for i := 0; i < 2000; i++ {
					cmd := g.Next()
					if cmd.Item < plan.lo || cmd.Item >= plan.hi {
						t.Fatalf("%s phase %d conn %d: item %d outside [%d,%d)", w.Name, ph, c, cmd.Item, plan.lo, plan.hi)
					}
					short := w.share(cmd.Item) == sharesShortfall
					switch {
					case plan.pat == patShortfall && (!short || cmd.Verb != Reserve || cmd.Amount != 2):
						t.Fatalf("%s: shortfall pattern drew %q on an item with shares %v", w.Name, cmd.Line(), w.share(cmd.Item))
					case plan.pat == patLocal && (short || cmd.Verb == Read || cmd.Amount != 1):
						t.Fatalf("%s: local pattern drew %q on an item with shares %v", w.Name, cmd.Line(), w.share(cmd.Item))
					}
				}
			}
		}
	}
	// Connections that must not contend do not share an item.
	for _, name := range []string{"local_durable", "local_cpu", "shortfall_durable", "crash_restart"} {
		w, _ := WorkloadByName(name)
		for _, p := range w.phases {
			if p.conns[0].hi > p.conns[1].lo {
				t.Errorf("%s: connection ranges overlap: %+v", name, p.conns)
			}
		}
	}
	if cr, _ := WorkloadByName("crash_restart"); cr.phases[0].phaseOps(10)*Conns != 30000 || cr.phases[1].phaseOps(10)*Conns != 5000 {
		t.Error("crash_restart at 10 s must be 30,000 local then 5,000 shortfall ops")
	}
}

func TestSerialStreamMixesPhasesInProportion(t *testing.T) {
	w, _ := WorkloadByName("crash_restart")
	s := w.newSerialGen(1)
	var short int
	for i := 0; i < 7000; i++ {
		if s.Next().Amount == 2 {
			short++
		}
	}
	if short != 1000 {
		t.Errorf("shortfall ops in 7000 = %d, want 1000 (6 local : 1 shortfall)", short)
	}
	am, _ := WorkloadByName("audit_mix")
	s = am.newSerialGen(1)
	var reads int
	for i := 0; i < 1000; i++ {
		if s.Next().Verb == Read {
			reads++
		}
	}
	if reads != 500 {
		t.Errorf("audit_mix serial stream: %d reads in 1000, want 500", reads)
	}
}

func TestParseReply(t *testing.T) {
	r := parseReply("OK committed in 0.42ms ts=65537")
	if !r.ok || r.serverNs != 420000 || r.txn != 65537 {
		t.Errorf("commit reply: %+v", r)
	}
	r = parseReply("OK 2999999999 ts=262145")
	if !r.ok || r.value != 2999999999 || r.txn != 262145 {
		t.Errorf("read reply: %+v", r)
	}
	for _, line := range []string{"ABORT lock-conflict", "ERR bad amount", ""} {
		if parseReply(line).ok {
			t.Errorf("%q parsed as OK", line)
		}
	}
}
