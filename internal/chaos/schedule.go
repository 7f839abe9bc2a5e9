// Package chaos is a deterministic, seed-driven failure-scenario
// engine: it runs a DvP cluster on the simulated network while a
// fault scheduler interleaves site crashes, WAL-backed restarts,
// partitions and heals, link flaps, loss/duplication surges and
// checkpoints against a concurrent randomized workload — then checks
// the paper's global correctness conditions mechanically (see
// invariants.go).
//
// Everything a run does derives from one int64 seed: the cluster
// shape, the fault schedule (kinds, targets and intra-round offsets)
// and the per-site workload streams. A failing seed is therefore a
// complete reproduction recipe; the event trace the runner keeps
// shows what the schedule did, and Schedule.Encode/DecodeSchedule
// round-trip the schedule itself for replay and archival.
package chaos

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// EventKind names one fault action.
type EventKind uint8

// Fault kinds a schedule can contain.
const (
	// EvCrash kills a site (volatile state lost; log and store
	// survive). Any site not restarted mid-round is restarted —
	// through full §7 recovery — at the round barrier.
	EvCrash EventKind = iota + 1
	// EvRestart recovers a previously crashed site mid-round, under
	// live traffic.
	EvRestart
	// EvPartition splits the network into groups.
	EvPartition
	// EvHeal removes the partition mid-round.
	EvHeal
	// EvLinkDown fails both directions between two sites (flap down).
	EvLinkDown
	// EvLinkUp restores them (flap up).
	EvLinkUp
	// EvLoss sets the random message-loss probability.
	EvLoss
	// EvDup sets the message-duplication probability.
	EvDup
	// EvCheckpoint writes a checkpoint at a site, compacting its log
	// mid-history (recovery then starts from the checkpoint).
	EvCheckpoint
	// EvCrashInFlush arms a one-shot trap on the site's group-commit
	// pipeline: the site is killed the moment its NEXT flush window
	// opens, so the crash lands with committers parked mid-batch. The
	// durability invariant (no acknowledged commit lost) is exactly
	// what this schedule stresses. New kinds append here — the text
	// encoding names kinds, but keeping the enum stable keeps archived
	// numeric traces meaningful.
	EvCrashInFlush
	// EvCrashInCheckpoint arms a one-shot trap on the site's
	// checkpointer and then triggers a checkpoint: the site is killed
	// after the checkpoint record is stable but before the log is
	// compacted behind it, so recovery sees a fresh checkpoint with the
	// records it summarizes still present — the window where a restart
	// must start from the image and replay only what follows it, not
	// double-apply or lose state.
	EvCrashInCheckpoint
	// Retired: hint-skew, which corrupted the advisory quota-hint cache
	// until the cache was deleted. The slot keeps later kinds' numbers.
	_
	// EvPeerDown is the long-outage event: the site is crashed and
	// HELD down across the next A round barriers (clamped so the final
	// barrier always runs with everyone up). Barriers crossed while a
	// site is held are degraded — they heal links and restart other
	// crashed sites but skip the drain and the invariant families,
	// which need the full mesh — and instead check the outage bounds:
	// every survivor's retransmission set toward the dead peer stays
	// bounded, and its retransmission sweeps stay rate-bounded by the
	// adaptive backoff (one sweep per 8 ticks once backed off, not
	// one per tick). The barrier that releases the site restarts
	// it through full §7 recovery and the run's remaining barriers
	// prove full catch-up.
	EvPeerDown
)

var kindNames = map[EventKind]string{
	EvCrash:             "crash",
	EvRestart:           "restart",
	EvPartition:         "partition",
	EvHeal:              "heal",
	EvLinkDown:          "link-down",
	EvLinkUp:            "link-up",
	EvLoss:              "loss",
	EvDup:               "dup",
	EvCheckpoint:        "checkpoint",
	EvCrashInFlush:      "crash-in-flush",
	EvCrashInCheckpoint: "crash-in-checkpoint",
	EvPeerDown:          "peer-down",
}

func (k EventKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event?%d", uint8(k))
}

func kindFromName(s string) (EventKind, bool) {
	for k, n := range kindNames {
		if n == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one scheduled fault action.
type Event struct {
	// Round is the 1-based round the event belongs to; AtMS its
	// offset from the round's start in milliseconds.
	Round int
	AtMS  int
	Kind  EventKind
	// Site is the target of crash/restart/checkpoint/peer-down; A,B the
	// link of link-down/link-up (A alone the number of barriers a
	// peer-down site stays held); P the probability of loss/dup; Groups
	// the partition groups (1-based site indices).
	Site   int
	A, B   int
	P      float64
	Groups [][]int
}

// String renders the event the way the trace and Encode print it.
func (e Event) String() string {
	switch e.Kind {
	case EvCrash, EvRestart, EvCheckpoint, EvCrashInFlush, EvCrashInCheckpoint:
		return fmt.Sprintf("%s site=%d", e.Kind, e.Site)
	case EvPeerDown:
		return fmt.Sprintf("%s site=%d rounds=%d", e.Kind, e.Site, e.A)
	case EvLinkDown, EvLinkUp:
		return fmt.Sprintf("%s link=%d-%d", e.Kind, e.A, e.B)
	case EvLoss, EvDup:
		return fmt.Sprintf("%s p=%.2f", e.Kind, e.P)
	case EvPartition:
		return fmt.Sprintf("%s groups=%s", e.Kind, encodeGroups(e.Groups))
	default:
		return e.Kind.String()
	}
}

// Schedule is a complete, replayable scenario description.
type Schedule struct {
	// Seed is the scenario seed; it also drives the workload streams
	// and the network's own fault sampling.
	Seed int64
	// Sites/Items shape the cluster; Total is the initial value of
	// every item (split evenly across sites, §3).
	Sites, Items int
	Total        int64
	// Rounds is the number of fault rounds; RoundMS each round's
	// wall-clock length in milliseconds.
	Rounds  int
	RoundMS int
	// Events holds every scheduled fault, ordered by (Round, AtMS).
	Events []Event
}

// eventsIn returns the round's events in offset order.
func (s *Schedule) eventsIn(round int) []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Round == round {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtMS < out[j].AtMS })
	return out
}

// Build derives a schedule from a seed. Every choice — cluster shape,
// how many faults per round, their kinds, targets and offsets — is
// sampled from a PRNG seeded with the scenario seed, so the same seed
// always yields the same schedule. Five guarantees are enforced after
// sampling, because the acceptance conditions require them: every
// schedule contains at least one crash (hence at least one
// crash-recovery cycle, since the round barrier restarts through §7
// recovery), at least one partition (healed mid-round or at the
// barrier), at least one crash-in-flush (a site killed inside a
// group-commit window), and at least one peer-down long outage (a site
// held dead across a round barrier while the survivors' retransmission
// backoff is bounds-checked).
func Build(seed int64) *Schedule {
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{
		Seed:    seed,
		Sites:   3 + rng.Intn(3), // 3..5
		Items:   2 + rng.Intn(2), // 2..3
		Rounds:  3,
		RoundMS: 120,
	}
	s.Total = int64(s.Sites) * 60

	for r := 1; r <= s.Rounds; r++ {
		n := 1 + rng.Intn(3) // 1..3 primary faults this round
		for i := 0; i < n; i++ {
			at := 10 + rng.Intn(s.RoundMS-30)
			switch rng.Intn(9) {
			case 0, 1: // crash, maybe mid-round restart
				site := 1 + rng.Intn(s.Sites)
				s.add(Event{Round: r, AtMS: at, Kind: EvCrash, Site: site})
				if rng.Float64() < 0.5 {
					back := at + 20 + rng.Intn(s.RoundMS-at)
					s.add(Event{Round: r, AtMS: back, Kind: EvRestart, Site: site})
				}
			case 2: // partition, maybe mid-round heal
				s.add(Event{Round: r, AtMS: at, Kind: EvPartition, Groups: s.sampleGroups(rng)})
				if rng.Float64() < 0.5 {
					back := at + 20 + rng.Intn(s.RoundMS-at)
					s.add(Event{Round: r, AtMS: back, Kind: EvHeal})
				}
			case 3: // link flap (both directions), always restored
				a := 1 + rng.Intn(s.Sites)
				b := 1 + rng.Intn(s.Sites)
				for b == a {
					b = 1 + rng.Intn(s.Sites)
				}
				s.add(Event{Round: r, AtMS: at, Kind: EvLinkDown, A: a, B: b})
				back := at + 15 + rng.Intn(s.RoundMS-at)
				s.add(Event{Round: r, AtMS: back, Kind: EvLinkUp, A: a, B: b})
			case 4: // loss or duplication surge (reverted at barrier)
				p := 0.1 + 0.4*rng.Float64()
				kind := EvLoss
				if rng.Intn(2) == 0 {
					kind = EvDup
				}
				s.add(Event{Round: r, AtMS: at, Kind: kind, P: p})
			case 5: // checkpoint + log compaction under traffic
				s.add(Event{Round: r, AtMS: at, Kind: EvCheckpoint, Site: 1 + rng.Intn(s.Sites)})
			case 6: // crash inside the next group-commit window
				s.add(Event{Round: r, AtMS: at, Kind: EvCrashInFlush, Site: 1 + rng.Intn(s.Sites)})
			case 7: // crash between checkpoint write and compaction
				s.add(Event{Round: r, AtMS: at, Kind: EvCrashInCheckpoint, Site: 1 + rng.Intn(s.Sites)})
			case 8: // long outage: site held down across round barriers
				if r < s.Rounds {
					held := 1 + rng.Intn(s.Rounds-r)
					s.add(Event{Round: r, AtMS: at, Kind: EvPeerDown, Site: 1 + rng.Intn(s.Sites), A: held})
				} else {
					// Final round: a hold would be clamped to nothing,
					// so a plain crash carries the fault instead.
					s.add(Event{Round: r, AtMS: at, Kind: EvCrash, Site: 1 + rng.Intn(s.Sites)})
				}
			}
		}
	}

	// Enforce the per-run guarantees.
	if !s.has(EvCrash) {
		s.add(Event{Round: 1, AtMS: 30, Kind: EvCrash, Site: 1 + rng.Intn(s.Sites)})
	}
	if !s.has(EvPartition) {
		r := 1 + rng.Intn(s.Rounds)
		s.add(Event{Round: r, AtMS: 40, Kind: EvPartition, Groups: s.sampleGroups(rng)})
	}
	// Every schedule stresses the group-commit crash window at least
	// once: the mid-batch crash is where the durability invariant (no
	// acknowledged commit lost) earns its keep.
	if !s.has(EvCrashInFlush) {
		r := 1 + rng.Intn(s.Rounds)
		s.add(Event{Round: r, AtMS: 20 + rng.Intn(50), Kind: EvCrashInFlush, Site: 1 + rng.Intn(s.Sites)})
	}
	// And the long outage: at least one site spends a full round dead
	// while the survivors' retransmission backoff and the degraded
	// barriers' outage bounds get exercised. Scheduled before the final
	// round so the release barrier and a full-mesh barrier both run.
	if !s.has(EvPeerDown) && s.Rounds > 1 {
		r := 1 + rng.Intn(s.Rounds-1)
		s.add(Event{Round: r, AtMS: 20 + rng.Intn(50), Kind: EvPeerDown, Site: 1 + rng.Intn(s.Sites), A: 1})
	}
	sort.SliceStable(s.Events, func(i, j int) bool {
		if s.Events[i].Round != s.Events[j].Round {
			return s.Events[i].Round < s.Events[j].Round
		}
		return s.Events[i].AtMS < s.Events[j].AtMS
	})
	return s
}

func (s *Schedule) add(e Event) { s.Events = append(s.Events, e) }

func (s *Schedule) has(k EventKind) bool {
	for _, e := range s.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// sampleGroups splits the sites into two non-empty groups.
func (s *Schedule) sampleGroups(rng *rand.Rand) [][]int {
	perm := rng.Perm(s.Sites)
	cut := 1 + rng.Intn(s.Sites-1)
	g1, g2 := []int{}, []int{}
	for i, p := range perm {
		if i < cut {
			g1 = append(g1, p+1)
		} else {
			g2 = append(g2, p+1)
		}
	}
	sort.Ints(g1)
	sort.Ints(g2)
	return [][]int{g1, g2}
}

// --- encoding ---------------------------------------------------------------

func encodeGroups(groups [][]int) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		nums := make([]string, len(g))
		for j, s := range g {
			nums[j] = strconv.Itoa(s)
		}
		parts[i] = strings.Join(nums, ",")
	}
	return strings.Join(parts, "|")
}

func decodeGroups(s string) ([][]int, error) {
	var out [][]int
	for _, part := range strings.Split(s, "|") {
		var g []int
		for _, n := range strings.Split(part, ",") {
			v, err := strconv.Atoi(n)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad group element %q", n)
			}
			g = append(g, v)
		}
		out = append(out, g)
	}
	return out, nil
}

// Encode writes the schedule in a line-oriented text form that
// DecodeSchedule parses back — the "replayable event trace" a failing
// run prints.
func (s *Schedule) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "chaos-schedule v1")
	fmt.Fprintf(bw, "seed %d\n", s.Seed)
	fmt.Fprintf(bw, "sites %d\n", s.Sites)
	fmt.Fprintf(bw, "items %d\n", s.Items)
	fmt.Fprintf(bw, "total %d\n", s.Total)
	fmt.Fprintf(bw, "rounds %d\n", s.Rounds)
	fmt.Fprintf(bw, "roundms %d\n", s.RoundMS)
	for _, e := range s.Events {
		fmt.Fprintf(bw, "event r=%d at=%d kind=%s", e.Round, e.AtMS, e.Kind)
		switch e.Kind {
		case EvCrash, EvRestart, EvCheckpoint, EvCrashInFlush, EvCrashInCheckpoint:
			fmt.Fprintf(bw, " site=%d", e.Site)
		case EvPeerDown:
			fmt.Fprintf(bw, " site=%d a=%d", e.Site, e.A)
		case EvLinkDown, EvLinkUp:
			fmt.Fprintf(bw, " a=%d b=%d", e.A, e.B)
		case EvLoss, EvDup:
			fmt.Fprintf(bw, " p=%g", e.P)
		case EvPartition:
			fmt.Fprintf(bw, " groups=%s", encodeGroups(e.Groups))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// EncodeString is Encode into a string.
func (s *Schedule) EncodeString() string {
	var sb strings.Builder
	_ = s.Encode(&sb)
	return sb.String()
}

// DecodeSchedule parses the Encode format.
func DecodeSchedule(r io.Reader) (*Schedule, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "chaos-schedule v1" {
		return nil, fmt.Errorf("chaos: not a v1 schedule (missing header)")
	}
	s := &Schedule{}
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		key := fields[0]
		intVal := func() (int, error) {
			if len(fields) != 2 {
				return 0, fmt.Errorf("chaos: line %d: %q wants one value", line, key)
			}
			return strconv.Atoi(fields[1])
		}
		var err error
		switch key {
		case "seed":
			var v int64
			if len(fields) == 2 {
				v, err = strconv.ParseInt(fields[1], 10, 64)
			} else {
				err = fmt.Errorf("chaos: line %d: seed wants one value", line)
			}
			s.Seed = v
		case "sites":
			s.Sites, err = intVal()
		case "items":
			s.Items, err = intVal()
		case "total":
			var v int
			v, err = intVal()
			s.Total = int64(v)
		case "rounds":
			s.Rounds, err = intVal()
		case "roundms":
			s.RoundMS, err = intVal()
		case "event":
			var e Event
			e, err = decodeEvent(fields[1:], line)
			s.Events = append(s.Events, e)
		default:
			err = fmt.Errorf("chaos: line %d: unknown key %q", line, key)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Sites <= 0 || s.Items <= 0 || s.Rounds <= 0 || s.RoundMS <= 0 {
		return nil, fmt.Errorf("chaos: schedule missing sites/items/rounds/roundms")
	}
	return s, nil
}

func decodeEvent(kvs []string, line int) (Event, error) {
	var e Event
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return e, fmt.Errorf("chaos: line %d: bad field %q", line, kv)
		}
		var err error
		switch k {
		case "r":
			e.Round, err = strconv.Atoi(v)
		case "at":
			e.AtMS, err = strconv.Atoi(v)
		case "kind":
			kind, ok := kindFromName(v)
			if !ok {
				err = fmt.Errorf("chaos: line %d: unknown kind %q", line, v)
			}
			e.Kind = kind
		case "site":
			e.Site, err = strconv.Atoi(v)
		case "a":
			e.A, err = strconv.Atoi(v)
		case "b":
			e.B, err = strconv.Atoi(v)
		case "p":
			e.P, err = strconv.ParseFloat(v, 64)
		case "groups":
			e.Groups, err = decodeGroups(v)
		default:
			err = fmt.Errorf("chaos: line %d: unknown field %q", line, k)
		}
		if err != nil {
			return e, err
		}
	}
	if e.Kind == 0 || e.Round <= 0 {
		return e, fmt.Errorf("chaos: line %d: event needs kind and r", line)
	}
	return e, nil
}
