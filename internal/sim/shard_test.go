package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestEngineRunBefore pins the half-open window semantics the shard
// runtime depends on: an event exactly at the boundary must NOT run,
// but the clock must still advance to the boundary.
func TestEngineRunBefore(t *testing.T) {
	e := NewEngine()
	var ran []string
	e.At(10, func() { ran = append(ran, "a@10") })
	e.At(20, func() { ran = append(ran, "b@20") })

	e.RunBefore(20)
	if got, want := strings.Join(ran, ","), "a@10"; got != want {
		t.Fatalf("RunBefore(20) ran %q, want %q", got, want)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	if when, ok := e.NextEventTime(); !ok || when != 20 {
		t.Fatalf("NextEventTime() = %v,%v, want 20,true", when, ok)
	}

	e.Run(20)
	if got, want := strings.Join(ran, ","), "a@10,b@20"; got != want {
		t.Fatalf("after Run(20) ran %q, want %q", got, want)
	}
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime() reported an event on an empty queue")
	}
}

func TestNewShardGroupValidation(t *testing.T) {
	mustPanic(t, "zero shards", func() { NewShardGroup(0, Nanosecond, 1) })
	mustPanic(t, "zero window", func() { NewShardGroup(2, 0, 1) })
	if g := NewShardGroup(2, Nanosecond, 8); g.Workers() != 2 {
		t.Fatalf("workers not capped at shard count: %d", g.Workers())
	}
	if g := NewShardGroup(3, Nanosecond, 0); g.Workers() < 1 {
		t.Fatalf("default worker pool empty: %d", g.Workers())
	}
}

func TestShardSendValidation(t *testing.T) {
	g := NewShardGroup(2, Nanosecond, 1)
	mustPanic(t, "bad destination", func() { g.Shard(0).Send(2, Nanosecond, func() {}) })
	mustPanic(t, "negative destination", func() { g.Shard(0).Send(-1, Nanosecond, func() {}) })
	mustPanic(t, "nil fn", func() { g.Shard(0).Send(1, Nanosecond, nil) })
}

// TestShardSendLookaheadViolationPanics: a cross-shard send whose
// delivery lands inside the currently executing window is a
// conservative-PDES bug (the destination may already be past the tick)
// and must fail loudly, not corrupt the schedule.
func TestShardSendLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2, 10*Nanosecond, 1) // inline: panic surfaces on this goroutine
	s0 := g.Shard(0)
	s0.Engine().At(Nanosecond, func() {
		s0.Send(1, Nanosecond, func() {}) // delivers at 2ns, window end is >= 11ns
	})
	mustPanic(t, "lookahead violation", func() { g.Run(Microsecond) })
}

// TestShardGroupRunAdvancesIdleShards: shards with no events still
// reach the horizon, and an empty group run is a clean no-op.
func TestShardGroupRunAdvancesIdleShards(t *testing.T) {
	g := NewShardGroup(3, Nanosecond, 1)
	g.Shard(1).Engine().At(5*Nanosecond, func() {})
	g.Run(Microsecond)
	if g.Now() != Microsecond {
		t.Fatalf("group Now() = %v, want 1us", g.Now())
	}
	for i := 0; i < g.NumShards(); i++ {
		if now := g.Shard(i).Engine().Now(); now != Microsecond {
			t.Fatalf("shard %d Now() = %v, want 1us", i, now)
		}
	}
	g.Run(Microsecond)
	if g.Now() != 2*Microsecond {
		t.Fatalf("second Run: Now() = %v, want 2us", g.Now())
	}
}

// shardLog is a per-shard event journal: entries are appended only by
// that shard's own engine callbacks, so logging needs no locks.
type shardLog struct {
	entries []string
}

func (l *shardLog) add(e *Engine, label string) {
	l.entries = append(l.entries, fmt.Sprintf("%d:%s", uint64(e.Now()), label))
}

// pingPongWorkload wires n shards into a ring of ping-pong message
// chains plus a local periodic pump per shard. All timestamps are
// constructed to be unique per shard (pump phase i, message chains on
// distinct offsets), so the resulting journals have one valid order and
// any scheduling nondeterminism shows up as a diff. eng(i) is shard
// i's engine and send carries one hop between shards; the same
// workload thus runs sharded or on one engine.
func pingPongWorkload(n int, latency Tick, eng func(i int) *Engine, send func(from, to int, delay Tick, fn func())) []*shardLog {
	logs := make([]*shardLog, n)
	for i := 0; i < n; i++ {
		logs[i] = &shardLog{}
	}
	for i := 0; i < n; i++ {
		i := i
		e := eng(i)
		// Local pump: period 100ns, phase i picoseconds.
		var pump func()
		hops := 0
		pump = func() {
			logs[i].add(e, "pump")
			if hops++; hops < 20 {
				e.Schedule(100*Nanosecond, pump)
			}
		}
		e.At(Tick(i+1), pump)

		// Ring ping-pong: shard i kicks a message to (i+1)%n that
		// bounces around the ring, each hop exactly one link latency.
		dst := (i + 1) % n
		var hop func(from, at int, ttl int)
		hop = func(from, at int, ttl int) {
			logs[at].add(eng(at), fmt.Sprintf("msg<-%d", from))
			if ttl > 0 {
				next := (at + 1) % n
				send(at, next, latency, func() { hop(at, next, ttl-1) })
			}
		}
		send(i, dst, latency+Tick(10+i), func() { hop(i, dst, 12) })
	}
	return logs
}

func journalDigest(logs []*shardLog) string {
	var b strings.Builder
	for i, l := range logs {
		fmt.Fprintf(&b, "shard%d %s\n", i, strings.Join(l.entries, " "))
	}
	return b.String()
}

// runPingPong executes the reference workload on a fresh group,
// optionally registering the ring edges' per-pair lookaheads, and
// returns the journal digest plus the group for counter inspection.
func runPingPong(shards, workers int, window, latency Tick, registerLook bool) (string, *ShardGroup) {
	g := NewShardGroup(shards, window, workers)
	if registerLook && shards > 1 {
		for i := 0; i < shards; i++ {
			g.SetLookahead(i, (i+1)%shards, latency)
		}
	}
	logs := pingPongWorkload(shards, latency,
		func(i int) *Engine { return g.Shard(i).Engine() },
		func(from, to int, delay Tick, fn func()) { g.Shard(from).Send(to, delay, fn) })
	g.Run(2 * Microsecond)
	return journalDigest(logs), g
}

// monolithicPingPong runs the ping-pong workload of an n-shard ring on
// one Engine, with cross-"shard" hops as plain same-engine Schedules,
// and returns its journal digest: the sequential schedule every
// sharded run must reproduce.
func monolithicPingPong(n int, latency Tick) string {
	e := NewEngine()
	logs := pingPongWorkload(n, latency,
		func(int) *Engine { return e },
		func(_, _ int, delay Tick, fn func()) { e.Schedule(delay, fn) })
	e.Run(2 * Microsecond)
	return journalDigest(logs)
}

// TestShardGroupDeterministicAcrossWorkers is the core mailbox-ordering
// test (run under -race via `make race`): the same workload must yield
// byte-identical journals regardless of worker-pool size, because the
// barrier merge imposes a total (when, sent, src, seq) order that never
// depends on goroutine scheduling.
func TestShardGroupDeterministicAcrossWorkers(t *testing.T) {
	const window = 5 * Nanosecond
	ref, rg := runPingPong(4, 1, window, window, false)
	if rg.CrossSends == 0 {
		t.Fatal("workload exercised no cross-shard sends")
	}
	for _, workers := range []int{2, 3, 4} {
		got, gg := runPingPong(4, workers, window, window, false)
		if got != ref {
			t.Errorf("workers=%d journal differs from inline run:\n--- inline\n%s--- workers=%d\n%s",
				workers, ref, workers, got)
		}
		if gg.CrossSends != rg.CrossSends {
			t.Errorf("workers=%d CrossSends = %d, want %d", workers, gg.CrossSends, rg.CrossSends)
		}
	}
}

// TestShardGroupLatencyAboveWindow: the lookahead only requires link
// latency >= window; a larger latency must produce the same journal as
// the tight case modulo timing, and must not trip the Send assertion.
func TestShardGroupLatencyAboveWindow(t *testing.T) {
	const window = 5 * Nanosecond
	a, _ := runPingPong(3, 1, window, 3*window, false)
	b, _ := runPingPong(3, 3, window, 3*window, false)
	if a != b {
		t.Errorf("slack-latency journals differ:\n--- inline\n%s--- parallel\n%s", a, b)
	}
}

// TestShardGroupMatchesSingleEngine runs the identical logical workload
// on (a) one monolithic Engine and (b) a sharded group, and requires
// identical journals. Timestamps in the workload are globally unique,
// so this proves the windowed runtime neither reorders, drops, nor
// duplicates events relative to sequential execution.
func TestShardGroupMatchesSingleEngine(t *testing.T) {
	const (
		n       = 4
		window  = 5 * Nanosecond
		latency = 5 * Nanosecond
	)
	want := monolithicPingPong(n, latency)
	got, _ := runPingPong(n, n, window, latency, false)
	if got != want {
		t.Errorf("sharded journal differs from monolithic engine:\n--- monolithic\n%s--- sharded\n%s", want, got)
	}
}

// TestMailboxMergeOrder pins the (when, sent, src, seq) tie rule
// directly: several shards target shard 0 with deliveries at the same
// tick, and the observed execution order must follow source index and
// per-source FIFO order, not goroutine scheduling.
func TestMailboxMergeOrder(t *testing.T) {
	const window = 10 * Nanosecond
	run := func(workers int) string {
		g := NewShardGroup(4, window, workers)
		var order []string
		note := func(s string) func() {
			return func() { order = append(order, s) }
		}
		for src := 1; src < 4; src++ {
			src := src
			s := g.Shard(src)
			// Two messages per source, same delivery tick for everyone.
			s.Engine().At(Nanosecond, func() {
				delay := 20*Nanosecond - s.Engine().Now()
				s.Send(0, delay, note(fmt.Sprintf("s%d#1", src)))
				s.Send(0, delay, note(fmt.Sprintf("s%d#2", src)))
			})
		}
		g.Run(Microsecond)
		return strings.Join(order, ",")
	}
	want := "s1#1,s1#2,s2#1,s2#2,s3#1,s3#2"
	for _, workers := range []int{1, 2, 4} {
		if got := run(workers); got != want {
			t.Errorf("workers=%d merge order = %q, want %q", workers, got, want)
		}
	}
}

// TestShardGroupHorizonChain: a chain of cross-shard messages landing
// exactly on the Run horizon must all execute — the inclusive final
// pass has to loop until the group is quiescent at the target.
func TestShardGroupHorizonChain(t *testing.T) {
	const window = 5 * Nanosecond
	g := NewShardGroup(2, window, 1)
	var hits int
	// 0 -> 1 -> 0, every hop exactly at a multiple of the window, last
	// hop exactly at the horizon.
	g.Shard(0).Send(1, 10*Nanosecond, func() {
		hits++
		g.Shard(1).Send(0, 10*Nanosecond, func() { hits++ })
	})
	g.Run(20 * Nanosecond)
	if hits != 2 {
		t.Fatalf("horizon chain executed %d hops, want 2", hits)
	}
	if g.Now() != 20*Nanosecond {
		t.Fatalf("Now() = %v, want 20ns", g.Now())
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestShardGroupPolicyEquivalence: the per-shard earliest-input-time
// horizons must reproduce the monolithic single-engine journal byte for
// byte, for tight and slack link latencies, with and without registered
// per-pair lookaheads, across shard and worker counts.
func TestShardGroupPolicyEquivalence(t *testing.T) {
	const window = 5 * Nanosecond
	for _, shards := range []int{2, 3, 4} {
		for _, latency := range []Tick{window, 3 * window} {
			want := monolithicPingPong(shards, latency)
			for _, workers := range []int{1, shards} {
				for _, look := range []bool{false, true} {
					got, _ := runPingPong(shards, workers, window, latency, look)
					if got != want {
						t.Errorf("shards=%d latency=%v workers=%d look=%v: sharded journal differs from monolithic engine:\n--- monolithic\n%s--- sharded\n%s",
							shards, latency, workers, look, want, got)
					}
				}
			}
		}
	}
}

// TestShardGroupAdaptiveFewerRounds pins the round count with slack
// links (latency = 3W) and registered lookaheads: each shard's horizon
// follows its own inbound channels, so the run takes exactly 31
// barrier rounds, one fewer than a shared [first, first+W) window
// needs, and no shard is ever idle below its horizon.
func TestShardGroupAdaptiveFewerRounds(t *testing.T) {
	const window = 5 * Nanosecond
	_, g := runPingPong(4, 1, window, 3*window, true)
	if g.WindowsRun != 31 || g.IdleSkips != 0 {
		t.Fatalf("WindowsRun = %d, IdleSkips = %d; want 31, 0", g.WindowsRun, g.IdleSkips)
	}
}

// TestShardGroupQuietRelayBoundsHorizon: in a chain 0 -> 1 -> 2, shard
// 1 has nothing pending when the first round starts, yet a message
// from shard 0 can wake it and it can relay on to shard 2. Shard 2's
// horizon must therefore follow shard 1's earliest input time, not
// only its (empty) event list; otherwise shard 2 runs past the relay's
// delivery and Send panics.
func TestShardGroupQuietRelayBoundsHorizon(t *testing.T) {
	const window = 5 * Nanosecond
	g := NewShardGroup(3, window, 1)
	g.SetLookahead(0, 1, window)
	g.SetLookahead(1, 2, window)
	var got Tick
	s0, s1, s2 := g.Shard(0), g.Shard(1), g.Shard(2)
	s0.Engine().At(Nanosecond, func() {
		s0.Send(1, window, func() {
			s1.Send(2, window, func() { got = s2.Engine().Now() })
		})
	})
	g.Run(Microsecond)
	if want := Nanosecond + 2*window; got != want {
		t.Fatalf("relayed message ran at %v, want %v", got, want)
	}
}

// TestShardGroupIdleSkips: a shard with no pending work must be skipped
// by the dispatcher (IdleSkips counted) without perturbing the busy
// shards' schedule or the final clocks.
func TestShardGroupIdleSkips(t *testing.T) {
	g := NewShardGroup(3, 5*Nanosecond, 1)
	var ticks []Tick
	e := g.Shard(0).Engine()
	var pump func()
	n := 0
	pump = func() {
		ticks = append(ticks, e.Now())
		if n++; n < 10 {
			e.Schedule(7*Nanosecond, pump)
		}
	}
	e.At(1, pump)
	// Shards 1 and 2 stay empty the whole run.
	g.Run(Microsecond)
	if len(ticks) != 10 {
		t.Fatalf("busy shard ran %d events, want 10", len(ticks))
	}
	if g.IdleSkips == 0 {
		t.Fatal("empty shards were dispatched: IdleSkips = 0")
	}
	for i := 0; i < 3; i++ {
		if now := g.Shard(i).Engine().Now(); now != Microsecond {
			t.Fatalf("shard %d clock = %v, want 1us", i, now)
		}
	}
	if g.Now() != Microsecond {
		t.Fatalf("group clock = %v, want 1us", g.Now())
	}
}

func TestSetLookaheadValidation(t *testing.T) {
	g := NewShardGroup(2, 5*Nanosecond, 1)
	mustPanic(t, "src out of range", func() { g.SetLookahead(-1, 0, 10*Nanosecond) })
	mustPanic(t, "dst out of range", func() { g.SetLookahead(0, 2, 10*Nanosecond) })
	mustPanic(t, "self pair", func() { g.SetLookahead(1, 1, 10*Nanosecond) })
	mustPanic(t, "below window", func() { g.SetLookahead(0, 1, 4*Nanosecond) })
	// Repeated registration keeps the minimum.
	g.SetLookahead(0, 1, 20*Nanosecond)
	g.SetLookahead(0, 1, 8*Nanosecond)
	g.SetLookahead(0, 1, 30*Nanosecond)
	if g.look[0][1] != 8*Nanosecond {
		t.Fatalf("look[0][1] = %v, want 8ns (minimum of registrations)", g.look[0][1])
	}
}
