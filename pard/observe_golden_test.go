package pard

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/telemetry"
)

// Absolute observation goldens: the FNV-64a hash of every export and
// console surface that reads the observation stores (series rings,
// audit journal, flight-recorder archive, memory probe counters).
// StateDigest covers only the recorder's aggregate and span hash; these
// pin the bytes an operator sees. A change that moves any of them must
// update the hash deliberately.
//
// Moved together once: `journal json`, `prometheus`, `journal 0`,
// `telemetry`, `log` and `guard journal` changed when the journal began
// recording ldom_create events (one per LDom, four here) and the
// firmware's `log` became the journal's render.
//
// Moved together once more: `journal 0`, `log` and `guard journal`
// changed when the text render began to print `ds=` on every trigger
// event (ds0's included) and the statistic's `value=` on each
// trigger_fired, so a firing names its LDom and what fired it.
//
// Moved alone: `policy explain` (8fdaeb1f23eb97d4 -> 240a0e80ae083221)
// when it began to render the audit journal instead of a per-rule
// history ring. The one change is the firing's time, now the journal's
// handling time (the interrupt's 50 us plus the 10 us handler latency)
// rather than the interrupt's raise time: `[50us]` became `[60us]`.

// observeSystem boots the Figure 8 server with the memory probe on,
// loads llc_guard.pard and runs 30 ms — long enough for the 512-sample
// series rings to wrap.
func observeSystem(t *testing.T) *System {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SampleInterval = 50 * Microsecond
	cfg.TraceSample = 16
	cfg.ProbeMemory = true
	s := NewSystem(cfg)
	src, err := os.ReadFile("../examples/policies/llc_guard.pard")
	if err != nil {
		t.Fatal(err)
	}
	goldenColocation(t, s, Colocation{RPS: 20000, Guard: string(src)})
	s.Run(30 * Millisecond)
	return s
}

func TestObservationGoldens(t *testing.T) {
	s := observeSystem(t)
	if s.Telemetry.Series()[0].Dropped() == 0 {
		t.Fatal("series rings did not wrap: the scenario no longer covers displacement")
	}
	render := func(f func(*bytes.Buffer) error) string {
		var b bytes.Buffer
		if err := f(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	console := func(line string) string {
		out, err := Dispatch(s, line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return out
	}
	surfaces := []struct{ name, out, want string }{
		{"series json", render(func(b *bytes.Buffer) error { return telemetry.WriteSeriesJSON(b, s.Telemetry, "") }), "b568778d153fd865"},
		{"journal json", render(func(b *bytes.Buffer) error { return telemetry.WriteJournalJSON(b, s.Telemetry, s.Journal, 0, 0) }), "7b7359f9d85eff0e"},
		{"prometheus", render(func(b *bytes.Buffer) error { return telemetry.WritePrometheus(b, s.Telemetry, s.Journal) }), "c27d33560ab4d948"},
		{"trace", console("trace"), "9ed1ddb2aaf0dbe1"},
		{"top", console("top"), "6020a8eb568b336b"},
		{"journal 0", console("journal 0"), "124becb35d383975"},
		{"telemetry", console("telemetry"), "7373a39fe3c86d64"},
		{"policy explain", console("policy explain llc_guard"), "240a0e80ae083221"},
		{"log", console("log"), "124becb35d383975"},
		{"perfetto", render(func(b *bytes.Buffer) error {
			_, err := s.Recorder.WritePerfetto(b, s.Telemetry.Series())
			return err
		}), "e8df01889c281390"},
		// The built-in guard's repartition, journaled in DS-id order
		// (TestColocationOutputInDSIDOrder).
		{"guard journal", telemetry.JournalText(guardBoot(t).Journal, 0), "24808d7b132b0a9a"},
	}
	for _, sf := range surfaces {
		if got := goldenHash(sf.out); got != sf.want {
			t.Errorf("%s: hash %s, want %s", sf.name, got, sf.want)
		}
	}
}
