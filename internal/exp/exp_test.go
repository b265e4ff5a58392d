package exp

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("quick"); err != nil || s != Quick {
		t.Fatal("quick")
	}
	if s, err := ParseScale(""); err != nil || s != Quick {
		t.Fatal("default")
	}
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Fatal("full")
	}
	if _, err := ParseScale("medium"); err == nil {
		t.Fatal("bogus scale accepted")
	}
}

func TestTable2ReportsEveryRow(t *testing.T) {
	res := Table2()
	var sb strings.Builder
	res.Print(&sb)
	out := sb.String()
	for _, want := range []string{"CPU", "L1/core", "Shared LLC", "DDR3-1600", "IDE", "PRM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3CoversFivePlanes(t *testing.T) {
	res := Table3()
	if len(res.Planes) != 5 {
		t.Fatalf("planes = %d, want 5", len(res.Planes))
	}
	types := map[byte]bool{}
	for _, p := range res.Planes {
		types[p.Type] = true
		if len(p.Parameters) == 0 || len(p.Statistics) == 0 {
			t.Fatalf("plane %s has empty tables", p.Ident)
		}
	}
	for _, want := range []byte{'C', 'M', 'B', 'I', 'N'} {
		if !types[want] {
			t.Fatalf("missing plane type %c", want)
		}
	}
}

func TestFig11ShapeMatchesPaper(t *testing.T) {
	cfg := DefaultFig11Config(Quick)
	cfg.Requests = 8000
	r := Fig11(cfg)
	// The paper's ordering: high < baseline < low mean queueing delay.
	if !(r.High.Mean() < r.Baseline.Mean() && r.Baseline.Mean() < r.Low.Mean()) {
		t.Fatalf("delay ordering wrong: high=%.1f base=%.1f low=%.1f",
			r.High.Mean(), r.Baseline.Mean(), r.Low.Mean())
	}
	if r.Speedup() < 2 {
		t.Fatalf("speedup %.1fx too weak (paper: 5.6x)", r.Speedup())
	}
	if r.LowPenalty() < 0.05 || r.LowPenalty() > 3 {
		t.Fatalf("low penalty %.2f out of plausible range", r.LowPenalty())
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "CDF") {
		t.Fatal("report missing CDF section")
	}
}

func TestFig11Deterministic(t *testing.T) {
	cfg := DefaultFig11Config(Quick)
	cfg.Requests = 2000
	a, b := Fig11(cfg), Fig11(cfg)
	if a.Baseline.Mean() != b.Baseline.Mean() || a.High.Mean() != b.High.Mean() {
		t.Fatal("fig11 not deterministic")
	}
}

func TestFig12MatchesPaperAnchors(t *testing.T) {
	r := Fig12()
	if r.MemOverheadPct < 9 || r.MemOverheadPct > 11 {
		t.Fatalf("memory CP overhead %.1f%%, paper 10.1%%", r.MemOverheadPct)
	}
	if r.LLCOverheadPct < 2.5 || r.LLCOverheadPct > 3.5 {
		t.Fatalf("LLC CP overhead %.1f%%, paper 3.1%%", r.LLCOverheadPct)
	}
	if r.BlockRAMBefore != 12 || r.BlockRAMAfter != 18 {
		t.Fatal("blockRAM anchors wrong")
	}
	// The 256/64-entry points reproduce the anchors exactly.
	for _, c := range r.Memory {
		if c.Component == "param+stats" && c.Entries == 256 {
			if c.LUT != 220 || c.LUTRAM != 688 {
				t.Fatalf("256-entry table cost %+v", c)
			}
		}
		if c.Component == "trigger" && c.Entries == 64 {
			if c.LUT != 582 || c.FF != 387 || c.LUTRAM != 40 {
				t.Fatalf("64-slot trigger cost %+v", c)
			}
		}
	}
	// Costs are monotonically increasing in entries.
	var prev float64
	for _, c := range r.Memory[:3] {
		if c.Total()+c.LUTRAM <= prev {
			t.Fatal("table cost not monotone")
		}
		prev = c.Total() + c.LUTRAM
	}
}

func TestLLCLatencyZeroOverhead(t *testing.T) {
	r := LLCLatency(100)
	if !r.ZeroOverhead() {
		t.Fatalf("control plane added latency: %v vs %v", r.HitWithCP, r.HitWithoutCP)
	}
	if r.HitWithCP != 10*sim.Nanosecond {
		t.Fatalf("hit latency %v, want 10ns (20 cycles at 2GHz)", r.HitWithCP)
	}
}

func TestAblationPartitionProtects(t *testing.T) {
	r := AblationPartition()
	half := r.Capacity / 2
	if r.ProtectedOccupancy != half {
		t.Fatalf("partitioned victim kept %d blocks, want all %d", r.ProtectedOccupancy, half)
	}
	if r.UnprotectedOccupancy >= half/2 {
		t.Fatalf("unpartitioned victim kept %d blocks; attack too weak", r.UnprotectedOccupancy)
	}
}

func TestAblationWritebackAttribution(t *testing.T) {
	r := AblationWriteback()
	if r.ByOwner[0] == 0 {
		t.Fatal("owner tagging recorded no writebacks for the dirtying LDom")
	}
	// The naive requester policy charges the streamer for most of the
	// dirtying LDom's writebacks.
	if r.ByRequester[1] <= r.ByRequester[0] {
		t.Fatalf("requester attribution: %v (expected the streamer to be charged)", r.ByRequester)
	}
	if r.Misattributed <= 0.3 {
		t.Fatalf("misattribution %.2f too small to demonstrate the paper's point", r.Misattributed)
	}
}

// Each timeline figure sizes its series to the samples its sampler
// records — one every SampleEvery, up to and including the run's end —
// at both scales. Counted here from the configs, without a run.
func TestFigureSeriesHoldWholeRun(t *testing.T) {
	for _, scale := range []Scale{Quick, Full} {
		f7, f9, f10 := DefaultFig7Config(scale), DefaultFig9Config(scale), DefaultFig10Config(scale)
		for _, fig := range []struct {
			name         string
			total, every sim.Tick
		}{
			{"fig7", f7.Total, f7.SampleEvery},
			{"fig9", f9.Duration, f9.SampleEvery},
			{"fig10", f10.Total, f10.SampleEvery},
		} {
			recorded := 0
			for at := fig.every; at <= fig.total; at += fig.every {
				recorded++
			}
			if got := timelineSamples(fig.total, fig.every); got < recorded {
				t.Errorf("%s at scale %d: series hold %d samples, the sampler records %d", fig.name, scale, got, recorded)
			}
		}
	}
}

func TestFig10QuotaShape(t *testing.T) {
	cfg := DefaultFig10Config(Quick)
	cfg.Total = 40 * sim.Millisecond
	cfg.EchoAt = 20 * sim.Millisecond
	r := Fig10(cfg)
	if !r.QuotaApplied() {
		t.Fatalf("quota not applied: %.1f%% -> %.1f%%", r.PreEchoShare0, r.PostEchoShare0)
	}
}

func TestFig7DipAndRecover(t *testing.T) {
	cfg := DefaultFig7Config(Quick)
	cfg.Total = 15 * sim.Millisecond
	cfg.Boot1, cfg.Boot2 = sim.Millisecond, 2*sim.Millisecond
	cfg.FlushStart, cfg.EchoAt = 6*sim.Millisecond, 10*sim.Millisecond
	r := Fig7(cfg)
	if !r.IsolationRestored() {
		t.Fatalf("shape wrong: %.2f -> %.2f -> %.2f MB",
			r.OccBeforeFlush, r.OccDuringFlush, r.OccAfterEcho)
	}
	if len(r.Events) < 5 {
		t.Fatalf("only %d timeline events", len(r.Events))
	}
	for _, s := range r.Occupancy {
		if s.Len() == 0 {
			t.Fatal("empty occupancy series")
		}
	}
}

func TestFig9TriggerFiresAndMissRateDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-system run")
	}
	cfg := DefaultFig9Config(Quick)
	cfg.Duration = 16 * sim.Millisecond
	cfg.InstallAt = 2 * sim.Millisecond
	cfg.StreamStart = 4 * sim.Millisecond
	r := Fig9(cfg)
	if r.FiredAt == 0 {
		t.Fatal("trigger never fired")
	}
	if r.WaymaskAt != "0xff00" {
		t.Fatalf("final waymask %q", r.WaymaskAt)
	}
	if r.PostFire >= r.PreFire {
		t.Fatalf("miss rate did not drop: %.0f -> %.0f (0.1%% units)", r.PreFire, r.PostFire)
	}
}

func TestFig8SharedWorseThanTrigger(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full-system run")
	}
	cfg := Fig8Config{
		KRPS:    []float64{20},
		Warm:    5 * sim.Millisecond,
		Measure: 15 * sim.Millisecond,
		Arms:    []Arm{ArmSolo, ArmShared, ArmTrigger},
	}
	r := Fig8(cfg)
	solo := r.Points[0]
	shared := r.Points[1]
	trigger := r.Points[2]
	if !(shared.P95Ms > 3*trigger.P95Ms) {
		t.Fatalf("shared p95 %.2fms not clearly worse than trigger %.2fms", shared.P95Ms, trigger.P95Ms)
	}
	if trigger.Utilization < 2.5*solo.Utilization {
		t.Fatalf("utilization gain too small: %.2f vs %.2f", trigger.Utilization, solo.Utilization)
	}
	if shared.MissRate <= trigger.MissRate {
		t.Fatalf("miss rates: shared %d <= trigger %d", shared.MissRate, trigger.MissRate)
	}
}
