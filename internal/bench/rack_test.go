package bench

import (
	"testing"

	"repro/internal/exp"
)

// TestRackSweepSmoke checks the sweep record's structure: digests must
// agree across shard counts (MeasureRackSweep fails otherwise), the
// baseline point's speedup is exactly 1, and the CPU count is recorded
// so speedup_unreliable markers are interpretable.
func TestRackSweepSmoke(t *testing.T) {
	sweep, err := MeasureRackSweep([]int{1, 2}, exp.Quick)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.CPUs < 1 {
		t.Errorf("CPUs = %d, want >= 1", sweep.CPUs)
	}
	if sweep.Digest == "" || len(sweep.Points) != 2 {
		t.Fatalf("malformed sweep: digest %q, %d points", sweep.Digest, len(sweep.Points))
	}
	if sweep.Points[0].SpeedupVs1 != 1 {
		t.Errorf("baseline speedup = %v, want 1", sweep.Points[0].SpeedupVs1)
	}
	if got, want := sweep.Points[1].SpeedupUnreliable, 2 > sweep.CPUs; got != want {
		t.Errorf("speedup_unreliable = %v on %d CPUs, want %v", got, sweep.CPUs, want)
	}
}
