package exp

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/metric"
	"repro/internal/sim"
)

// CSVWriter is implemented by results that can export their series for
// replotting; pardbench's -csv flag drives it.
type CSVWriter interface {
	WriteCSV(dir string) error
}

// writeCSV writes one file with a header row.
func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func ms(t sim.Tick) string {
	return strconv.FormatFloat(float64(t)/float64(sim.Millisecond), 'f', 3, 64)
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// seriesCSV exports aligned series sampled at the same instants.
func seriesCSV(path string, names []string, series []*metric.Series) error {
	if len(series) == 0 {
		return nil
	}
	header := append([]string{"time_ms"}, names...)
	n := series[0].Len()
	rows := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		row := []string{ms(series[0].At(i).When)}
		for _, s := range series {
			if i < s.Len() {
				row = append(row, f2(s.At(i).Value))
			} else {
				row = append(row, "")
			}
		}
		rows = append(rows, row)
	}
	return writeCSV(path, header, rows)
}

// WriteCSV exports Figure 7's timelines.
func (r *Fig7Result) WriteCSV(dir string) error {
	if err := seriesCSV(filepath.Join(dir, "fig7_occupancy_mb.csv"),
		[]string{"ldom0", "ldom1", "ldom2"}, r.Occupancy); err != nil {
		return err
	}
	return seriesCSV(filepath.Join(dir, "fig7_bandwidth_gbs.csv"),
		[]string{"ldom0", "ldom1", "ldom2"}, r.Bandwidth)
}

// WriteCSV exports Figure 8's sweep.
func (r *Fig8Result) WriteCSV(dir string) error {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Arm.String(), f2(p.KRPS), f2(p.P95Ms), f2(p.MeanMs),
			f2(p.Utilization), strconv.FormatUint(p.MissRate, 10),
			strconv.FormatUint(p.Completed, 10),
		})
	}
	return writeCSV(filepath.Join(dir, "fig8_tail_latency.csv"),
		[]string{"arm", "krps", "p95_ms", "mean_ms", "utilization", "missrate_permil", "completed"}, rows)
}

// WriteCSV exports Figure 9's miss-rate timeline.
func (r *Fig9Result) WriteCSV(dir string) error {
	return seriesCSV(filepath.Join(dir, "fig9_missrate_permil.csv"),
		[]string{"missrate"}, []*metric.Series{r.MissRate})
}

// WriteCSV exports Figure 10's share timelines.
func (r *Fig10Result) WriteCSV(dir string) error {
	return seriesCSV(filepath.Join(dir, "fig10_disk_share_pct.csv"),
		[]string{"ldom0", "ldom1"}, r.Shares)
}

// WriteCSV exports Figure 11's CDFs.
func (r *Fig11Result) WriteCSV(dir string) error {
	arms := []struct {
		name string
		h    *metric.Histogram
	}{
		{"baseline", r.Baseline}, {"high", r.High}, {"low", r.Low},
	}
	var rows [][]string
	for _, a := range arms {
		for _, p := range a.h.CDF() {
			rows = append(rows, []string{
				a.name, strconv.FormatUint(p.Value, 10), f2(p.Fraction),
			})
		}
	}
	return writeCSV(filepath.Join(dir, "fig11_queue_delay_cdf.csv"),
		[]string{"arm", "delay_cycles", "cum_fraction"}, rows)
}

// WriteCSV exports Figure 12's modeled costs.
func (r *Fig12Result) WriteCSV(dir string) error {
	var rows [][]string
	emit := func(plane string, costs []FPGACost) {
		for _, c := range costs {
			rows = append(rows, []string{
				plane, c.Component, strconv.Itoa(c.Entries),
				f2(c.LUT), f2(c.LUTRAM), f2(c.FF),
			})
		}
	}
	emit("memory", r.Memory)
	emit("llc", r.LLC)
	return writeCSV(filepath.Join(dir, "fig12_fpga_cost.csv"),
		[]string{"plane", "component", "entries", "lut", "lutram", "ff"}, rows)
}

// ExportCSV writes the result's CSV files if it supports export.
func ExportCSV(res Printable, dir string) error {
	w, ok := res.(CSVWriter)
	if !ok {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := w.WriteCSV(dir); err != nil {
		return fmt.Errorf("exp: csv export: %w", err)
	}
	return nil
}
