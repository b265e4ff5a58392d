package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/metric"
	"repro/internal/sim"
)

// Export surfaces. All of these run off the simulation hot path (pardd
// HTTP handlers, console commands, end-of-run dumps) and write in
// deterministic order — series in creation order, journal in sequence
// order — so a sequential run's output is byte-reproducible.

// WritePrometheus writes the registry's latest values and the journal
// counters in Prometheus text exposition format (version 0.0.4).
func WritePrometheus(w io.Writer, r *Registry, j *Journal) error {
	var b strings.Builder
	b.WriteString("# HELP pard_series Latest scraped value of each telemetry series.\n")
	b.WriteString("# TYPE pard_series gauge\n")
	for _, s := range r.Series() {
		last, ok := s.Last()
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "pard_series{name=%q} %g\n", s.Name(), last.Value)
	}
	b.WriteString("# HELP pard_series_dropped_samples_total Samples displaced from full series rings.\n")
	b.WriteString("# TYPE pard_series_dropped_samples_total counter\n")
	var dropped uint64
	for _, s := range r.Series() {
		dropped += s.Dropped()
	}
	fmt.Fprintf(&b, "pard_series_dropped_samples_total %d\n", dropped)
	b.WriteString("# HELP pard_scrapes_total Telemetry scrapes performed.\n")
	b.WriteString("# TYPE pard_scrapes_total counter\n")
	fmt.Fprintf(&b, "pard_scrapes_total %d\n", r.Scrapes())
	b.WriteString("# HELP pard_sim_time_ticks Current simulation time in ticks.\n")
	b.WriteString("# TYPE pard_sim_time_ticks gauge\n")
	fmt.Fprintf(&b, "pard_sim_time_ticks %d\n", r.Now())
	b.WriteString("# HELP pard_journal_events_total Control-plane audit events recorded.\n")
	b.WriteString("# TYPE pard_journal_events_total counter\n")
	fmt.Fprintf(&b, "pard_journal_events_total %d\n", j.NextSeq())
	b.WriteString("# HELP pard_journal_dropped_total Audit events displaced from the bounded journal.\n")
	b.WriteString("# TYPE pard_journal_dropped_total counter\n")
	fmt.Fprintf(&b, "pard_journal_dropped_total %d\n", j.Dropped())
	_, err := io.WriteString(w, b.String())
	return err
}

// seriesDoc is the pard-telemetry/v1 schema.
type seriesDoc struct {
	Schema   string       `json:"schema"`
	SimTime  sim.Tick     `json:"sim_time"`
	Interval sim.Tick     `json:"interval"`
	Scrapes  uint64       `json:"scrapes"`
	Series   []seriesJSON `json:"series"`
}

type seriesJSON struct {
	Name    string       `json:"name"`
	Dropped uint64       `json:"dropped"`
	Samples []sampleJSON `json:"samples"`
}

type sampleJSON struct {
	T sim.Tick `json:"t"`
	V float64  `json:"v"`
}

// WriteSeriesJSON dumps every series whose name starts with prefix
// ("" for all) as pard-telemetry/v1 JSON.
func WriteSeriesJSON(w io.Writer, r *Registry, prefix string) error {
	doc := seriesDoc{
		Schema:   "pard-telemetry/v1",
		SimTime:  r.Now(),
		Interval: r.Interval(),
		Scrapes:  r.Scrapes(),
		Series:   []seriesJSON{},
	}
	for _, s := range r.Series() {
		if !strings.HasPrefix(s.Name(), prefix) {
			continue
		}
		sj := seriesJSON{Name: s.Name(), Dropped: s.Dropped(), Samples: make([]sampleJSON, 0, s.Len())}
		for i := 0; i < s.Len(); i++ {
			smp := s.At(i)
			sj.Samples = append(sj.Samples, sampleJSON{T: smp.When, V: smp.Value})
		}
		doc.Series = append(doc.Series, sj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// journalDoc is the pard-journal/v1 schema. Truncated reports that the
// requested range reaches back past the bounded journal's oldest
// retained event — the explicit marker that history was displaced.
type journalDoc struct {
	Schema    string   `json:"schema"`
	SimTime   sim.Tick `json:"sim_time"`
	NextSeq   uint64   `json:"next_seq"`
	Dropped   uint64   `json:"dropped"`
	Truncated bool     `json:"truncated"`
	Events    []Event  `json:"events"`
}

// WriteJournalJSON dumps retained events with Seq >= since (at most
// limit of them, oldest first; limit <= 0 means no limit) as
// pard-journal/v1 JSON.
func WriteJournalJSON(w io.Writer, r *Registry, j *Journal, since uint64, limit int) error {
	events := j.Since(since, []Event{})
	oldest := j.NextSeq() - uint64(j.Len())
	doc := journalDoc{
		Schema:    "pard-journal/v1",
		SimTime:   r.Now(),
		NextSeq:   j.NextSeq(),
		Dropped:   j.Dropped(),
		Truncated: since < oldest,
		Events:    events,
	}
	if limit > 0 && len(doc.Events) > limit {
		doc.Events = doc.Events[:limit]
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// sparkGlyphs match metric.Series.Sparkline's ramp.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// spark renders a series' latest samples as a sparkline at most width
// glyphs wide, scaled between their minimum and maximum.
func spark(s *metric.Series, width int) string {
	if s == nil || s.Len() == 0 {
		return ""
	}
	start := 0
	if s.Len() > width {
		start = s.Len() - width
	}
	lo, hi := s.At(start).Value, s.At(start).Value
	for i := start; i < s.Len(); i++ {
		v := s.At(i).Value
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for i := start; i < s.Len(); i++ {
		idx := 0
		if hi > lo {
			idx = int((s.At(i).Value - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}

// Top is a top view under construction: an aligned console table of
// latest values with sparklines, keeping the rows whose name starts
// with Prefix. The `top` console command, `pardctl top` and the
// cluster controller's view all render through it.
type Top struct {
	Prefix string
	rows   strings.Builder
	n      int
}

// Row adds the row name = v, with trend's latest samples as its
// sparkline; a nil trend leaves the TREND column empty.
func (t *Top) Row(name string, v float64, trend *metric.Series) {
	if !strings.HasPrefix(name, t.Prefix) {
		return
	}
	fmt.Fprintf(&t.rows, "%-36s %14g", name, v)
	if sp := spark(trend, 32); sp != "" {
		t.rows.WriteString("  " + sp)
	}
	t.rows.WriteByte('\n')
	t.n++
}

// Text returns the table, its footer stamped with the scrape count and
// interval of the registries the rows came from and the sim time.
func (t *Top) Text(scrapes uint64, interval, now sim.Tick) string {
	if t.n == 0 {
		return "no telemetry series (is telemetry enabled and has the sim run?)\n"
	}
	return fmt.Sprintf("%-36s %14s  %s\n%s%d series, %d scrapes, interval %d ticks, sim time %d\n",
		"SERIES", "LAST", "TREND", t.rows.String(), t.n, scrapes, interval, now)
}

// TopText renders the latest value of every series matching prefix —
// the `top` console command and `pardctl top` view.
func TopText(r *Registry, prefix string) string {
	t := Top{Prefix: prefix}
	for _, s := range r.Series() {
		if last, ok := s.Last(); ok {
			t.Row(s.Name(), last.Value, s)
		}
	}
	return t.Text(r.Scrapes(), r.Interval(), r.Now())
}

// JournalText renders the newest n retained events (all when n <= 0),
// oldest first — the `journal` console command, `pardctl journal` and,
// with n = 0, the firmware's `log` command and /log/triggers.log. A
// nil journal renders as empty.
func JournalText(j *Journal, n int) string {
	if j.Len() == 0 {
		return "journal empty\n"
	}
	start := 0
	if n > 0 && j.Len() > n {
		start = j.Len() - n
	}
	var b strings.Builder
	for i := start; i < j.Len(); i++ {
		ev := j.At(i)
		fmt.Fprintf(&b, "#%d t=%d %-19s origin=%s", ev.Seq, ev.When, ev.Kind, ev.Origin)
		if ev.Plane != "" {
			fmt.Fprintf(&b, " plane=%s", ev.Plane)
		}
		switch ev.Kind {
		case KindParamWrite, KindLDomCreate, KindLDomDestroy,
			KindTriggerInstall, KindTriggerFired, KindTriggerSuppress:
			fmt.Fprintf(&b, " ds=%d", ev.DS)
		default:
			if ev.DS != 0 {
				fmt.Fprintf(&b, " ds=%d", ev.DS)
			}
		}
		if ev.Name != "" {
			fmt.Fprintf(&b, " name=%s", ev.Name)
		}
		switch ev.Kind {
		case KindParamWrite:
			fmt.Fprintf(&b, " %d->%d", ev.Old, ev.New)
		case KindTriggerFired:
			fmt.Fprintf(&b, " value=%d", ev.New)
		case KindTriggerSuppress:
			fmt.Fprintf(&b, " value=%d since_last=%d", ev.New, ev.Old)
		}
		if ev.Detail != "" {
			fmt.Fprintf(&b, " (%s)", ev.Detail)
		}
		b.WriteByte('\n')
	}
	if j.Dropped() > 0 {
		fmt.Fprintf(&b, "truncated: %d older events displaced\n", j.Dropped())
	}
	return b.String()
}

// SummaryText is the one-screen `telemetry` console command.
func SummaryText(r *Registry, j *Journal) string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: %d series, %d scrapes, interval %d ticks, capacity %d samples\n",
		len(r.Series()), r.Scrapes(), r.Interval(), r.Capacity())
	fmt.Fprintf(&b, "journal:   %d retained of %d recorded, %d displaced\n",
		j.Len(), j.NextSeq(), j.Dropped())
	return b.String()
}
